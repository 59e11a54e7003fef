"""The boundary contract of the public API (README, "The boundary contract").

Every callable in ``toposqt.__all__``, and every id lookup of a
``ContextPoset``, is called with one argument replaced by a malformed value.
A malformed *data* value (array data, a context id, a tolerance, a
per-context mapping, a connective kind, a budget, an interval, a path, or a
value inside a library object: a sieve's base and members, a character's
index, a selection, the sieves a global element stores, a section's values,
a context foreign to the poset) ends in a return value or a ``ToposError``.
An object of the wrong type where a library type is wanted (a poset, a
context, a character, a sieve, a subobject, a global element, a section, a
decomposition, a problem) is not checked: it ends in a return value, a
``ToposError``, or Python's own ``TypeError`` or ``AttributeError``.  No
call may warn.  A path that names no readable file is the one data value
that may end in the operating system's ``OSError``.
"""

from __future__ import annotations

from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import toposqt
from toposqt import (
    Character,
    ClopenSubobject,
    GlobalElementOfOmega,
    GlobalSection,
    Sieve,
    ToposError,
    build_poset,
    context_from_basis,
    full_subobject,
    global_sections,
    load_problem,
    principal_sieve,
    spectral_decomposition,
    totally_true,
)

NAN, INF = float("nan"), float("inf")


class Build:
    """A library object built inside the call, whose constructor may refuse it."""

    def __init__(self, cls, *args) -> None:
        self.cls, self.args = cls, args

    def __call__(self):
        return self.cls(*self.args)

    def __repr__(self) -> str:
        return f"{self.cls.__name__}{self.args!r}"


def world(directory) -> SimpleNamespace:
    """Valid arguments on the poset of one basis of C^3 (four contexts), and
    problem files in ``directory`` that cannot be read as problems."""
    w = SimpleNamespace()
    w.poset = build_poset([context_from_basis(np.eye(3))])
    w.top, w.sub = w.poset.get(w.poset.ids[0]), w.poset.get(w.poset.ids[-1])
    turned = np.array([[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]]) / np.sqrt(2)
    w.foreign, w.small = context_from_basis(turned), context_from_basis(np.eye(2))
    w.A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    w.P = np.diag([1.0, 0.0, 0.0]).astype(complex)
    w.psi = np.eye(3, dtype=complex)[0]
    w.ch = Character(w.top.id, 0)
    w.sieve = principal_sieve(w.poset, w.top.id)
    w.subobject = full_subobject(w.poset)
    w.element = totally_true(w.poset)
    w.section = global_sections(w.poset)[0]
    w.decomp = spectral_decomposition(w.A)
    w.spin2 = resources.files("toposqt") / "data" / "spin2.json"
    w.problem = load_problem(w.spin2)
    w.files = []
    for name, content in (("short.json", b'{"dim": 1}'), ("list.json", b"[1]"), ("bytes.json", b"\xff\xfe")):
        path = directory / name
        path.write_bytes(content)
        w.files.append(str(path))
    return w


def _entries(base, values):
    # The array ``base`` with one entry replaced by each value.
    out = []
    for value in values:
        bad = np.array(base, dtype=complex)
        bad.flat[1] = value
        out.append(bad)
    return out


_NOT_FINITE = (NAN, INF, -INF, 1e300, complex(0, INF))


def data_pools(w) -> dict[str, list]:
    """Malformed values for each data argument."""
    matrix = [*_entries(w.A, _NOT_FINITE), None, True, 0, NAN, "abc", [1], {}, {1: 2}, object(), 10**400,
              np.eye(2), np.eye(4), np.zeros((3, 4)), np.ones(3), np.zeros((0, 0)), [[1, 2], [3]],
              [["a"] * 3] * 3, np.ones((3, 3)), np.triu(np.ones((3, 3)))]
    vector = [*_entries(w.psi, _NOT_FINITE), None, True, NAN, "abc", [1], {}, 10**400,
              np.ones(2), np.ones(4), np.zeros(3), [["a"]], np.eye(3)]
    tau = [None, True, False, 0, 0.0, -1e-9, NAN, INF, -INF, "1e-9", b"x", [1e-9], 1j, 10**400,
           np.float64(NAN), np.float64(1e300), np.float32(1e-9), np.float16(1e-3), 1e300]
    full, true = w.subobject.selection, w.element.sieves
    top, sub = w.top.id, w.sub.id
    return {
        "matrix": matrix,
        "vector": vector,
        "arrays": [None, 5, 1.5, True, "abc", [], [None], [np.eye(2), np.eye(3)], {1: 2}, object(),
                   [_entries(w.P, [NAN])[0]], [[["a"]]], np.eye(3), [w.P, w.P]],
        "seeds": [None, 5, 1.5, True, [], object(), [w.small, w.top]],
        "tau": tau,
        # A poset-wide tolerance: None or the poset's own.
        "ptau": [True, 0, NAN, INF, "1e-9", [1], 1e-3, np.float64(NAN), 10**400],
        "id": [None, 5, True, 1.5, NAN, "", "ctx-foreign", w.foreign.id, [1], {1}, {}, b"x", (1, [2]), w.top],
        "kind": [None, 5, True, "", "xor", "AND", b"and", [1], ("and",), {}],
        "budget": [None, -1, 0, True, False, 1.5, "10", NAN, [1], np.int64(-5), np.bool_(True)],
        "interval": [None, 5, "12", b"12", (2, 1), (NAN, 1), (1,), (1, 2, 3), [1, "a"], {1, 2}, {1: 2},
                     (INF, -INF), (-INF, INF), (True, 2), (1e300, 1e308), (10**400, 1), (1j, 2), np.eye(2),
                     (np.complex128(1), 2)],
        "real": [None, "1", b"1", NAN, INF, -INF, True, [1], 1e308, 1j, 10**400, np.complex128(1 + 1j)],
        "path": [None, 5, 1.5, [1], object(), b"x", "\0", "", "/nonexistent/problem.json", *w.files],
        "name": [None, 5, [1], {}, "missing", "", b"x"],
        "mapping": [None, 5, "abc", [1, 2], [(1, 2)], {}, frozenset(), np.eye(3), {top: 5}, {top: "ab"},
                    {top: [[0]]}, {top: None}, {5: frozenset()}, {**full, top: {7}}, {**true, top: None}],
        "any": [None, 0, NAN, "abc", [1], {}, object(), np.eye(3)],
        # Library objects whose data are malformed: foreign contexts, bad
        # characters, sieves, subobjects, global elements and sections.
        "context": [w.foreign, w.small],
        "character": [Character(top, i) for i in (-1, 3, 99, True, 1.0, "0", None, [0], NAN)]
        + [Character(cid, 0) for cid in ("ctx-foreign", [1], None, w.foreign.id)],
        "sieve": [Sieve(top, m) for m in ([top], "abc", None, {top: True}, frozenset({0}), {top, 0},
                                           {"ctx-foreign"}, 5, frozenset({top}), frozenset({sub}))]
        + [Sieve(base, frozenset()) for base in ([1], 5, None, "ctx-foreign", w.foreign.id, NAN)]
        + [Sieve(sub, frozenset({top})), Sieve(w.foreign.id, frozenset({top}))],
        "subobject": [Build(ClopenSubobject, m) for m in (
            {**full, top: {7}}, {**full, top: {True}}, {**full, top: {1.0}}, {**full, top: {"a"}},
            {**full, top: {-1}}, {top: full[top]}, {**full, w.foreign.id: frozenset()}, {**full, top: 5},
            {**full, top: [[0]]}, 5, "abc", None)],
        "element": [Build(GlobalElementOfOmega, m) for m in (
            {cid: s.members for cid, s in true.items()}, {**true, top: true[sub]}, {top: true[top]},
            {**true, w.foreign.id: Sieve(w.foreign.id, frozenset())}, {**true, top: Sieve(top, [top])},
            {**true, top: None}, {**true, top: Sieve(top, [[1]])}, 5, "abc")],
        "section": [GlobalSection(a) for a in (
            5, None, "abc", {**w.section.assignment, top: [1]}, {**w.section.assignment, top: 1.5},
            {**w.section.assignment, top: True}, {**w.section.assignment, top: 99},
            {**w.section.assignment, top: "a"}, {top: 0}, {**w.section.assignment, w.foreign.id: 0},
            {**w.section.assignment, top: NAN})],
    }


#: Library types, by the role of an argument that takes one.
LIBRARY = {
    "poset": toposqt.ContextPoset,
    "context": toposqt.Context,
    "character": Character,
    "sieve": Sieve,
    "subobject": ClopenSubobject,
    "element": GlobalElementOfOmega,
    "section": GlobalSection,
    "decomp": toposqt.SpectralDecomposition,
    "problem": toposqt.Problem,
}


def wrong_types(w, role: str) -> list:
    """Objects that are not of the library type the role wants."""
    others = [w.poset, w.top, w.ch, w.sieve, w.subobject, w.element, w.section, w.decomp, w.problem]
    plain = [None, 0, 1.5, "abc", [1], {}, object(), np.eye(3)]
    return plain + [o for o in others if not isinstance(o, LIBRARY[role])]


def specs(w) -> list[tuple[str, object, tuple[str, ...], tuple]]:
    """Each public callable with the roles of its arguments and valid ones."""
    p, top, sub, ch = w.poset, w.top, w.sub, w.ch
    t = toposqt
    return [
        ("is_self_adjoint", t.is_self_adjoint, ("matrix", "tau"), (w.A, 1e-9)),
        ("is_projector", t.is_projector, ("matrix", "tau"), (w.P, 1e-9)),
        ("projector_leq", t.projector_leq, ("matrix", "matrix", "tau"), (w.P, np.eye(3), 1e-9)),
        ("spectral_decomposition", t.spectral_decomposition, ("matrix", "tau", "tau"), (w.A, 1e-9, 1e-8)),
        ("spectral_family_at", t.spectral_family_at, ("decomp", "real", "tau"), (w.decomp, 2.0, 1e-8)),
        ("spectral_order_leq", t.spectral_order_leq, ("matrix", "matrix", "tau", "tau"), (w.A, w.A, 1e-9, 1e-8)),
        ("SpectralDecomposition", t.SpectralDecomposition, ("any", "any"), ((1.0,), (np.eye(3),))),
        ("Context", t.Context, ("any", "any", "any"), (top.id, top.atoms, top.ranks)),
        ("build_poset", t.build_poset, ("seeds", "tau", "tau"), ([top], 1e-9, 1e-8)),
        ("context_from_atoms", t.context_from_atoms, ("arrays", "tau"), (top.atoms, 1e-9)),
        ("context_from_basis", t.context_from_basis, ("arrays", "tau"), (list(np.eye(3)), 1e-9)),
        ("context_from_projectors", t.context_from_projectors, ("arrays", "tau"), ([w.P], 1e-9)),
        ("down_set", t.down_set, ("poset", "context"), (p, top)),
        ("intersect_contexts", t.intersect_contexts, ("context", "context", "tau"), (top, sub, 1e-9)),
        ("is_subcontext", t.is_subcontext, ("context", "context", "tau"), (sub, top, 1e-9)),
        ("ContextPoset.get", p.get, ("id",), (top.id,)),
        ("ContextPoset.down_ids", p.down_ids, ("id",), (top.id,)),
        ("ContextPoset.is_leq", p.is_leq, ("id", "id"), (sub.id, top.id)),
        ("ContextPoset.restriction_indices", p.restriction_indices, ("id", "id"), (top.id, sub.id)),
        ("ContextPoset.__contains__", p.__contains__, ("id",), (top.id,)),
        ("ContextPoset.find", p.find, ("arrays",), (sub.atoms,)),
        ("DaseinisedProposition", t.DaseinisedProposition, ("any", "any", "any"), (w.P, {}, w.subobject)),
        ("daseinise_proposition", t.daseinise_proposition, ("poset", "matrix", "ptau"), (p, w.P, None)),
        ("inner_daseinise_projection", t.inner_daseinise_projection, ("matrix", "context", "tau"), (w.P, top, 1e-9)),
        ("inner_daseinise_proposition", t.inner_daseinise_proposition, ("poset", "matrix"), (p, w.P)),
        ("outer_daseinise_projection", t.outer_daseinise_projection, ("matrix", "context", "tau"), (w.P, top, 1e-9)),
        ("inner_daseinise_selfadjoint", t.inner_daseinise_selfadjoint, ("matrix", "context", "tau", "tau"),
         (w.A, sub, 1e-9, 1e-8)),
        ("outer_daseinise_selfadjoint", t.outer_daseinise_selfadjoint, ("matrix", "context", "tau", "tau"),
         (w.A, sub, 1e-9, 1e-8)),
        ("ToposError", t.ToposError, ("any",), ("message",)),
        ("GlobalElementOfOmega", t.GlobalElementOfOmega, ("mapping",), (w.element.sieves,)),
        ("Sieve", t.Sieve, ("any", "any"), (top.id, frozenset())),
        ("check_global_element", t.check_global_element, ("poset", "element"), (p, w.element)),
        ("empty_sieve", t.empty_sieve, ("any",), (top.id,)),
        ("enumerate_sieves", t.enumerate_sieves, ("poset", "context"), (p, top)),
        ("global_element_connective", t.global_element_connective, ("poset", "kind", "element", "element"),
         (p, "and", w.element, w.element)),
        ("global_element_connective not", t.global_element_connective, ("poset", "kind", "element"),
         (p, "not", w.element)),
        ("is_sieve", t.is_sieve, ("poset", "sieve"), (p, w.sieve)),
        ("omega_restriction", t.omega_restriction, ("poset", "sieve", "context"), (p, w.sieve, sub)),
        ("principal_sieve", t.principal_sieve, ("poset", "id"), (p, top.id)),
        ("sieve_connective", t.sieve_connective, ("poset", "kind", "sieve", "sieve"), (p, "implies", w.sieve, w.sieve)),
        ("sieve_connective not", t.sieve_connective, ("poset", "kind", "sieve"), (p, "not", w.sieve)),
        ("subobject_connective", t.subobject_connective, ("poset", "kind", "subobject", "subobject"),
         (p, "implies", w.subobject, w.subobject)),
        ("subobject_connective not", t.subobject_connective, ("poset", "kind", "subobject"), (p, "not", w.subobject)),
        ("totally_false", t.totally_false, ("poset",), (p,)),
        ("totally_true", t.totally_true, ("poset",), (p,)),
        ("Character", t.Character, ("any", "any"), (top.id, 0)),
        ("ClopenSubobject", t.ClopenSubobject, ("mapping",), (w.subobject.selection,)),
        ("empty_subobject", t.empty_subobject, ("poset",), (p,)),
        ("full_subobject", t.full_subobject, ("poset",), (p,)),
        ("evaluate_character", t.evaluate_character, ("context", "character", "matrix", "tau"), (top, ch, w.A, 1e-9)),
        ("gelfand_spectrum", t.gelfand_spectrum, ("context",), (top,)),
        ("is_clopen_subobject", t.is_clopen_subobject, ("poset", "subobject"), (p, w.subobject)),
        ("restrict_character", t.restrict_character, ("context", "character", "context", "tau"), (top, ch, sub, 1e-9)),
        ("subobject_leq", t.subobject_leq, ("poset", "subobject", "subobject"), (p, w.subobject, w.subobject)),
        ("Problem", t.Problem, ("any",) * 6, (3, (), (), {}, {}, {})),
        ("load_problem", t.load_problem, ("path",), (w.spin2,)),
        ("problem_poset", t.problem_poset, ("problem",), (w.problem,)),
        ("resolve_proposition", t.resolve_proposition, ("problem", "name"),
         (w.problem, sorted(w.problem.propositions)[0])),
        ("serialize_problem", t.serialize_problem, ("problem",), (w.problem,)),
        ("GlobalSection", t.GlobalSection, ("any",), ({},)),
        ("IntervalPair", t.IntervalPair, ("any", "any", "any"), (top.id, {}, {})),
        ("global_sections", t.global_sections, ("poset", "budget"), (p, 1000)),
        ("is_global_section", t.is_global_section, ("poset", "section"), (p, w.section)),
        ("proposition_projector", t.proposition_projector, ("matrix", "interval", "tau", "tau"),
         (w.A, (0.5, 1.5), 1e-9, 1e-8)),
        ("pseudo_state", t.pseudo_state, ("poset", "vector", "ptau"), (p, w.psi, None)),
        ("quantity_value_arrow", t.quantity_value_arrow, ("poset", "matrix", "context", "character", "ptau", "ptau"),
         (p, w.A, top, ch, None, None)),
        ("quantity_value_arrows", t.quantity_value_arrows, ("poset", "matrix", "context"), (p, w.A, top)),
        ("quantity_value_arrows poset", t.quantity_value_arrows, ("poset", "matrix"), (p, w.A)),
        ("truth_value", t.truth_value, ("poset", "matrix", "vector", "ptau"), (p, w.P, w.psi, None)),
    ]


def draws(w) -> list[tuple[str, object, tuple, int, object, bool]]:
    """Every (label, callable, valid arguments, position, malformed value,
    whether it is a wrong library type) that the pools give."""
    pools = data_pools(w)
    out = []
    for label, fn, roles, valid in specs(w):
        for position, role in enumerate(roles):
            candidates = [(v, False) for v in pools.get(role, [])]
            if role in LIBRARY:
                candidates += [(v, True) for v in wrong_types(w, role)]
            out += [(label, fn, valid, position, v, wrong) for v, wrong in candidates]
    return out


def generated(w) -> dict[str, st.SearchStrategy]:
    """Malformed values that Hypothesis draws beyond the pools, for the data
    roles where a drawn value cannot name a file: arrays of any entries and
    of wrong shapes, numbers of every kind, strings, unhashable lists, ids
    foreign to the poset, and library objects holding such values."""
    ids = st.sampled_from([*w.poset.ids, "ctx-foreign", w.foreign.id])
    number = st.one_of(st.floats(), st.integers(), st.booleans(), st.complex_numbers(), st.none())
    junk = st.one_of(number, st.text(max_size=3), st.lists(st.integers(), max_size=2), ids)
    shapes = st.sampled_from([(3, 3), (2, 2), (4, 4), (3, 4), (3,), (0, 0), ()])
    array = hnp.arrays(complex, shapes, elements=st.complex_numbers(allow_subnormal=False))
    indices = st.one_of(st.frozensets(st.one_of(st.integers(-1, 4), st.booleans(), st.floats(0, 3))), junk)
    mapping = st.one_of(st.dictionaries(st.one_of(ids, st.text(max_size=2)), indices, max_size=5), junk)
    members = st.one_of(st.frozensets(ids), st.frozensets(st.one_of(ids, st.integers())), junk)
    sieve = st.builds(Sieve, st.one_of(ids, junk), members)
    return {
        "matrix": array,
        "vector": array,
        "arrays": st.one_of(st.lists(array, max_size=3), junk),
        "tau": junk,
        "ptau": junk,
        "id": st.one_of(junk, st.lists(st.text(max_size=2), max_size=2)),
        "kind": st.one_of(junk, st.sampled_from(["and", "or", "implies", "not"])),
        "budget": st.one_of(junk, st.integers(-3, 5)),
        "interval": st.one_of(st.tuples(number, number), st.lists(number, max_size=3), junk),
        "real": junk,
        "name": junk,
        "mapping": mapping,
        "character": st.builds(Character, st.one_of(ids, junk), st.one_of(st.integers(-2, 4), junk)),
        "sieve": sieve,
        "subobject": st.builds(lambda m: Build(ClopenSubobject, m), mapping),
        "element": st.builds(lambda m: Build(GlobalElementOfOmega, m),
                             st.one_of(st.dictionaries(ids, st.one_of(sieve, junk), max_size=5), junk)),
        "section": st.builds(GlobalSection, st.one_of(st.dictionaries(ids, junk, max_size=5), junk)),
    }


def outcome(fn, valid: tuple, position: int, value) -> str:
    """How the call with ``value`` at ``position`` ends: "return", "refused"
    (a ToposError), "type" (TypeError or AttributeError), "os" (OSError), or
    the name of any other exception, a warning included."""
    try:
        args = list(valid)
        args[position] = value() if isinstance(value, Build) else value
        fn(*args)
    except ToposError:
        return "refused"
    except (TypeError, AttributeError):
        return "type"
    except OSError:
        return "os"
    except Exception as exc:  # noqa: BLE001 - any other end breaks the contract
        return type(exc).__name__
    return "return"


def allowed(role: str, wrong: bool) -> set[str]:
    """The ends the contract allows for a malformed value of the role."""
    return {"return", "refused"} | ({"type"} if wrong else set()) | ({"os"} if role == "path" else set())


@pytest.fixture(scope="module")
def contract(tmp_path_factory):
    w = world(tmp_path_factory.mktemp("contract"))
    return w, specs(w), data_pools(w), generated(w)


def test_the_draws_cover_every_public_callable(contract):
    # A ContextPoset comes only from build_poset (its constructor is refused
    # below); its id lookups stand for it.
    _, specs_, _, _ = contract
    covered = {label.split()[0].split(".")[0] for label, *_ in specs_}
    public = {name for name in toposqt.__all__ if callable(getattr(toposqt, name))}
    assert public == covered


@pytest.mark.filterwarnings("error")
def test_a_callers_poset_constructor_is_a_type_error_naming_build_poset(contract):
    # The constructor took build_poset's internals: a registry with an empty
    # seed-atom list escaped as OverflowError.
    p = contract[0].poset
    for args, kwargs in (((p._registry, {}, p.tolerances), {}), ((p._registry, p._seed_atoms, p.tolerances), {}),
                         ((), {}), ((None,), {"tau": 1e-9})):
        with pytest.raises(TypeError, match="build_poset"):
            toposqt.ContextPoset(*args, **kwargs)


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(st.data())
def test_a_malformed_argument_ends_as_the_contract_says(contract, data):
    w, specs_, pools, extra = contract
    label, fn, roles, valid = data.draw(st.sampled_from(specs_), label="callable")
    position = data.draw(st.integers(0, len(roles) - 1), label="position")
    role = roles[position]
    options = [st.sampled_from(pools[role]).map(lambda v: (v, False))] if role in pools else []
    if role in extra:
        options.append(extra[role].map(lambda v: (v, False)))
    if role in LIBRARY:
        options.append(st.sampled_from(wrong_types(w, role)).map(lambda v: (v, True)))
    value, wrong = data.draw(st.one_of(options), label="value")
    end = outcome(fn, valid, position, value)
    assert end in allowed(role, wrong), (label, position, value, end)


@pytest.mark.filterwarnings("error")
def test_every_pooled_malformed_argument_ends_as_the_contract_says(contract):
    # The pools exhaustively, a second at most: the drawn test samples them.
    w, specs_, _, _ = contract
    roles_of = {label: roles for label, _, roles, _ in specs_}
    broken = [(label, position, value, end) for label, fn, valid, position, value, wrong in draws(w)
              if (end := outcome(fn, valid, position, value)) not in allowed(roles_of[label][position], wrong)]
    assert broken == []
