"""Pseudo-states, truth values, interval-valued quantities, section search."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import pickle
import sys
from importlib import resources

import numpy as np
import pytest

from conftest import haar_basis, locate
from oracles import random_self_adjoint, touch_interval
from toposqt.cli import run_command
from toposqt.contexts import build_poset, context_from_basis, context_from_projectors
from toposqt.daseinisation import daseinise_proposition
from toposqt.errors import (
    DimensionMismatch,
    NotInAlgebra,
    NotSelfAdjoint,
    NotUnitVector,
    SearchBudgetExceeded,
    UnknownContext,
    ValidationError,
)
from toposqt.logic import check_global_element, is_sieve, principal_sieve
from toposqt.operators import TAU_EIG, Tolerances, spectral_decomposition, spectral_family_at
from toposqt.presheaf import (
    coefficients_in,
    evaluate_character,
    gelfand_spectrum,
    is_clopen_subobject,
    subobject_leq,
)
from toposqt.problems import load_problem, problem_from_dict, problem_poset
from toposqt.valuation import (
    IntervalPair,
    _keyed,
    global_sections,
    is_global_section,
    proposition_projector,
    pseudo_state,
    quantity_value_arrow,
    quantity_value_arrows,
    truth_value,
)


def test_pseudo_state_requires_unit_vector(poset11):
    with pytest.raises(NotUnitVector):
        pseudo_state(poset11, np.array([1.0, 1.0, 0.0, 0.0]))


def test_pseudo_state_table(poset11, std_projectors):
    p = std_projectors
    psi = np.array([0, 1, 0, 0], dtype=complex)
    w = pseudo_state(poset11, psi)
    assert is_clopen_subobject(poset11, w.subobject)
    # contexts containing the ray keep the rank-one projector itself
    for atoms in (
        [p[0], p[1], p[2], p[3]],
        [p[1], p[0], p[2] + p[3]],
        [p[1], p[0] + p[2] + p[3]],
    ):
        context = locate(poset11, atoms)
        assert np.allclose(w.per_context_projector[context.id], p[1])
    # contexts separating two other rays force p2 + remaining ray
    for i, j, k in ((0, 2, 3), (0, 3, 2), (2, 3, 0)):
        context = locate(poset11, [p[i], p[j], p[1] + p[k]])
        assert np.allclose(w.per_context_projector[context.id], p[1] + p[k])
    # two-atom contexts on another ray force the ray's complement
    for i in (0, 2, 3):
        context = locate(poset11, [p[i], np.eye(4) - p[i]])
        assert np.allclose(w.per_context_projector[context.id], np.eye(4) - p[i])


def test_pseudo_state_projector_is_certain_everywhere(poset11):
    rng = np.random.default_rng(3)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = v / np.linalg.norm(v)
    w = pseudo_state(poset11, psi)
    for cid, projector in w.per_context_projector.items():
        assert float(np.real(psi.conj() @ (projector @ psi))) == pytest.approx(1.0)


def test_proposition_projector_from_interval(sz, std_projectors):
    for interval in ((1.3, 2.3), [1.3, 2.3], np.array([1.3, 2.3])):
        assert np.allclose(proposition_projector(sz, interval), std_projectors[0])
    P = proposition_projector(sz, (-3.0, -1.0))
    assert np.allclose(P, std_projectors[3])
    P = proposition_projector(sz, (0.0, 2.0))
    assert np.allclose(P, std_projectors[0] + std_projectors[1] + std_projectors[2])


@pytest.mark.parametrize(
    "interval",
    [
        (1,),
        None,
        ("a", "b"),
        "12",
        b"12",
        (np.nan, 3.0),
        (-3.0, float("nan")),
        (np.float32("nan"), 1),
        ("1", "2"),
        (True, 2),
        (1, b"2"),
        {8.0, 1.0},
        frozenset({1.0, 2.0}),
        {1: "a", 2: "b"},
        (2, 1),
    ],
)
def test_proposition_projector_refuses_an_interval_that_is_not_a_pair_of_numbers(sz, interval):
    with pytest.raises(ValidationError, match="interval must be a pair of numbers"):
        proposition_projector(sz, interval)


@pytest.mark.parametrize("tau_eig", [TAU_EIG, 1e-3])
def test_an_endpoint_keeps_an_eigenvalue_within_tau_eig_of_it(tau_eig):
    # Both interval endpoints and the spectral family's r keep the projector
    # of an eigenvalue lam at tau_eig / 2 from it, and drop it at 3 tau_eig.
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    decomp = spectral_decomposition(A, tau_eig=tau_eig)
    lam, below, at = decomp.eigenvalues[1], np.diag([1.0, 0, 0, 0]), np.diag([0, 1.0, 0, 0])
    for near, kept in ((0.5 * tau_eig, at), (3 * tau_eig, np.zeros((4, 4)))):
        assert np.array_equal(proposition_projector(A, (lam + near, 2.5), tau_eig=tau_eig), kept)
        assert np.array_equal(proposition_projector(A, (1.5, lam - near), tau_eig=tau_eig), kept)
        assert np.array_equal(spectral_family_at(decomp, lam - near, tau_eig), below + kept)


def test_proposition_projector_takes_numpy_and_infinite_endpoints(sz, std_projectors):
    p = std_projectors
    numpy_endpoints = proposition_projector(sz, (np.int64(1), np.float32(2.5)))
    assert np.array_equal(numpy_endpoints, proposition_projector(sz, (1, 2.5)))
    assert np.allclose(numpy_endpoints, p[0])
    assert np.allclose(proposition_projector(sz, (-np.inf, 0.0)), p[1] + p[2] + p[3])
    assert np.allclose(proposition_projector(sz, (1.0, np.inf)), p[0])
    assert np.allclose(proposition_projector(sz, (-np.inf, np.inf)), np.eye(4))
    assert not proposition_projector(sz, (np.inf, np.inf)).any()


def test_truth_value_table(poset11, std_projectors, maximal_context):
    p = std_projectors
    psi = np.array([1, 0, 0, 0], dtype=complex)
    element = truth_value(poset11, p[3], psi)
    assert check_global_element(poset11, element)

    v1 = locate(poset11, [p[0], p[1] + p[2] + p[3]])
    v2 = locate(poset11, [p[1], p[0] + p[2] + p[3]])
    v3 = locate(poset11, [p[2], p[0] + p[1] + p[3]])
    v4 = locate(poset11, [p[3], p[0] + p[1] + p[2]])
    v23 = locate(poset11, [p[1], p[2], p[0] + p[3]])
    v24 = locate(poset11, [p[1], p[3], p[0] + p[2]])

    assert element.at(maximal_context.id).members == {v2.id, v3.id, v23.id}
    assert element.at(v1.id).members == frozenset()
    assert element.at(v4.id).members == frozenset()
    assert element.at(v2.id).members == {v2.id}
    assert element.at(v23.id).members == {v23.id, v2.id, v3.id}
    assert element.at(v24.id).members == {v2.id}


def test_truth_of_identity_is_totally_true(poset11):
    psi = np.array([0, 0, 1, 0], dtype=complex)
    element = truth_value(poset11, np.eye(4), psi)
    for cid in poset11.ids:
        assert element.at(cid) == principal_sieve(poset11, cid)


def test_truth_monotone_in_the_proposition(poset11, std_projectors):
    p = std_projectors
    psi = np.array([1, 0, 0, 0], dtype=complex)
    small = truth_value(poset11, p[3], psi)
    large = truth_value(poset11, p[3] + p[0], psi)
    for cid in poset11.ids:
        assert small.at(cid).members <= large.at(cid).members


def test_totally_true_iff_pseudo_state_below_proposition(poset11, maximal_context, std_projectors):
    p = std_projectors
    psi = np.array([1, 0, 0, 0], dtype=complex)
    w = pseudo_state(poset11, psi)

    above = daseinise_proposition(poset11, p[0] + p[1])
    element = truth_value(poset11, p[0] + p[1], psi)
    assert subobject_leq(poset11, w.subobject, above.subobject)
    assert all(
        element.at(cid) == principal_sieve(poset11, cid) for cid in poset11.ids
    )

    sideways = daseinise_proposition(poset11, p[3])
    element = truth_value(poset11, p[3], psi)
    assert not subobject_leq(poset11, w.subobject, sideways.subobject)
    assert any(
        element.at(cid) != principal_sieve(poset11, cid) for cid in poset11.ids
    )

    # A state a hair off the ray: its expectation of p0 is 1 - 1e-12, yet its
    # pseudo-state is not below p0, and truth agrees with the pseudo-state.
    eps = 1e-6
    tilted = np.array([np.cos(eps), np.sin(eps), 0, 0], dtype=complex)
    w = pseudo_state(poset11, tilted)
    element = truth_value(poset11, p[0], tilted)
    assert not subobject_leq(poset11, w.subobject, daseinise_proposition(poset11, p[0]).subobject)
    assert any(
        element.at(cid) != principal_sieve(poset11, cid) for cid in poset11.ids
    )

    # Touches add up in quadrature under coarsening: e1 and e2 each miss this
    # state at tau = 1e-9, but e1 + e2 touches it (1.13e-9).  The pseudo-state
    # is below p0 at the maximal context, not at its coarsening
    # {e0, e3, e1 + e2}; truth must still be a sieve at every context, and is
    # not totally true at the maximal context.
    skew = np.array([1, 0.8e-9, 0.8e-9, 0], dtype=complex)
    skew /= np.linalg.norm(skew)
    w = pseudo_state(poset11, skew)
    element = truth_value(poset11, p[0], skew)
    assert not subobject_leq(poset11, w.subobject, daseinise_proposition(poset11, p[0]).subobject)
    assert all(is_sieve(poset11, element.at(cid)) for cid in poset11.ids)
    assert element.at(maximal_context.id) != principal_sieve(poset11, maximal_context.id)


def test_quantity_value_sharp_at_member_context(poset11, maximal_context, sz):
    lam1 = gelfand_spectrum(maximal_context)[0]
    pair = quantity_value_arrow(poset11, sz, maximal_context, lam1)
    assert pair.mu[maximal_context.id] == pytest.approx(2.0)
    assert pair.nu[maximal_context.id] == pytest.approx(2.0)


def test_quantity_value_at_two_atom_context(poset11, std_projectors, sz):
    p = std_projectors
    v1 = locate(poset11, [p[0], p[1] + p[2] + p[3]])
    lam1, lam_rest = gelfand_spectrum(v1)
    sharp = quantity_value_arrow(poset11, sz, v1, lam1)
    assert sharp.mu[v1.id] == pytest.approx(2.0)
    assert sharp.nu[v1.id] == pytest.approx(2.0)
    fuzzy = quantity_value_arrow(poset11, sz, v1, lam_rest)
    assert fuzzy.mu[v1.id] == pytest.approx(-2.0)
    assert fuzzy.nu[v1.id] == pytest.approx(0.0)


def test_interval_pairs_widen_down_the_poset(poset_two_bases, sz):
    for context in poset_two_bases:
        for ch in gelfand_spectrum(context):
            pair = quantity_value_arrow(poset_two_bases, sz, context, ch)
            down = poset_two_bases.down_ids(context.id)
            for sup_id in down:
                assert pair.mu[sup_id] <= pair.nu[sup_id] + 1e-9
                for sub_id in poset_two_bases.down_ids(sup_id):
                    assert pair.mu[sub_id] <= pair.mu[sup_id] + 1e-9
                    assert pair.nu[sub_id] >= pair.nu[sup_id] - 1e-9


@pytest.mark.parametrize("case", ["spin2_poset", "ks18_poset", "poset_two_bases", "haar4", "haar5", "haar6"])
def test_quantity_value_arrows_is_the_arrow_at_every_character(case, request):
    # The poset-wide call and one context at a time give, in poset and atom
    # order, the pairs of quantity_value_arrow at each character.  A is a
    # member of the top context whose atoms share values in pairs, so some
    # clusters hold two eigenvectors and the intervals vary.
    if case.startswith("haar"):
        poset = build_poset([context_from_basis(haar_basis(int(case[-1])))])
    else:
        poset = request.getfixturevalue(case)
    A = sum(i // 2 * a for i, a in enumerate(poset.get(poset.ids[0]).atoms))
    expected = [(ch, quantity_value_arrow(poset, A, c, ch)) for c in poset for ch in gelfand_spectrum(c)]
    assert list(quantity_value_arrows(poset, A).items()) == expected
    by_context = [item for c in poset for item in quantity_value_arrows(poset, A, c).items()]
    assert by_context == expected


def test_quantity_value_arrows_refuses_a_foreign_context_and_a_wrong_dimension(poset11, sz):
    foreign = context_from_basis(haar_basis(4))
    with pytest.raises(UnknownContext):
        quantity_value_arrows(poset11, sz, foreign)
    for context in (None, poset11.get(poset11.ids[0])):
        with pytest.raises(DimensionMismatch):
            quantity_value_arrows(poset11, np.eye(3), context)


def _shipped_poset(name: str):
    return problem_poset(load_problem(resources.files("toposqt.data") / f"{name}.json"))


def _pairs(poset, A) -> list:
    # quantity_value_arrow at every character, in poset and atom order.
    return [(ch, quantity_value_arrow(poset, A, c, ch)) for c in poset for ch in gelfand_spectrum(c)]


@pytest.mark.parametrize("name", ["spin2", "ks18"])
def test_a_kernel_made_pair_is_the_public_interval_pair(name):
    # The kernel fills each pair's instance dict; every pair of a sweep must
    # still behave as one built by the frozen dataclass's __init__.
    poset = _shipped_poset(name)
    A = random_self_adjoint(np.random.default_rng(5), poset.dim)
    with pytest.raises(TypeError) as made:
        hash(IntervalPair("ctx", {}, {}))
    for _, pair in _pairs(poset, A):
        built = IntervalPair(pair.base, pair.mu, pair.nu)
        assert type(pair) is IntervalPair and pair == built and built == pair and repr(pair) == repr(built)
        assert [f.name for f in dataclasses.fields(pair)] == ["base", "mu", "nu"]
        assert dataclasses.asdict(pair) == {"base": pair.base, "mu": pair.mu, "nu": pair.nu}
        assert dataclasses.replace(pair, base="other") == IntervalPair("other", pair.mu, pair.nu)
        for field in ("base", "mu", "nu"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(pair, field, None)
        with pytest.raises(TypeError) as kept:
            hash(pair)
        assert str(kept.value) == str(made.value)
        assert copy.deepcopy(pair) == pair == pickle.loads(pickle.dumps(pair))


def _count_clusters(monkeypatch) -> list:
    import toposqt.valuation
    from toposqt.operators import _clusters

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _clusters(*args, **kwargs)

    monkeypatch.setattr(toposqt.valuation, "_clusters", counted)
    return calls


def _observables(poset, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [random_self_adjoint(rng, poset.dim) for _ in range(count)]


def _keys(*operands) -> list:
    # The keys of the poset's map of atom bounds: each operand's shape and bytes as a complex array.
    return [(np.shape(X), np.asarray(X, dtype=complex).tobytes()) for X in operands]


@pytest.mark.parametrize("name", ["spin2", "ks18"])
def test_kept_atom_bounds_equal_a_fresh_posets_pairs(name, monkeypatch):
    # The first sweep with X clusters it once and keeps the bounds of every
    # poset atom; the second reads them back.  Both equal the pairs of a
    # fresh poset and, on spin2, the oracle's.
    poset = _shipped_poset(name)
    top = poset.get(poset.ids[0])
    A = random_self_adjoint(np.random.default_rng(11), poset.dim)
    B = sum(i // 2 * a for i, a in enumerate(top.atoms))  # clusters of two eigenvectors
    rows = sum(c.n_atoms for c in poset)
    fresh = {id(X): list(quantity_value_arrows(_shipped_poset(name), X).items()) for X in (A, B)}
    calls = _count_clusters(monkeypatch)
    for count, X in enumerate((A, B), 1):
        assert _pairs(poset, X) == fresh[id(X)] and len(calls) == count
        assert list(poset._quantity_bounds) == _keys(A, B)[:count]
        assert _keyed(poset, X)[0] == ((poset.dim, poset.dim), np.asarray(X, dtype=complex).tobytes())
        bounds = poset._quantity_bounds[_keyed(poset, X)[0]]
        assert len(bounds) == rows and all(lo <= hi for lo, hi in bounds)
        assert _pairs(poset, X) == fresh[id(X)] and len(calls) == count
        if name == "spin2":
            for ch, pair in fresh[id(X)]:
                assert (pair.mu, pair.nu) == touch_interval(poset, X, poset.get(ch.context_id), ch.atom_index)


def test_an_operand_changed_in_place_is_valued_anew(sz):
    poset = build_poset([context_from_basis(np.eye(4))])
    A = sz.copy()
    old = _pairs(poset, A)
    A[:] = random_self_adjoint(np.random.default_rng(3), 4)
    assert _pairs(poset, A) == _pairs(build_poset([context_from_basis(np.eye(4))]), A.copy()) != old


def _assert_map_unchanged(poset, before: dict) -> None:
    # The map holds the key and entry objects of ``before``, in its order.
    after = poset._quantity_bounds
    assert list(after) == list(before) and all(after[key] is entry for key, entry in before.items())


def test_a_failed_operand_raises_after_a_kept_one_and_is_never_stored(sz):
    poset = build_poset([context_from_basis(np.eye(4))])
    top = poset.get(poset.ids[0])
    ch = gelfand_spectrum(top)[0]
    expected = quantity_value_arrow(poset, sz, top, ch)
    before = dict(poset._quantity_bounds)
    bad = np.triu(np.ones((4, 4))) * 1j
    for _ in range(2):
        with pytest.raises(NotSelfAdjoint):
            quantity_value_arrow(poset, bad, top, ch)
        with pytest.raises(NotSelfAdjoint):
            quantity_value_arrows(poset, bad)
        with pytest.raises(ValidationError, match="expected numeric array data"):
            quantity_value_arrow(poset, np.full((4, 4), np.nan), top, ch)
        _assert_map_unchanged(poset, before)
    assert quantity_value_arrow(poset, sz, top, ch) == expected


@pytest.mark.parametrize("name", ["spin2", "ks18"])
def test_each_quantity_is_clustered_once_across_contexts_and_characters(name, monkeypatch):
    # Sweep X with A, then Y with B, then every character of every context
    # with A: each A is clustered once, whatever context and character asks.
    poset = _shipped_poset(name)
    X, Y = poset.get(poset.ids[0]), poset.get(poset.ids[-1])
    A, B = _observables(poset, 2, 17)
    expected = list(quantity_value_arrows(_shipped_poset(name), A).items())
    calls = _count_clusters(monkeypatch)
    for context, operand in ((X, A), (Y, B)):
        for ch in gelfand_spectrum(context):
            quantity_value_arrow(poset, operand, context, ch)
    assert len(calls) == 2
    assert _pairs(poset, A) == expected and len(calls) == 2
    assert list(quantity_value_arrows(poset, A).items()) == expected and len(calls) == 2


def test_characters_valued_out_of_order_and_in_part_give_the_oracles_pairs(monkeypatch):
    # Calls that ask for some characters of one context, out of order, keep
    # the bounds of every poset atom; a later poset-wide call clusters
    # nothing, and every pair is the oracle's.
    poset = _shipped_poset("spin2")
    top = poset.get(poset.ids[0])
    A = random_self_adjoint(np.random.default_rng(23), poset.dim)
    calls = _count_clusters(monkeypatch)
    for ch in gelfand_spectrum(top)[::-2]:  # atoms 3 and 1, in that order
        pair = quantity_value_arrow(poset, A, top, ch)
        assert (pair.mu, pair.nu) == touch_interval(poset, A, top, ch.atom_index)
    assert list(poset._quantity_bounds) == _keys(A) and len(calls) == 1
    arrows = quantity_value_arrows(poset, A)
    assert len(calls) == 1
    for ch, pair in arrows.items():
        context = poset.get(ch.context_id)
        assert (pair.mu, pair.nu) == touch_interval(poset, A, context, ch.atom_index)
        assert quantity_value_arrow(poset, A, context, ch) == pair


@pytest.mark.parametrize("name", ["spin2", "ks18", "eye4"])
def test_an_operand_that_fails_leaves_the_map_unchanged(name, monkeypatch):
    # Two quantities kept, then operands that fail at one character, at one
    # context or over the poset: another dimension fails only at the seed
    # table, after its clusters, yet the map keeps its keys and entry
    # objects, and the kept quantities are still read back.
    def make():
        return build_poset([context_from_basis(np.eye(4))]) if name == "eye4" else _shipped_poset(name)

    poset = make()
    top = poset.get(poset.ids[-1])
    A, B = _observables(poset, 2, 29)
    characters = gelfand_spectrum(top)
    quantity_value_arrow(poset, A, top, characters[0])
    quantity_value_arrows(poset, B, top)
    before = dict(poset._quantity_bounds)
    assert list(before) == _keys(A, B)
    n = poset.dim
    failing = [(np.eye(n - 1), DimensionMismatch), (np.diag(np.arange(n + 1.0)), DimensionMismatch),
               (np.triu(np.ones((n, n))) * 1j, NotSelfAdjoint), (np.full((n, n), np.nan), ValidationError)]
    for bad, error in failing:
        for call in (lambda: quantity_value_arrow(poset, bad, top, characters[-1]),
                     lambda: quantity_value_arrows(poset, bad, top), lambda: quantity_value_arrows(poset, bad)):
            with pytest.raises(error):
                call()
            _assert_map_unchanged(poset, before)
    fresh = make()
    expected = [quantity_value_arrows(fresh, X) for X in (A, B)]
    calls = _count_clusters(monkeypatch)
    assert [quantity_value_arrows(poset, X) for X in (A, B)] == expected and calls == []


def _rotated(poset, observables, sweeps: int) -> list:
    # quantity_value_arrow at every character, sweeps times, with observable
    # k % len(observables) at the k-th call, as the benchmark's query ops
    # rotate theirs.
    calls = [(c, ch) for c in poset for ch in gelfand_spectrum(c)] * sweeps
    return [quantity_value_arrow(poset, observables[k % len(observables)], c, ch) for k, (c, ch) in enumerate(calls)]


@pytest.mark.parametrize("name", ["spin2", "ks18"])
def test_eight_rotated_observables_are_clustered_once_each(name, monkeypatch):
    poset = _shipped_poset(name)
    observables = _observables(poset, 8, 31)
    expected = _rotated(_shipped_poset(name), observables, 3)
    calls = _count_clusters(monkeypatch)
    assert _rotated(poset, observables, 3) == expected
    assert len(calls) == 8 and list(poset._quantity_bounds) == _keys(*observables)


@pytest.mark.parametrize("name", ["spin2", "ks18"])
def test_a_ninth_observable_evicts_the_oldest(name, monkeypatch):
    # The ninth drops the first, which is clustered again on its next use and
    # then drops the second; the seven kept between are read back.  A miss
    # stores a new map and leaves the one a concurrent call may hold as it was.
    poset = _shipped_poset(name)
    top = poset.get(poset.ids[0])
    observables = _observables(poset, 9, 37)
    expected = {id(X): quantity_value_arrows(_shipped_poset(name), X, top) for X in observables}
    calls = _count_clusters(monkeypatch)
    for X in observables[:8]:
        assert quantity_value_arrows(poset, X, top) == expected[id(X)]
    full = poset._quantity_bounds
    held = dict(full)
    assert quantity_value_arrows(poset, observables[8], top) == expected[id(observables[8])]
    assert poset._quantity_bounds is not full and full == held
    assert len(calls) == 9 and list(poset._quantity_bounds) == _keys(*observables[1:])
    first, kept = observables[0], observables[2:]
    assert quantity_value_arrows(poset, first, top) == expected[id(first)] and len(calls) == 10
    assert list(poset._quantity_bounds) == _keys(*kept, first)
    for X in kept:
        assert quantity_value_arrows(poset, X, top) == expected[id(X)]
    assert len(calls) == 10


def _leaves(obj) -> set:
    # The types of the objects a key or entry of the map holds, all the way down.
    if isinstance(obj, tuple):
        return set().union(*map(_leaves, obj)) if obj else set()
    return {type(obj)}


def test_the_map_holds_no_reference_to_the_poset_or_the_callers_array():
    import gc
    import weakref

    poset = _shipped_poset("ks18")
    A = random_self_adjoint(np.random.default_rng(43), poset.dim)
    expected = quantity_value_arrows(_shipped_poset("ks18"), A)
    quantity_value_arrows(poset, A)
    assert _leaves(tuple(poset._quantity_bounds.items())) <= {int, float, bytes}
    dropped, key = weakref.ref(A), _keyed(poset, A)[0]
    del A
    gc.collect()
    assert dropped() is None and list(poset._quantity_bounds) == [key]
    assert quantity_value_arrows(poset, np.frombuffer(key[1], dtype=complex).reshape(key[0])) == expected


def test_value_calls_from_more_threads_than_cores_give_each_quantity_its_own_pairs():
    # Each thread sweeps every character with its own observables in turn,
    # twice, at a short switch interval, and more observables are in use than the
    # poset keeps, so threads evict each other's; every pair is its own
    # observable's on a fresh poset, so no thread read another's bounds.
    import os
    from concurrent.futures import ThreadPoolExecutor

    poset = _shipped_poset("ks18")
    workers = (os.cpu_count() or 1) + 1
    observables = _observables(poset, max(3 * workers, 12), 47)
    own = [observables[t::workers] for t in range(workers)]
    fresh = _shipped_poset("ks18")
    expected = [[list(quantity_value_arrows(fresh, X).items()) for X in mine * 2] for mine in own]

    def sweep(mine):
        return [_pairs(poset, X) for X in mine * 2]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            results = [f.result(timeout=300) for f in [pool.submit(sweep, mine) for mine in own]]
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
    assert len(poset._quantity_bounds) <= 8


def test_a_hit_still_checks_the_tolerances_and_the_character(poset11, maximal_context, sz):
    from toposqt.errors import UnknownCharacter
    from toposqt.presheaf import Character

    ch = gelfand_spectrum(maximal_context)[0]
    quantity_value_arrow(poset11, sz, maximal_context, ch)
    for tolerance in ({"tau": 1e-7}, {"tau_eig": 1e-6}, {"tau_eig": float("nan")}):
        with pytest.raises(ValidationError, match="differs from the"):
            quantity_value_arrow(poset11, sz, maximal_context, ch, **tolerance)
    with pytest.raises(UnknownCharacter):
        quantity_value_arrow(poset11, sz, maximal_context, Character("ctx-0000000000", 0))
    with pytest.raises(UnknownCharacter):
        quantity_value_arrow(poset11, sz, maximal_context, Character(maximal_context.id, 4))


def test_a_changed_result_leaves_the_next_call_unchanged(poset11, maximal_context, sz):
    ch = gelfand_spectrum(maximal_context)[0]
    pair = quantity_value_arrow(poset11, sz, maximal_context, ch)
    expected = (dict(pair.mu), dict(pair.nu))
    pair.mu[maximal_context.id] = pair.nu[maximal_context.id] = 99.0
    pair.mu.clear()
    again = quantity_value_arrow(poset11, sz, maximal_context, ch)
    assert again is not pair and (again.mu, again.nu) == expected
    arrows = quantity_value_arrows(poset11, sz)
    arrows[ch].mu.clear()
    assert quantity_value_arrows(poset11, sz)[ch] == again


def test_alternating_two_observables_gives_their_pairs_on_every_call(maximal_context, second_basis, sz):
    # Each context keeps a slot for each observable, filled by the first
    # calls; each result still equals that observable's pair on a fresh poset.
    poset = build_poset([maximal_context, second_basis])
    A, B = sz, random_self_adjoint(np.random.default_rng(5), 4)
    expected = [dict(quantity_value_arrows(build_poset([maximal_context, second_basis]), X)) for X in (A, B)]
    for c in poset:
        for ch in gelfand_spectrum(c):
            for X, arrows in zip((A, B), expected):
                assert quantity_value_arrow(poset, X, c, ch) == arrows[ch]
    for X, arrows in zip((A, B, A), expected + expected):
        assert quantity_value_arrows(poset, X) == arrows


def test_interval_sharp_wherever_the_observable_is_a_member(poset_two_bases, sz):
    maximal = poset_two_bases.get(poset_two_bases.ids[0])
    for ch in gelfand_spectrum(maximal):
        pair = quantity_value_arrow(poset_two_bases, sz, maximal, ch)
        for sub_id in poset_two_bases.down_ids(maximal.id):
            sub = poset_two_bases.get(sub_id)
            try:
                coefficients_in(sub, sz)
            except NotInAlgebra:
                continue
            from toposqt.presheaf import restrict_character

            lam = restrict_character(maximal, ch, sub)
            value = evaluate_character(sub, lam, sz)
            assert pair.mu[sub_id] == pytest.approx(value)
            assert pair.nu[sub_id] == pytest.approx(value)


def test_single_basis_sections(poset11):
    sections = global_sections(poset11)
    assert len(sections) == 4
    for section in sections:
        assert is_global_section(poset11, section)


def test_section_search_does_not_recurse():
    # 247 contexts: one level of recursion per context would exceed the limit.
    poset = build_poset([context_from_basis(np.eye(8))])
    assert len(poset) == 247
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        sections = global_sections(poset)
    finally:
        sys.setrecursionlimit(limit)
    assert len(sections) == 8


def test_two_atom_poset_has_two_sections(std_projectors):
    poset = build_poset([context_from_projectors([std_projectors[0]])])
    assert len(global_sections(poset)) == 2


def test_search_budget(poset11):
    with pytest.raises(SearchBudgetExceeded):
        global_sections(poset11, budget=1)


@pytest.mark.parametrize("budget", [None, "10", 10.0, True, False, np.bool_(True)])
def test_search_budget_must_be_an_integer(poset11, budget):
    with pytest.raises(ValidationError, match="budget must be an integer"):
        global_sections(poset11, budget)


def test_search_budget_takes_numpy_integers(poset11):
    assert global_sections(poset11, np.int64(1000)) == global_sections(poset11, 1000)
    with pytest.raises(SearchBudgetExceeded):
        global_sections(poset11, np.int32(1))


@pytest.mark.parametrize("budget", [-1, np.int64(-5)], ids=repr)
def test_a_negative_search_budget_is_refused(poset11, budget):
    # It reported "exceeded the budget of -1 nodes"; a zero budget stays a
    # SearchBudgetExceeded.
    with pytest.raises(ValidationError, match="budget must be an integer >= 0"):
        global_sections(poset11, budget)
    with pytest.raises(SearchBudgetExceeded):
        global_sections(poset11, 0)


def test_quantity_value_arrow_refuses_a_nan_tau_eig(poset11, maximal_context):
    # NaN would merge the whole spectrum: mu = 2.5 at every context.
    ch = gelfand_spectrum(maximal_context)[0]
    with pytest.raises(ValidationError, match="tau_eig"):
        quantity_value_arrow(poset11, np.diag([1.0, 2.0, 3.0, 4.0]), maximal_context, ch, tau_eig=float("nan"))


def test_the_value_command_and_the_api_cluster_at_the_posets_tau_eig():
    # spin2 with tau_eig = 0.1: the eigenvalues 1 and 1.05 form one cluster
    # of mean 1.025.  The CLI and the poset the problem builds agree on it.
    raw = json.loads((resources.files("toposqt.data") / "spin2.json").read_text(encoding="utf-8"))
    raw["tolerances"]["tau_eig"] = 0.1
    diagonal = [1.0, 1.05, 2.0, 3.0]
    raw["observables"]["A"] = [[[x if i == j else 0.0, 0.0] for j in range(4)] for i, x in enumerate(diagonal)]
    problem = problem_from_dict(raw)
    poset = problem_poset(problem)
    assert poset.tolerances == Tolerances(1e-9, 0.1)
    top = poset.get(poset.ids[0])
    entry = run_command("value", problem, {"observable": "A"})["intervals"][0]
    assert (entry["context"], entry["character_atom"]) == (top.id, 0)
    pair = quantity_value_arrow(poset, np.diag(diagonal), top, gelfand_spectrum(top)[0])
    assert entry["mu"][top.id] == entry["nu"][top.id] == pair.mu[top.id] == pair.nu[top.id] == 1.025
    with pytest.raises(ValidationError, match="tau_eig=1e-08 differs from the tau_eig=0.1"):
        quantity_value_arrow(poset, np.diag(diagonal), top, gelfand_spectrum(top)[0], tau_eig=1e-8)


def test_quantity_value_arrow_checks_the_posets_tolerances_once(poset11, maximal_context, sz, monkeypatch):
    # The poset's pair was checked when it was built; ContextPoset._tolerance
    # compares any given value with it, and no Tolerances is built again.
    import toposqt.operators

    ch = gelfand_spectrum(maximal_context)[0]
    expected = quantity_value_arrow(poset11, sz, maximal_context, ch)

    def refuse(*args, **kwargs):
        raise AssertionError("quantity_value_arrow checked the tolerances again")

    monkeypatch.setattr(toposqt.operators, "Tolerances", refuse)
    assert quantity_value_arrow(poset11, sz, maximal_context, ch, tau_eig=TAU_EIG) == expected


def test_quantity_value_arrow_of_a_foreign_context_is_an_unknown_context(poset11, second_basis, sz):
    with pytest.raises(UnknownContext):
        quantity_value_arrow(poset11, sz, second_basis, gelfand_spectrum(second_basis)[0])


def test_sections_of_overlapping_bases_respect_shared_rays():
    e = np.eye(4, dtype=complex)
    q = np.zeros((4, 4), dtype=complex)
    q[:, 0] = e[0]
    q[:, 1] = (e[1] + e[2]) / np.sqrt(2)
    q[:, 2] = (e[1] - e[2]) / np.sqrt(2)
    q[:, 3] = e[3]
    first = context_from_basis([e[i] for i in range(4)])
    second = context_from_basis([q[:, i] for i in range(4)])
    poset = build_poset([first, second])
    sections = global_sections(poset)
    assert sections
    shared_ray = np.outer(e[0], e[0].conj())
    for section in sections:
        # the shared ray is selected in one maximal context iff in the other
        chose_first = np.allclose(first.atoms[section.assignment[first.id]], shared_ray)
        chose_second = np.allclose(second.atoms[section.assignment[second.id]], shared_ray)
        assert chose_first == chose_second


def test_pseudo_states_separate_states_on_adapted_posets():
    rng = np.random.default_rng(42)
    eye = np.eye(4, dtype=complex)

    def completed_basis(psi):
        columns = [psi]
        for k in range(4):
            v = eye[k]
            for u in columns:
                v = v - u * np.vdot(u, v)
            norm = np.linalg.norm(v)
            if norm > 1e-8:
                columns.append(v / norm)
        return columns[:4]

    distinct = 0
    for _ in range(50):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi, phi = a / np.linalg.norm(a), b / np.linalg.norm(b)
        if abs(abs(np.vdot(psi, phi)) - 1.0) < 1e-9:
            continue
        poset = build_poset(
            [context_from_basis(completed_basis(psi)), context_from_basis(completed_basis(phi))]
        )
        wa = pseudo_state(poset, psi)
        wb = pseudo_state(poset, phi)
        assert wa.subobject != wb.subobject
        distinct += 1
    assert distinct >= 50 * 0.9


def test_truth_value_requires_projector(poset11, sz):
    from toposqt.errors import NotProjector

    psi = np.array([1, 0, 0, 0], dtype=complex)
    with pytest.raises(NotProjector):
        truth_value(poset11, sz, psi)


def test_truth_value_checks_p_before_the_state(poset11, sz, std_projectors):
    from toposqt.errors import NotProjector

    long = np.array([1, 1, 0, 0], dtype=complex)
    with pytest.raises(NotProjector):
        truth_value(poset11, sz, long)
    with pytest.raises(NotUnitVector):
        truth_value(poset11, std_projectors[0], long)


def test_pseudo_state_is_the_daseinised_ray(poset11):
    psi = np.array([0.6, 0.8j, 0, 0])
    ray = np.outer(psi, psi.conj())
    w, d = pseudo_state(poset11, psi), daseinise_proposition(poset11, ray)
    assert type(w) is type(d)
    assert np.array_equal(w.source, ray)
    assert w.subobject == d.subobject
    assert all(np.array_equal(w.per_context_projector[c], d.per_context_projector[c]) for c in poset11.ids)


def test_truth_value_sums_no_projector(poset11, std_projectors, monkeypatch):
    import toposqt.daseinisation
    import toposqt.valuation

    psi = np.array([0.6, 0.8, 0, 0], dtype=complex)
    P = std_projectors[0] + std_projectors[1]
    expected = truth_value(poset11, P, psi)

    def refuse(*args):
        raise AssertionError("truth_value summed a per-context projector")

    monkeypatch.setattr(toposqt.daseinisation, "_approximation", refuse)
    # The poset-wide sums: daseinise_proposition's and pseudo_state's.
    monkeypatch.setattr(toposqt.daseinisation, "_daseinise", refuse)
    monkeypatch.setattr(toposqt.valuation, "_daseinise", refuse)
    assert truth_value(poset11, P, psi) == expected
    assert expected.at(poset11.ids[0]) == principal_sieve(poset11, poset11.ids[0])


def test_quantity_value_input_checks(poset11, maximal_context, sz):
    from toposqt.errors import NotSelfAdjoint, UnknownCharacter
    from toposqt.presheaf import Character

    lam = gelfand_spectrum(maximal_context)[0]
    with pytest.raises(NotSelfAdjoint):
        quantity_value_arrow(poset11, np.triu(np.ones((4, 4))) * 1j, maximal_context, lam)
    stray = Character("ctx-0000000000", 0)
    with pytest.raises(UnknownCharacter):
        quantity_value_arrow(poset11, sz, maximal_context, stray)


_STRINGS = [["a", "b", "c", "d"]] * 4
_STRING_CALLS = {
    "truth_value state": lambda poset, ctx, ch: truth_value(poset, np.eye(4), _STRINGS[0]),
    "pseudo_state": lambda poset, ctx, ch: pseudo_state(poset, _STRINGS[0]),
    "spectral_decomposition": lambda poset, ctx, ch: spectral_decomposition(_STRINGS),
    "daseinise_proposition": lambda poset, ctx, ch: daseinise_proposition(poset, _STRINGS),
    "quantity_value_arrow A": lambda poset, ctx, ch: quantity_value_arrow(poset, _STRINGS, ctx, ch),
    "context_from_basis": lambda poset, ctx, ch: context_from_basis(_STRINGS),
    "find": lambda poset, ctx, ch: poset.find([_STRINGS] * 4),
}


@pytest.mark.parametrize("call", list(_STRING_CALLS.values()), ids=list(_STRING_CALLS))
def test_string_array_data_is_a_validation_error(poset11, maximal_context, call):
    # numpy reads none of these as complex numbers; the library says so.
    with pytest.raises(ValidationError, match="expected numeric array data"):
        call(poset11, maximal_context, gelfand_spectrum(maximal_context)[0])


def test_random_complex_bases_full_pipeline():
    rng = np.random.default_rng(1234)
    gauss = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q1, _ = np.linalg.qr(gauss)
    gauss = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q2, _ = np.linalg.qr(gauss)
    poset = build_poset(
        [context_from_basis([q1[:, i] for i in range(4)]),
         context_from_basis([q2[:, i] for i in range(4)])]
    )
    assert len(poset) == 22  # generic bases share nothing: two disjoint families
    psi = q1[:, 0]
    P = np.outer(q2[:, 1], q2[:, 1].conj())
    element = truth_value(poset, P, psi)
    assert check_global_element(poset, element)
    w = pseudo_state(poset, psi)
    assert is_clopen_subobject(poset, w.subobject)
    A = q1 @ np.diag([3.0, 1.0, 1.0, -2.0]).astype(complex) @ q1.conj().T
    for context in poset:
        for ch in gelfand_spectrum(context):
            pair = quantity_value_arrow(poset, A, context, ch)
            for sub_id in poset.down_ids(context.id):
                assert pair.mu[sub_id] <= pair.nu[sub_id] + 1e-9
    assert len(global_sections(poset)) == 16
