"""Problem-file ingestion, validation, serialization round trips."""

from __future__ import annotations

import copy
import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toposqt.cli import render_json, run_command
from toposqt.errors import ParseError, ToposError, ValidationError
from toposqt.problems import (
    load_problem,
    problem_from_dict,
    problem_poset,
    resolve_proposition,
    serialize_problem,
)
from toposqt.valuation import pseudo_state


def _data_path(name: str):
    return resources.files("toposqt.data") / name


@pytest.fixture(scope="module")
def spin2():
    with resources.as_file(_data_path("spin2.json")) as path:
        return load_problem(path)


def test_spin2_contents(spin2):
    assert spin2.dim == 4
    assert len(spin2.bases) == 1
    assert len(spin2.observables) == 1
    assert set(spin2.states) == {"psi1", "psi2"}
    assert np.allclose(spin2.states["psi1"], [1, 0, 0, 0])
    assert np.allclose(spin2.observables["Sz"], np.diag([2.0, 0.0, 0.0, -2.0]))


def test_spin2_propositions_resolve(spin2):
    P = resolve_proposition(spin2, "Sz_in_1.3_2.3")
    assert np.allclose(P, np.diag([1.0, 0.0, 0.0, 0.0]))
    P = resolve_proposition(spin2, "Sz_in_-3_-1")
    assert np.allclose(P, np.diag([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValidationError):
        resolve_proposition(spin2, "nonexistent")


def test_spin2_poset(spin2):
    assert len(problem_poset(spin2)) == 11


def test_minimal_problem():
    problem = problem_from_dict(
        {"dim": 2, "bases": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}
    )
    poset = problem_poset(problem)
    assert len(poset) == 1
    assert next(iter(poset)).n_atoms == 2


def test_non_orthonormal_basis_rejected():
    s = 1.0 / np.sqrt(2)
    with pytest.raises(ValidationError, match=r"^bases\[0\]: basis not orthonormal"):
        problem_from_dict(
            {
                "dim": 2,
                "bases": [[[[1.0, 0.0], [0.0, 0.0]], [[s, 0.0], [s, 0.0]]]],
            }
        )


_SLACK = 1e-8  # beyond 1e-9, within the file's tau of 1e-6


@pytest.mark.parametrize(
    "extra",
    [
        {"bases": [[[[1.0, 0.0], [0.0, 0.0]], [[_SLACK, 0.0], [1.0, 0.0]]]]},
        {"states": {"s": [[1.0 + _SLACK, 0.0], [0.0, 0.0]]}},
    ],
    ids=["basis-off-orthonormal", "state-off-unit"],
)
def test_load_applies_the_library_tolerance(tmp_path, extra):
    raw = {
        "dim": 2,
        "bases": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
        "tolerances": {"tau": 1e-6},
        **extra,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(raw))
    problem = load_problem(path)
    # the library accepts later what the loader accepted
    poset = problem_poset(problem)
    for psi in problem.states.values():
        pseudo_state(poset, psi, problem.tolerances.tau)


def test_parse_error_has_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 4,\n  broken')
    with pytest.raises(ParseError, match="line 2"):
        load_problem(bad)


def test_problem_must_be_an_object():
    with pytest.raises(ParseError, match="must contain a JSON object"):
        problem_from_dict([{"dim": 2}])


def test_malformed_pair_rejected():
    with pytest.raises(ParseError):
        problem_from_dict({"dim": 2, "bases": [[[[1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]})


def test_unknown_observable_reference_rejected():
    with pytest.raises(ValidationError, match="unknown observable"):
        problem_from_dict(
            {
                "dim": 2,
                "bases": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
                "propositions": {"p": {"observable": "missing", "interval": [0, 1]}},
            }
        )


def test_non_unit_state_rejected():
    with pytest.raises(ValidationError, match="unit norm"):
        problem_from_dict(
            {
                "dim": 2,
                "bases": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
                "states": {"s": [[2.0, 0.0], [0.0, 0.0]]},
            }
        )


def test_interval_bounds_checked():
    with pytest.raises(ValidationError, match="lo > hi"):
        problem_from_dict(
            {
                "dim": 2,
                "bases": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
                "observables": {"a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]},
                "propositions": {"p": {"observable": "a", "interval": [2, 1]}},
            }
        )


def test_round_trip(spin2, tmp_path):
    text = serialize_problem(spin2)
    path = tmp_path / "roundtrip.json"
    path.write_text(text)
    again = load_problem(path)
    assert again == spin2
    assert serialize_problem(again) == text


def test_problems_differing_in_one_entry_compare_unequal():
    one = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    other = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    base = {
        "dim": 2,
        "bases": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
        "observables": {"a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]},
    }
    with_set = problem_from_dict(dict(base, projector_sets=[[one]]))
    assert with_set == problem_from_dict(dict(base, projector_sets=[[one]]))
    assert with_set != problem_from_dict(dict(base, projector_sets=[[other]]))
    # the same projection, once given directly and once as an interval
    by_projector = problem_from_dict(dict(base, propositions={"p": {"projector": one}}))
    by_interval = problem_from_dict(
        dict(base, propositions={"p": {"observable": "a", "interval": [0.5, 1.5]}})
    )
    assert np.allclose(resolve_proposition(by_projector, "p"), resolve_proposition(by_interval, "p"))
    assert by_projector != by_interval


def test_ks18_file_loads():
    with resources.as_file(_data_path("ks18.json")) as path:
        problem = load_problem(path)
    assert problem.dim == 4
    assert len(problem.bases) == 9
    rays = {
        tuple(np.round(v, 9)) for basis in problem.bases for v in basis
    }
    assert len(rays) == 18


SPIN2_RAW = json.loads(_data_path("spin2.json").read_text(encoding="utf-8"))

# Arbitrary JSON, with the values a loader most easily mistakes for numbers.
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.floats(),
    st.integers(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), 2**64]),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _mutated_spin2(draw):
    # Walk from the top of the spin2 dict to some key or index, then drop it
    # or replace its value.
    raw = copy.deepcopy(SPIN2_RAW)
    parent, key = raw, draw(st.sampled_from(sorted(raw)))
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
        parent = parent[key]
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict) else range(len(parent))))
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(_JSON)
    return raw


# The square of _HUGE overflows: the loader's checks then refuse the entry
# without an overflow warning.
_HUGE = 1.3407807929942597e154


@settings(max_examples=60, deadline=None)
@given(_mutated_spin2())
@example({**SPIN2_RAW, "dim": 10**400})
@example({**SPIN2_RAW, "bases": [[[[_HUGE, 0.0]] * 4] * 4]})
@example({**SPIN2_RAW, "observables": {"Sz": [[[0.0, _HUGE]] * 4] * 4}})
def test_a_mutated_problem_gives_a_report_or_a_topos_error(raw):
    try:
        report = run_command("contexts", problem_from_dict(raw), {})
    except ToposError:
        return
    json.loads(render_json(report))
