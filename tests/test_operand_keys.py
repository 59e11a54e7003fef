"""Key first, check on a miss.

A value or projection call converts its operand once and keys it by the
shape and bytes of the complex array.  The full array check (entry bound,
shape, self-adjoint or projection test) runs only when the poset's map of
atom bounds, or ``require_projector``'s slot, does not hold that key.  Every
case here gives the result or the error of a call that meets the operand for
the first time, and an operand that fails is kept nowhere.
"""

from __future__ import annotations

from importlib import resources

import numpy as np
import pytest

import toposqt.operators as operators
from toposqt._json import brief_repr
from toposqt.daseinisation import daseinise_proposition, inner_daseinise_projection
from toposqt.errors import DimensionMismatch, NotProjector, NotSelfAdjoint, ToposError, ValidationError
from toposqt.presheaf import gelfand_spectrum
from toposqt.problems import load_problem, problem_poset
from toposqt.valuation import quantity_value_arrow, quantity_value_arrows, truth_value


def _ks18():
    return problem_poset(load_problem(resources.files("toposqt.data") / "ks18.json"))


def _symmetric(seed: int) -> np.ndarray:
    X = np.random.default_rng(seed).normal(size=(4, 4))
    return X + X.T


def _ray_projection(seed: int) -> np.ndarray:
    v = np.random.default_rng(seed).normal(size=4)
    return np.outer(v, v) / v.dot(v)


_PSI = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)


def _top(poset):
    return poset.get(poset.ids[0])


# Each call takes a poset and an operand and gives a result that compares
# with ==; the operands are real, so that float64 forms of them exist.
_VALUE_CALLS = {
    "quantity_value_arrow": lambda poset, A: quantity_value_arrow(
        poset, A, _top(poset), gelfand_spectrum(_top(poset))[1], poset.tolerances.tau, poset.tolerances.tau_eig
    ),
    "quantity_value_arrows": lambda poset, A: quantity_value_arrows(poset, A),
}
_PROJECTION_CALLS = {
    "truth_value": lambda poset, P: truth_value(poset, P, _PSI, poset.tolerances.tau),
    "daseinise_proposition": lambda poset, P: (
        lambda d: (d.subobject, [(k, v.tobytes()) for k, v in d.per_context_projector.items()])
    )(daseinise_proposition(poset, P)),
    "inner_daseinise_projection": lambda poset, P: [
        inner_daseinise_projection(P, c, poset.tolerances.tau).tobytes() for c in poset
    ],
}
_CALLS = {**_VALUE_CALLS, **_PROJECTION_CALLS}
# Per call: two valid operands and one that fails its full check.
_OPERANDS = {
    **{name: (_symmetric(1), _symmetric(2), np.triu(np.ones((4, 4))) * 1j) for name in _VALUE_CALLS},
    **{name: (_ray_projection(3), np.diag([0.0, 0.0, 1.0, 1.0]), np.diag([2.0, 0.0, 0.0, 0.0]))
       for name in _PROJECTION_CALLS},
}
_FAILURE = {**{name: NotSelfAdjoint for name in _VALUE_CALLS}, **{name: NotProjector for name in _PROJECTION_CALLS}}


@pytest.fixture(autouse=True)
def _empty_slot(monkeypatch):
    # Each test starts with an empty projection slot and leaves the one it found.
    monkeypatch.setattr(operators, "_last_projector", None)


def _outcome(name, poset, X):
    # The call's result, or its error's type and text.
    try:
        return _CALLS[name](poset, X)
    except ToposError as error:
        return type(error), str(error)


def _first_meeting(name, X):
    # The outcome on a fresh poset with an empty slot: every check runs.
    slot, operators._last_projector = operators._last_projector, None
    try:
        return _outcome(name, _ks18(), np.array(X, copy=True) if isinstance(X, np.ndarray) else X)
    finally:
        operators._last_projector = slot


def _kept(poset):
    # What the poset's map and the slot hold, by key and entry object.
    return list(poset._quantity_bounds.items()), operators._last_projector


@pytest.mark.parametrize("name", _CALLS)
def test_an_array_changed_in_place_between_two_calls_is_a_new_operand(name):
    poset = _ks18()
    X, Y, _ = _OPERANDS[name]
    X = X.copy()
    before = _outcome(name, poset, X)
    assert before == _first_meeting(name, X)
    X[:] = Y
    assert _outcome(name, poset, X) == _first_meeting(name, Y) != before


@pytest.mark.parametrize("name", _CALLS)
def test_a_nan_written_in_place_after_a_hit_fails_and_is_kept_nowhere(name):
    poset = _ks18()
    X = _OPERANDS[name][0].astype(complex)
    expected = _first_meeting(name, X)
    assert _outcome(name, poset, X) == _outcome(name, poset, X) == expected  # a miss, then a hit
    kept = _kept(poset)
    X[0, 0] = np.nan
    for _ in range(2):
        with pytest.raises(ValidationError, match="^expected numeric array data"):
            _CALLS[name](poset, X)
        assert _kept(poset) == kept
    X[0, 0] = _OPERANDS[name][0][0, 0]
    assert _outcome(name, poset, X) == expected


class _Float(float):
    pass


@pytest.mark.parametrize("name", _CALLS)
def test_equal_converted_bytes_in_any_form_are_one_operand(name):
    # A list, a float64 array, a Fortran-ordered array and float-subclass
    # entries all convert to the complex array's bytes: each gives its
    # result and adds no key to the poset's map.
    poset = _ks18()
    X = _OPERANDS[name][0]
    expected = _first_meeting(name, X)
    assert _outcome(name, poset, X.astype(complex)) == expected
    keys = list(poset._quantity_bounds)
    forms = [X.tolist(), X, np.asfortranarray(X), np.asfortranarray(X.astype(complex)),
             [[_Float(x) for x in row] for row in X.tolist()]]
    for form in forms:
        assert _first_meeting(name, form) == expected
        assert _outcome(name, poset, form) == expected
        assert list(poset._quantity_bounds) == keys


@pytest.mark.parametrize("name", _CALLS)
@pytest.mark.parametrize("data", [[["a", "b"], ["c", "d"]], [[1.0, 2.0], [3.0]], object(), {"a": 1}], ids=repr)
def test_data_numpy_cannot_convert_gives_the_array_data_error(name, data):
    poset = _ks18()
    _outcome(name, poset, _OPERANDS[name][0])  # a kept operand first
    text = f"expected numeric array data, finite and at most 1e+60, got {brief_repr(data)}"
    assert _outcome(name, poset, data) == _first_meeting(name, data) == (ValidationError, text)


@pytest.mark.parametrize("name", _CALLS)
def test_an_operand_that_fails_is_stored_in_neither_the_map_nor_the_slot(name):
    poset = _ks18()
    good, _, bad = _OPERANDS[name]
    expected = _outcome(name, poset, good)
    kept = _kept(poset)
    failing = [(bad, _FAILURE[name]), (np.full((4, 4), np.inf), ValidationError), (np.ones((4, 3)), DimensionMismatch)]
    if name in _VALUE_CALLS:  # fails at the seed table, after its clusters
        failing.append((np.eye(3), DimensionMismatch))
    for operand, error in failing:
        for _ in range(2):
            with pytest.raises(error):
                _CALLS[name](poset, operand)
            assert _kept(poset) == kept
    assert _outcome(name, poset, good) == expected


def _count_bound_checks(monkeypatch) -> list:
    # Each full entry-bound test of array data appends the shape it checked.
    checks = []
    bounded = operators._bounded

    def counted(A, data):
        checks.append(A.shape)
        return bounded(A, data)

    monkeypatch.setattr(operators, "_bounded", counted)
    return checks


def test_a_warm_value_sweep_checks_its_operand_once_per_miss(monkeypatch):
    poset = _ks18()
    tau, tau_eig = poset.tolerances.tau, poset.tolerances.tau_eig
    A, B, _ = _OPERANDS["quantity_value_arrow"]
    characters = [(c, ch) for c in poset for ch in gelfand_spectrum(c)]
    checks = _count_bound_checks(monkeypatch)
    first = [quantity_value_arrow(poset, A, c, ch, tau, tau_eig) for c, ch in characters]
    assert len(checks) == 1  # the first character's miss
    assert [quantity_value_arrow(poset, A, c, ch, tau, tau_eig) for c, ch in characters] == first
    assert len(checks) == 1
    quantity_value_arrow(poset, B, *characters[0])
    assert len(checks) == 2
    assert quantity_value_arrows(poset, A) == dict(zip([ch for _, ch in characters], first)) and len(checks) == 2


def test_a_warm_inner_sweep_checks_its_projection_once_per_miss(monkeypatch):
    poset = _ks18()
    tau = poset.tolerances.tau
    P, Q, _ = _OPERANDS["inner_daseinise_projection"]
    checks = _count_bound_checks(monkeypatch)
    first = [inner_daseinise_projection(P, c, tau).tobytes() for c in poset]
    assert len(checks) == 1
    assert [inner_daseinise_projection(P, c, tau).tobytes() for c in poset] == first
    assert len(checks) == 1
    inner_daseinise_projection(Q, _top(poset), tau)
    inner_daseinise_projection(P, _top(poset), tau)
    assert len(checks) == 3  # the slot holds one projection: Q, then P again


@pytest.mark.parametrize("value", [np.float64(1e-9), _Float(1e-9), 1e-9], ids=repr)
def test_a_poset_tolerance_equal_to_the_posets_is_taken_in_any_real_form(value):
    poset = _ks18()
    assert poset._tolerance(value, poset.tolerances.tau_eig) is poset.tolerances


@pytest.mark.parametrize("value", [np.float64(np.nan), float("nan"), True, "1e-9", np.array(1e-9), 1e-8], ids=repr)
def test_a_poset_tolerance_that_is_not_the_posets_float_takes_the_full_rule(value):
    poset = _ks18()
    with pytest.raises(ValidationError, match=r"^tau=.* differs from the tau=1e-09 the poset was built with$"):
        poset._tolerance(value)
