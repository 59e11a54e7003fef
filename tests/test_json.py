"""The report writer and the [re, im] encoding of vectors and matrices."""

from __future__ import annotations

import json
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toposqt._json import _matrix_text, dump, dumps, matrix_to_json, vector_to_json


def _stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _chunks(obj) -> list[str]:
    chunks: list[str] = []
    dump(obj, chunks.append)
    return chunks


def _written(obj) -> str:
    # The text of dumps, which must be the chunks of dump joined.
    text = dumps(obj)
    assert "".join(_chunks(obj)) == text
    return text


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]),
)
_LEAVES = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-(2**64)),
    st.booleans(),
    st.none(),
    st.text(st.characters(codec=None, exclude_categories=())),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(st.characters(codec=None, exclude_categories=()), max_size=4), children, max_size=5),
    ),
    max_leaves=30,
)


class _Level(IntEnum):
    LOW = 1


@settings(max_examples=300, deadline=None)
@given(_VALUES)
@example([])
@example({})
@example([[], {}, [[]], {"": {}}, ()])
@example({"\ud800": "\udfff", "é\x00\x1f ": "\U0001f600", "b": 1, "a": -0.0})
@example([float("nan"), float("inf"), -float("inf"), 5e-324, 1e308, 2**64, -(2**64) - 1, True, False, None])
@example([np.float64(0.1), np.float64("nan"), np.float64(-0.0), _Level.LOW, (1, (2.5,))])
def test_the_writer_matches_indented_sorted_json(value):
    assert _written(value) == _stdlib(value)


#: Lists of rows of [re, im] pairs: the shape whose text the writer reuses.
_MATRICES = st.lists(st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=3), max_size=3)


@st.composite
def _shared_lists(draw):
    # One list object placed at several positions and depths of the value,
    # beside a generated value that may hold it again deeper down.
    shared = draw(st.one_of(_MATRICES, st.lists(_VALUES, max_size=4)))
    value = draw(
        st.recursive(
            st.one_of(st.just(shared), _LEAVES),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=3), children, max_size=4),
            ),
            max_leaves=12,
        )
    )
    return draw(st.permutations([shared, [shared], {"k": shared, "v": [value, shared]}, value]))


_M = [[[0.1, -0.0], [1.0, 2.5]]]


@settings(max_examples=200, deadline=None)
@given(_shared_lists())
@example([[]])
@example([[[]], [[1.0]]])
@example([_M, [_M], {"k": _M, "j": [_M, _M]}])
def test_a_list_met_again_is_written_as_the_stdlib_writes_it(value):
    assert _written(value) == _stdlib(value)


#: Finite floats, and entries a matrix of finite floats may not hold.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ODD_ENTRIES = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    _FINITE.map(np.float64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
)


@st.composite
def _near_matrices(draw):
    # A rows x cols matrix of [re, im] pairs of finite floats, then one change
    # that a matrix written from the template may not have: a ragged row, a
    # pair of length 1 or 3, a tuple row or pair, an entry that is no finite
    # float of exact type float, or entries near 1e308 whose sum overflows.
    # Unchanged matrices (and -0.0 among finite floats) stay on the template.
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    floats = _FINITE
    if draw(st.booleans()):
        # Any two of one sign sum past the largest float.
        sign = draw(st.sampled_from([1.0, -1.0]))
        floats = st.floats(9e307, 1.7e308).map(lambda x: sign * x)
    matrix = [[[draw(floats), draw(floats)] for _ in range(cols)] for _ in range(rows)]
    i, j, k = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)), draw(st.integers(0, 1))
    change = draw(st.sampled_from(["none", "ragged", "short pair", "long pair", "tuple row", "tuple pair", "entry"]))
    if change == "ragged":
        if draw(st.booleans()) or cols == 1:
            matrix[i].append([draw(_FINITE), draw(_FINITE)])
        else:
            matrix[i].pop()
    elif change == "short pair":
        matrix[i][j] = matrix[i][j][:1]
    elif change == "long pair":
        matrix[i][j].append(draw(_FINITE))
    elif change == "tuple row":
        matrix[i] = tuple(matrix[i])
    elif change == "tuple pair":
        matrix[i][j] = tuple(matrix[i][j])
    elif change == "entry":
        matrix[i][j][k] = draw(_ODD_ENTRIES)
    return matrix


_BIG = [[[1e308, 1e308], [1e308, 0.5]]]


@pytest.mark.parametrize(
    "matrix,templated",
    [
        ([[[0.1, -0.0], [1.0, 2.5]]], True),
        ([[[0.1, -0.0]], [[1.0, 2.5], [3.0, 4.0]]], False),
        ([[[0.1, -0.0]], [[1.0]]], False),
        ([[[0.1, -0.0]], ([1.0, 2.5],)], False),
        ([[[0.1, -0.0]], [(1.0, 2.5)]], False),
        ([[[0.1, -0.0]], [[1, 2.5]]], False),
        ([[[0.1, -0.0]], [[np.float64(1.0), 2.5]]], False),
        ([[[0.1, float("nan")]]], False),
        (_BIG, False),
    ],
)
def test_only_a_matrix_of_finite_floats_in_even_rows_takes_the_template(matrix, templated):
    # The template path declines, and the general path writes, the rest.
    assert (_matrix_text(matrix, "") is not None) is templated
    assert _written(matrix) == _stdlib(matrix)


@settings(max_examples=300, deadline=None)
@given(_near_matrices())
@example([[[0.1, -0.0]], [[2.5, 1.0]]])
@example([[[0.1, -0.0], [1.0, 2.0]], [[2.5, 1.0]]])
@example([[[0.1]], [[2.5, 1.0, 3.0]]])
@example([[[0.1, 1.0]], ([2.5, 1.0],)])
@example([[(0.1, 1.0)], [[2.5, 1.0]]])
@example([[[0.1, 1]], [[True, np.float64(2.5)]]])
@example([[[0.1, float("nan")]], [[float("inf"), -float("inf")]]])
@example(_BIG)
def test_a_near_matrix_is_written_as_the_stdlib_writes_it(matrix):
    # Once alone, and once more as one object at two indents.
    assert _written(matrix) == _stdlib(matrix)
    value = {"a": matrix, "b": [[matrix], matrix]}
    assert _written(value) == _stdlib(value)


class _Str(str):
    pass


#: Lists of [str, str] pairs, the shape the writer fills from a pair template.
_PAIRS = st.lists(st.lists(st.text(max_size=6), min_size=2, max_size=2), min_size=1, max_size=8)
#: Entries that are no [str, str] pair of exact type str.
_NEAR_PAIRS = st.one_of(
    st.lists(st.text(max_size=3), max_size=3).filter(lambda pair: len(pair) != 2),
    st.tuples(st.text(max_size=3), st.one_of(st.integers(), st.none(), st.floats(), st.just([]))).map(list),
    st.tuples(st.text(max_size=3), st.text(max_size=3).map(_Str)).map(list),
    st.tuples(st.text(max_size=3), st.text(max_size=3)),
)


@st.composite
def _pair_lists(draw):
    # A list of pairs, then maybe one entry that is no pair, at any position,
    # the whole placed in a document beside another.
    pairs = draw(_PAIRS)
    if draw(st.booleans()):
        pairs.insert(draw(st.integers(0, len(pairs))), draw(_NEAR_PAIRS))
    if draw(st.booleans()):
        pairs.reverse()
    return draw(st.sampled_from([pairs, {"leq": pairs, "count": len(pairs)}, [pairs, [pairs]]]))


@settings(max_examples=300, deadline=None)
@given(_pair_lists())
@example([["a", "b"], ["c", "d"]])
@example([["a", "b"], ["c"]])
@example([["a", "b"], ["c", 1]])
@example([["a", "b"], ["c", _Str("d")]])
@example([["a", "b"], ("c", "d")])
@example([[_Str("a"), "b"], ["c", "d"]])
@example([["\u00e9\ud800", "\x00"], ["\U0001f600", "\""]])
def test_a_list_of_pairs_is_written_as_the_stdlib_writes_it(value):
    assert _written(value) == _stdlib(value)


def test_a_long_list_of_pairs_and_a_long_report_go_out_in_several_chunks():
    # More pairs than one piece holds, and more parts than one chunk holds.
    pairs = [[f"ctx-{i:010x}", f"ctx-{i + 1:010x}"] for i in range(4500)]
    value = {"leq": pairs, "ints": list(range(5000)), "rows": [[{"x": [i]}] for i in range(3000)]}
    chunks = _chunks(value)
    assert len(chunks) > 3
    assert "".join(chunks) == dumps(value) == _stdlib(value)


def test_matrices_met_again_after_many_others_are_written_as_the_stdlib_writes_them():
    # More distinct matrices than the writer keeps the text of, each met again
    # after all the others, and the first few met again at once.
    matrices = [[[[float(i), -0.5]], [[0.25, float(-i)]]] for i in range(600)]
    value = [matrices, matrices[:5], matrices, {"again": matrices[::-1]}]
    assert _written(value) == _stdlib(value)


@pytest.mark.parametrize(
    "value",
    [{1: "a"}, {None: 0}, {1.5: 0}, {True: 0}, {"x": {2: 3}}, [{"ok": [{(1, 2): 0}]}]],
)
def test_a_key_that_is_not_a_string_is_a_type_error(value):
    with pytest.raises(TypeError):
        dumps(value)


@pytest.mark.parametrize("value", [object(), np.int64(1), 1j, {"a": {1, 2}}, [b"bytes"]])
def test_a_value_json_cannot_write_is_a_type_error(value):
    with pytest.raises(TypeError):
        _stdlib(value)
    with pytest.raises(TypeError):
        dumps(value)


# -- [re, im] encoding ------------------------------------------------------------


def _per_entry(z, ndigits):
    re, im = float(z.real), float(z.imag)
    if ndigits is not None:
        re, im = round(re, ndigits) + 0.0, round(im, ndigits) + 0.0
    return [re, im]


def _matrix_per_entry(A, ndigits):
    return [[_per_entry(z, ndigits) for z in row] for row in np.asarray(A, dtype=complex)]


def _vector_per_entry(v, ndigits):
    return [_per_entry(z, ndigits) for z in np.asarray(v, dtype=complex).reshape(-1)]


#: Doubles nearest a 12-digit rounding tie; on the first four ``np.round``
#: rounds the other way from ``round``.
_TIES = [float(s) for s in (
    "0.8353515329235", "0.5329790685565", "1.0000000000005", "0.9999999999995",
    "0.0000000000005", "0.0000000000015", "0.1234567890125",
)]


def _matrices(rng):
    for dim in range(1, 7):
        for _ in range(5):
            yield rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            yield (rng.integers(0, 10**12, (dim, dim)) + 0.5) / 1e12 * (1 - 2j)
    ties = np.array(_TIES + [-t for t in _TIES] + [0.0, -0.0, -1e-15, -4.9e-13, 1e-300])
    yield np.resize(ties, (5, 5)) + 1j * np.resize(ties[::-1], (5, 5))
    yield np.array([[-0.0 - 0.0j, -1e-15 + 1e-14j], [0.0 - 1e-13j, -4.9e-13 - 0.0j]])
    yield np.eye(3)
    yield np.array([[1]])


@pytest.mark.parametrize("ndigits", [None, 12])
def test_rowwise_encoding_equals_the_per_entry_form(ndigits):
    for A in _matrices(np.random.default_rng(20261017)):
        encoded = matrix_to_json(A, ndigits)
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(encoded) == repr(_matrix_per_entry(A, ndigits))
        assert all(type(x) is float for row in encoded for pair in row for x in pair)
        for v in (A[0], A.reshape(-1)):
            assert repr(vector_to_json(v, ndigits)) == repr(_vector_per_entry(v, ndigits))


def test_rounding_is_correctly_rounded_not_numpy_rounding():
    # The first tie is one on which np.round and round disagree.
    assert round(_TIES[0], 12) != float(np.round(_TIES[0], 12))
    assert matrix_to_json(np.array([[_TIES[0]]]), 12) == [[[round(_TIES[0], 12), 0.0]]]


_SPECIAL = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
            2.0**40, -(2.0**40), 2.0**53 + 2, 1e15 + 0.5]


@st.composite
def _rounding_cases(draw):
    # ndigits (mostly 0-15, sometimes None or outside the range in which
    # 10**ndigits is a double) and a stack of two matrices of one shape whose
    # entries include the doubles next to (k + 0.5) / 10**n.
    ndigits = draw(st.one_of(st.integers(0, 15), st.none(), st.sampled_from([-2, 16, 22, 23, 30])))
    n = ndigits if ndigits is not None and 0 <= ndigits <= 15 else draw(st.integers(0, 15))

    @st.composite
    def near_tie(draw):
        x = (draw(st.integers(-(10**17), 10**17)) + 0.5) / 10.0**n
        for _ in range(draw(st.integers(0, 2))):
            x = np.nextafter(x, draw(st.sampled_from([-np.inf, np.inf])))
        return float(x)

    entries = st.one_of(st.floats(), st.sampled_from(_SPECIAL), near_tie(), st.sampled_from(_TIES))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.lists(entries, min_size=4 * rows * cols, max_size=4 * rows * cols))
    z = np.empty((2, rows, cols), dtype=complex)
    z.real.flat, z.imag.flat = parts[::2], parts[1::2]
    return ndigits, z


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_rounding_cases())
def test_stacked_rounding_equals_the_per_entry_form(case):
    ndigits, stack = case
    per_matrix = [_matrix_per_entry(A, ndigits) for A in stack]
    for A, expected in zip(stack, per_matrix):
        assert repr(matrix_to_json(A, ndigits)) == repr(expected)
        assert repr(vector_to_json(A, ndigits)) == repr(_vector_per_entry(A, ndigits))
    assert repr(matrix_to_json(stack, ndigits)) == repr(per_matrix)
    deeper = np.stack([stack, stack[::-1]])
    assert repr(matrix_to_json(deeper, ndigits)) == repr([per_matrix, per_matrix[::-1]])
