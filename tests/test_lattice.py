import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixtures import (
    CUBE_SLICE_DIAG,
    CUBE_SLICE_K2,
    HYPERCUBE_SLICE,
    PANDIAGONAL_5A,
    PANDIAGONAL_5B,
)
from pandiag.cli import DEFAULT_ORDER_CAPS, ArrayDocument, InputError, document_from_json, document_to_json
from pandiag.lattice import (
    LatinArray,
    SliceSpec,
    Tie,
    build,
    permute_symbols,
    shift_axis,
    slice_values,
    slice_view,
)
from pandiag.magic import MagicArray, compose_checked, decompose
from pandiag.params import ParamVector, scale


def test_build_cell_formula():
    a = build(ParamVector((1, 2), 5))
    assert a.values[2].tolist() == [2, 4, 1, 3, 0]
    assert a.values[1, 4] == (1 + 8) % 5
    c = build(ParamVector((1, 2, 7), 11))
    assert c.values[1, 1, 0] == 3
    assert c.values[2, 3, 4] == (2 + 6 + 28) % 11
    assert c.params == ParamVector((1, 2, 7), 11)


@st.composite
def build_cases(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2, DEFAULT_ORDER_CAPS[d]))
    alphas = tuple(draw(st.integers(1, n - 1)) for _ in range(d))
    return ParamVector(alphas, n), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None, database=None)
@given(build_cases())
@example((ParamVector((1, 1), 2), 0))
@example((ParamVector((1, 1, 1, 1), 2), 0))
@example((ParamVector((100, 99), 101), 0))
@example((ParamVector((1, 2, 100), 101), 0))
@example((ParamVector((40, 39, 2, 1), 41), 0))
def test_build_equals_python_int_sums(case):
    """Every cell of a small grid, and of a large one its edges and a random sample, against Python ints."""
    v, seed = case
    n, d = v.order, v.dimension
    grid = build(v).values
    assert grid.shape == (n,) * d and grid.dtype == np.int64
    if n**d <= 30000:
        cells = list(product(range(n), repeat=d))
    else:
        rng = random.Random(seed)
        cells = list(product(sorted({0, 1, n - 1}), repeat=d))
        cells += [tuple(rng.randrange(n) for _ in range(d)) for _ in range(3000)]
    got = grid[tuple(np.array(cells).T)].tolist()
    assert got == [sum(a * x for a, x in zip(v.alphas, cell)) % n for cell in cells]


@pytest.mark.parametrize("alphas, n", [((1, 2, 4), 101), ((1, 2, 4, 8), 41)])
def test_build_holds_one_grid_and_two_slabs(alphas, n):
    tracemalloc.start()
    try:
        grid = build(ParamVector(alphas, n)).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sub-grid over axes 1.. and one index slab; a second full int64 temporary fails this
    slab = grid.nbytes // n
    assert peak < grid.nbytes + 2 * slab + (64 << 10), f"peak {peak / 2**20:.2f} MiB"


def test_build_rejects_large_order():
    with pytest.raises(ValueError, match="cap"):
        build(ParamVector((1, 2), 103))


def test_latin_array_validation():
    with pytest.raises(ValueError, match="square"):
        LatinArray(np.zeros((3, 4), dtype=int))
    with pytest.raises(ValueError, match="axes"):
        LatinArray(np.zeros((5,), dtype=int))
    with pytest.raises(ValueError, match="lie in"):
        LatinArray(np.full((3, 3), 3))
    with pytest.raises(ValueError, match="params"):
        LatinArray(np.zeros((3, 3), dtype=int), ParamVector((1, 2), 5))


def test_values_are_read_only():
    a = build(ParamVector((1, 2), 5))
    with pytest.raises(ValueError):
        a.values[0, 0] = 3


def handed_over(how):
    """PANDIAGONAL_5A in a caller's array of the given kind, and how the caller then overwrites it."""
    grid = np.array(PANDIAGONAL_5A, dtype=np.int64)
    if how == "frozen view":  # of a buffer the caller keeps writing to
        buf = bytearray(grid.tobytes())
        view = np.frombuffer(buf, dtype=np.int64).reshape(grid.shape)
        view.flags.writeable = False
        return view, lambda: buf.__setitem__(slice(None), bytes(len(buf)))
    if how == "frozen":
        grid.flags.writeable = False
    elif how == "thawed pandiag grid":
        grid = LatinArray(grid).values
        grid.flags.writeable = True

    def overwrite():
        grid.flags.writeable = True
        grid.fill(0)

    return grid, overwrite


@pytest.mark.parametrize("how", ["writable", "frozen", "frozen view", "thawed pandiag grid"])
@pytest.mark.parametrize(
    "hold",
    [LatinArray, MagicArray, lambda grid: ArrayDocument(2, 5, grid, "latin")],
    ids=["latin", "magic", "document"],
)
def test_a_caller_cannot_change_a_held_grid(hold, how):
    grid, overwrite = handed_over(how)
    held = hold(grid)
    overwrite()
    assert not grid.any()
    assert held.values.tolist() == PANDIAGONAL_5A


def test_grids_pandiag_made_are_held_once():
    a = build(ParamVector((1, 2, 7), 11))
    for hold in (LatinArray, MagicArray, lambda g: ArrayDocument(3, 11, g, "latin")):
        assert hold(a.values).values is a.values
    m = compose_checked([ParamVector((1, 2), 5), ParamVector((1, 3), 5)])
    assert ArrayDocument(2, 5, m.values, "magic").values is m.values
    for made in (permute_symbols(a, list(range(10, -1, -1))), shift_axis(a, 1, 3), *decompose(m)):
        assert LatinArray(made.values).values is made.values
    plane = slice_values(a.values, SliceSpec(0, 1, {2: 4}))
    assert ArrayDocument(2, 11, plane, "latin").values is plane
    doc = document_from_json(document_to_json(ArrayDocument(3, 11, a.values, "latin")))
    assert LatinArray(doc.values).values is doc.values


def test_slice_identity_for_square():
    a = build(ParamVector((1, 3), 5))
    grid = slice_view(a, SliceSpec(0, 1, {}))
    assert np.array_equal(grid, a.values)


def test_slice_axis_parallel_matches_fixture():
    a = build(ParamVector((1, 2, 7), 11))
    grid = slice_view(a, SliceSpec(0, 1, {2: 2}))
    assert grid.tolist() == CUBE_SLICE_K2


def test_slice_equal_tie_matches_fixture():
    a = build(ParamVector((1, 2, 7), 11))
    grid = slice_view(a, SliceSpec(0, 2, {1: Tie(0)}))
    assert grid.tolist() == CUBE_SLICE_DIAG
    # tying i to j instead of j to i reads the same diagonal plane
    same = slice_view(a, SliceSpec(1, 2, {0: Tie(1)}))
    assert np.array_equal(same, grid)


def test_slice_anti_tie_matches_fixture():
    h = build(ParamVector((1, 2, 4, 9), 17))
    spec = SliceSpec(2, 3, {0: 2, 1: Tie(2, anti=True)})
    grid = slice_view(h, spec)
    assert grid.tolist() == HYPERCUBE_SLICE


def test_slice_tie_reduces_to_lower_dimension():
    # along i=j the cube of (a1, a2, a3) reads as the square of (a1+a2, a3)
    v = ParamVector((1, 2, 7), 11)
    tied = slice_view(build(v), SliceSpec(0, 2, {1: Tie(0)}))
    reduced = build(ParamVector((3, 7), 11))
    assert np.array_equal(tied, reduced.values)
    # along the anti tie j+k=n-1 an affine offset appears
    anti = slice_view(build(v), SliceSpec(0, 1, {2: Tie(1, anti=True)}))
    base = build(ParamVector((1, (2 - 7) % 11), 11))
    assert np.array_equal(anti, (base.values + 7 * 10) % 11)


def test_slice_validation_errors():
    a = build(ParamVector((1, 2, 7), 11))
    with pytest.raises(ValueError, match="differ"):
        slice_view(a, SliceSpec(0, 0, {2: 1}))
    with pytest.raises(ValueError, match="exactly once"):
        slice_view(a, SliceSpec(0, 1, {}))
    with pytest.raises(ValueError, match="exactly once"):
        slice_view(a, SliceSpec(0, 1, {1: 2, 2: 3}))
    with pytest.raises(ValueError, match="free axis"):
        slice_view(a, SliceSpec(0, 1, {2: Tie(2)}))
    with pytest.raises(ValueError, match="outside"):
        slice_view(a, SliceSpec(0, 1, {2: 11}))


@st.composite
def slice_cases(draw):
    """A value grid with distinct cells and any valid SliceSpec of it, d=3 or d=4.

    The grid is sometimes a transposed or reversed view, which is not
    C-contiguous, so the slice must follow its indices, not its memory.
    """
    d = draw(st.sampled_from((3, 4)))
    n = draw(st.integers(2, 6))
    row, col, *bound = draw(st.permutations(range(d)))
    binding = st.one_of(
        st.integers(0, n - 1),
        st.builds(Tie, st.sampled_from((row, col)), st.booleans()),
    )
    fixed = {axis: draw(binding) for axis in bound}
    grid = np.arange(n**d).reshape((n,) * d)
    views = (grid, grid.T, grid[::-1, ..., ::-1])
    return views[draw(st.integers(0, 2))], SliceSpec(row, col, fixed)


@settings(max_examples=60, deadline=None, database=None)
@given(slice_cases())
def test_slice_values_matches_cell_loop(case):
    values, spec = case
    n = values.shape[0]
    grid = slice_values(values, spec)
    for r in range(n):
        for c in range(n):
            cell = [0] * values.ndim
            cell[spec.row_axis], cell[spec.col_axis] = r, c
            for axis, binding in spec.fixed.items():
                if isinstance(binding, Tie):
                    x = r if binding.axis == spec.row_axis else c
                    cell[axis] = n - 1 - x if binding.anti else x
                else:
                    cell[axis] = binding
            assert grid[r, c] == values[tuple(cell)]


BAD_GRIDS = [
    pytest.param(np.zeros(5, dtype=int), id="one-axis"),
    pytest.param(np.zeros((2,) * 5, dtype=int), id="five-axes"),
    pytest.param(np.zeros((3, 4), dtype=int), id="not-square"),
    pytest.param(np.zeros((1, 1), dtype=int), id="order-1"),
    pytest.param(np.zeros((102, 102), dtype=int), id="order-102"),
    pytest.param(np.full((3, 3), 9), id="above-range"),
    pytest.param(np.full((3, 3), -1), id="below-range"),
    pytest.param(np.array([[0, 2**70], [1, 0]], dtype=object), id="beyond-int64"),
]


@pytest.mark.parametrize("kind, array_type", [("latin", LatinArray), ("magic", MagicArray)])
@pytest.mark.parametrize("grid", BAD_GRIDS)
def test_bad_grids_rejected_by_every_array_type(grid, kind, array_type):
    with pytest.raises(ValueError):
        array_type(grid)
    with pytest.raises(InputError):
        ArrayDocument(grid.ndim, grid.shape[0], grid, kind)


def test_permute_symbols_fixture_pair():
    a = LatinArray(np.array(PANDIAGONAL_5A))
    shifted = permute_symbols(a, [1, 2, 3, 4, 0])
    assert shifted.values.tolist() == PANDIAGONAL_5B


def test_permute_symbols_drops_provenance_and_validates():
    a = build(ParamVector((1, 2), 5))
    out = permute_symbols(a, [4, 3, 2, 1, 0])
    assert out.params is None
    with pytest.raises(ValueError, match="bijection"):
        permute_symbols(a, [0, 1, 2, 3])
    with pytest.raises(ValueError, match="bijection"):
        permute_symbols(a, [0, 0, 1, 2, 3])


def test_permute_symbols_composes():
    rng = random.Random(31)
    a = build(ParamVector((1, 2, 7), 11))
    p = list(range(11))
    q = list(range(11))
    rng.shuffle(p)
    rng.shuffle(q)
    twice = permute_symbols(permute_symbols(a, p), q)
    combined = [q[p[i]] for i in range(11)]
    assert np.array_equal(twice.values, permute_symbols(a, combined).values)


def test_shift_axis_is_symbol_shift_of_linear_form():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.choice([5, 7, 11])
        d = rng.choice([2, 3])
        v = ParamVector(tuple(rng.randrange(1, n) for _ in range(d)), n)
        a = build(v)
        axis = rng.randrange(d)
        amount = rng.randrange(-2 * n, 2 * n)
        shifted = shift_axis(a, axis, amount)
        expected = (a.values + amount * v.alphas[axis]) % n
        assert np.array_equal(shifted.values, expected)


def test_shift_axis_wraps_and_validates():
    a = build(ParamVector((1, 2), 5))
    assert np.array_equal(shift_axis(a, 0, 5).values, a.values)
    assert np.array_equal(shift_axis(a, 1, -1).values, shift_axis(a, 1, 4).values)
    with pytest.raises(ValueError, match="axis"):
        shift_axis(a, 2, 1)


def test_build_of_scaled_vector_is_symbol_permutation():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.choice([5, 7, 11, 13])
        d = rng.choice([2, 3])
        v = ParamVector(tuple(rng.randrange(1, n) for _ in range(d)), n)
        k = rng.randrange(1, n)
        table = [(k * x) % n for x in range(n)]
        lhs = build(scale(v, k)).values
        rhs = permute_symbols(build(v), table).values
        assert np.array_equal(lhs, rhs)
