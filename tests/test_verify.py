import hashlib
from itertools import combinations
from math import prod

import numpy as np
import pytest

from fixtures import (
    DIAGONAL_4,
    LATIN_3,
    MAGIC_4,
    MAGIC_5,
    MAGIC_5_BROKEN_DIAGONALS,
    PANDIAGONAL_5A,
    PANDIAGONAL_5B,
)
from pandiag.lattice import LatinArray, SliceSpec, Tie, build, slice_values
from pandiag.magic import MagicArray
from pandiag.params import DIRECTIONS, ParamVector, check
from pandiag import verify
from pandiag.verify import (
    Line,
    _kept_kinds,
    _line_cover,
    _shape_table,
    enumerate_cubes,
    enumerate_lines,
    enumerate_squares,
    verify_latin_pandiagonal,
    verify_magic_pandiagonal,
)


def test_square_counts():
    assert len(enumerate_squares(2, 5)) == 1
    assert len(enumerate_squares(3, 11)) == 3 * 11 + 6
    assert len(enumerate_squares(4, 17)) == (4 * 17 + 12) * (3 * 17 + 6)
    assert len(enumerate_cubes(17)) == 4 * 17 + 12
    assert len(enumerate_cubes(5)) == 32


@pytest.mark.parametrize(
    "enumerate_, args",
    [(enumerate_squares, (3, 0)), (enumerate_squares, (2, 1)), (enumerate_cubes, (-2,))],
)
def test_enumerators_reject_orders_below_2(enumerate_, args):
    with pytest.raises(ValueError, match="order must be at least 2"):
        enumerate_(*args)


@pytest.mark.parametrize("enumerate_, args", [(enumerate_squares, (4, 102)), (enumerate_cubes, (102,))])
def test_enumerators_reject_orders_above_the_array_cap(enumerate_, args):
    # no array of that order can be built, and the squares' flat cells would pass int32
    with pytest.raises(ValueError, match="order 102 above array cap 101"):
        enumerate_(*args)


def test_square_ids_are_unique():
    for d, n in ((2, 5), (3, 7), (4, 5)):
        squares = enumerate_squares(d, n)
        assert len({sq.square_id for sq in squares}) == len(squares)


def test_materialize_agrees_with_embed():
    values = build(ParamVector((1, 2, 4, 9), 17)).values
    squares = enumerate_squares(4, 17)
    for sq in squares[:: len(squares) // 50]:
        grid = sq.materialize(values)
        for r, c in ((0, 0), (3, 16), (11, 5)):
            assert grid[r, c] == values[sq.embed(r, c)]


def test_enumerate_lines_basic_shape():
    (square,) = enumerate_squares(2, 5)
    lines = enumerate_lines(square)
    assert len(lines) == 20
    kinds = [line.kind for line in lines]
    assert kinds == ["row"] * 5 + ["column"] * 5 + ["diagonal-plus"] * 5 + [
        "diagonal-minus"
    ] * 5
    assert lines[0].cells == ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4))
    assert lines[10].cells == ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4))
    assert lines[15].cells == ((0, 4), (1, 3), (2, 2), (3, 1), (4, 0))
    for line in lines:
        assert len(set(line.cells)) == 5


def test_broken_diagonals_are_enumerated():
    grid = np.array(MAGIC_5)
    (square,) = enumerate_squares(2, 5)
    line_values = [
        (line, {int(grid[cell]) for cell in line.cells})
        for line in enumerate_lines(square)
    ]
    for wanted in MAGIC_5_BROKEN_DIAGONALS:
        matches = [line for line, vals in line_values if vals == wanted]
        assert matches, wanted
        assert all(line.kind.startswith("diagonal") for line in matches)


def test_pandiagonal_magic_square_fixture():
    report = verify_magic_pandiagonal(MagicArray(np.array(MAGIC_5)))
    assert report.passed
    assert report.property == "pandiagonal-magic"
    assert report.magic_sum == 60
    assert report.lines_checked == 20
    assert report.first_failure is None


def test_plain_magic_square_fixture():
    # rows, columns and both main diagonals reach 30, broken diagonals do not
    report = verify_magic_pandiagonal(MagicArray(np.array(MAGIC_4)))
    assert not report.passed
    assert report.property == "magic"
    assert report.magic_sum == 30
    assert report.lines_checked == 16
    assert report.first_failure.line.kind == "diagonal-plus"
    assert "expected 30" in report.first_failure.reason


def test_magic_repeat_detection():
    grid = np.array(MAGIC_5)
    grid[0, 0] = grid[0, 1]
    report = verify_magic_pandiagonal(MagicArray(grid))
    assert not report.passed
    assert report.property is None
    assert report.lines_checked == 0
    assert report.first_failure.line is None
    assert "repeat" in report.first_failure.reason


def test_latin_grades_on_fixtures():
    report = verify_latin_pandiagonal(LatinArray(np.array(LATIN_3)))
    assert not report.passed and report.property == "latin"
    report = verify_latin_pandiagonal(LatinArray(np.array(DIAGONAL_4)))
    assert not report.passed and report.property == "diagonal-latin"
    for fixture in (PANDIAGONAL_5A, PANDIAGONAL_5B):
        report = verify_latin_pandiagonal(LatinArray(np.array(fixture)))
        assert report.passed and report.property == "pandiagonal-latin"
        assert report.lines_checked == 20


def test_no_grade_when_rows_fail():
    report = verify_latin_pandiagonal(LatinArray(np.zeros((4, 4), dtype=int)))
    assert not report.passed
    assert report.property is None
    assert report.first_failure.line.kind == "row"


def test_cube_verification_counts_all_lines():
    a = build(ParamVector((1, 2, 7), 11))
    report = verify_latin_pandiagonal(a)
    assert report.passed and report.property == "pandiagonal-latin"
    assert report.lines_checked == (3 * 11 + 6) * 4 * 11


def test_cube_negative_case_names_square():
    a = build(ParamVector((1, 2, 3), 11))
    report = verify_latin_pandiagonal(a)
    assert not report.passed
    assert isinstance(report.first_failure.line, Line)
    assert report.first_failure.line.square_id
    assert "repeated symbol" in report.first_failure.reason


def test_first_failure_is_deterministic():
    a = build(ParamVector((1, 2, 3), 11))
    full = verify_latin_pandiagonal(a)
    again = verify_latin_pandiagonal(a)
    fast = verify_latin_pandiagonal(a, fail_fast=True)
    assert full.first_failure == again.first_failure == fast.first_failure
    assert fast.lines_checked <= full.lines_checked
    assert fast.property is None


def test_failure_line_cells_reproduce_reason():
    a = build(ParamVector((1, 2, 3), 11))
    report = verify_latin_pandiagonal(a)
    line = report.first_failure.line
    values = [int(a.values[cell]) for cell in line.cells]
    assert len(values) == 11
    assert len(set(values)) < 11


def test_verifier_is_construction_blind():
    source = build(ParamVector((1, 2, 7), 11))
    bare = LatinArray(np.array(source.values))
    assert bare.params is None
    assert verify_latin_pandiagonal(bare).passed


def test_line_identities_on_diagonal_squares():
    # every line visits n distinct cells, and the cells a line embeds into
    # the full array carry exactly the values the materialized grid shows
    values = build(ParamVector((1, 2, 3), 5)).values
    n = 5
    for sq in enumerate_squares(3, n):
        grid = sq.materialize(values)
        for pos, line in enumerate(enumerate_lines(sq)):
            assert len(set(line.cells)) == n
            assert {type(x) for cell in line.cells for x in cell} == {int}
            family, k = pos // n, pos % n
            if family == 0:
                local = [(k, c) for c in range(n)]
            elif family == 1:
                local = [(r, k) for r in range(n)]
            elif family == 2:
                local = [(p, (p + k) % n) for p in range(n)]
            else:
                local = [(p, (n - 1 - p + k) % n) for p in range(n)]
            from_grid = [int(grid[r, c]) for r, c in local]
            from_embed = [int(values[cell]) for cell in line.cells]
            assert from_grid == from_embed


# The square builders the constituent rule replaced, kept as the reference
# for square ids, scan order and bindings.  Their bindings read ("const", v),
# ("row", flip) or ("col", flip) per global axis.


def _seed_box_square_specs(n, names):
    """The 3n+6 squares of an n^3 box, axes named for readable ids."""
    for a in range(3):
        rem = [x for x in range(3) if x != a]
        for v in range(n):
            axes = [()] * 3
            axes[a] = ("const", v)
            axes[rem[0]] = ("row", False)
            axes[rem[1]] = ("col", False)
            yield f"{names[a]}={v}", tuple(axes)
    for a, b in combinations(range(3), 2):
        c = 3 - a - b
        for anti in (False, True):
            axes = [()] * 3
            axes[a] = ("row", False)
            axes[b] = ("row", anti)
            axes[c] = ("col", False)
            label = f"{names[a]}+{names[b]}={n - 1}" if anti else f"{names[a]}={names[b]}"
            yield label, tuple(axes)


def _seed_cube_specs(n):
    """The 4n+12 constituent cubes of an n^4 array, with names for their local axes."""
    names = "ijkl"
    for a in range(4):
        rem = [x for x in range(4) if x != a]
        for v in range(n):
            axes = [()] * 4
            axes[a] = ("const", v)
            for local, g in enumerate(rem):
                axes[g] = (local, False)
            yield f"{names[a]}={v}", tuple(axes), tuple(names[g] for g in rem)
    for a, b in combinations(range(4), 2):
        rem = [x for x in range(4) if x not in (a, b)]
        for anti in (False, True):
            axes = [()] * 4
            axes[a] = (0, False)
            axes[b] = (0, anti)
            axes[rem[0]] = (1, False)
            axes[rem[1]] = (2, False)
            label = f"{names[a]}+{names[b]}={n - 1}" if anti else f"{names[a]}={names[b]}"
            local = (f"{names[a]}{names[b]}", names[rem[0]], names[rem[1]])
            yield label, tuple(axes), local


def _seed_compose(cube_axes, square_axes, n):
    """Bindings of a square inside a cube, pushed out to global axes."""
    out = []
    for binding in cube_axes:
        if binding[0] == "const":
            out.append(binding)
            continue
        local, flip = binding
        kind, arg = square_axes[local]
        if kind == "const":
            out.append(("const", (n - 1) - arg if flip else arg))
        else:
            out.append((kind, bool(arg) ^ bool(flip)))
    return tuple(out)


def _seed_squares(d, n):
    if d == 2:
        return [("square", (("row", False), ("col", False)))]
    if d == 3:
        return list(_seed_box_square_specs(n, "ijk"))
    return [
        (f"cube({cube_id})/{sq_id}", _seed_compose(cube_axes, sq_axes, n))
        for cube_id, cube_axes, names in _seed_cube_specs(n)
        for sq_id, sq_axes in _seed_box_square_specs(n, names)
    ]


def _seed_index(axes, r, c, n):
    index = []
    for kind, arg in axes:
        if kind == "const":
            index.append(arg)
        else:
            x = r if kind == "row" else c
            index.append((n - 1) - x if arg else x)
    return tuple(index)


SQUARE_POINTS = (
    [(2, 2), (2, 5)]
    + [(3, n) for n in (2, 3, 4, 5, 6, 7, 11)]
    + [(4, n) for n in (2, 3, 4, 5, 6, 7, 17, 41)]
)


@pytest.mark.parametrize("d, n", SQUARE_POINTS)
def test_squares_match_seed_builders(d, n):
    squares = enumerate_squares(d, n)
    seed = _seed_squares(d, n)
    assert [sq.square_id for sq in squares] == [sq_id for sq_id, _ in seed]
    if d == 4:
        assert enumerate_cubes(n) == [cube_id for cube_id, _, _ in _seed_cube_specs(n)]
    # every cell holds a distinct value, so equal grids mean equal cell maps
    values = np.arange(n**d).reshape((n,) * d)
    rows, cols = np.arange(n)[:, None], np.arange(n)[None, :]
    for sq, (_, axes) in zip(squares, seed):
        assert np.array_equal(sq.materialize(values), values[_seed_index(axes, rows, cols, n)])
        for r, c in ((0, 0), (0, n - 1), (n - 1, 2 % n), (3 % n, 1)):
            assert sq.embed(r, c) == _seed_index(axes, r, c, n)


def test_slice_spec_and_square_view_agree():
    n = 11
    squares = {sq.square_id: sq for sq in enumerate_squares(3, n)}
    cases = [
        (SliceSpec(0, 2, {1: Tie(0)}), "i=j"),
        (SliceSpec(0, 2, {1: Tie(0, anti=True)}), "i+j=10"),
        *((SliceSpec(0, 1, {2: c}), f"k={c}") for c in range(n)),
    ]
    values = np.arange(n**3).reshape((n,) * 3)
    for spec, square_id in cases:
        assert np.array_equal(slice_values(values, spec), squares[square_id].materialize(values))
    n = 17
    squares = {sq.square_id: sq for sq in enumerate_squares(4, n)}
    cases = [
        (SliceSpec(0, 2, {1: Tie(0), 3: 3}), "cube(l=3)/i=j"),
        (SliceSpec(1, 2, {0: Tie(1, anti=True), 3: Tie(1, anti=True)}), "cube(j+l=16)/jl+i=16"),
    ]
    values = np.arange(n**4).reshape((n,) * 4)
    for spec, square_id in cases:
        assert np.array_equal(slice_values(values, spec), squares[square_id].materialize(values))


# Failure naming decodes the failing square's index alone, and the cover
# decodes the squares of its kept families again for their origins.

NAMING_POINTS = [(2, 2), (2, 5), (3, 2), (3, 11), (4, 2), (4, 5), (4, 17)]


@pytest.mark.parametrize("d, n", NAMING_POINTS)
def test_square_at_descends_to_every_square(d, n):
    # one index decoded alone, as a failing scan names its square, against
    # the whole table decoded at once
    squares = enumerate_squares(d, n)
    assert [verify._square_views(d, n, np.array([s]))[0] for s in range(len(squares))] == list(squares)


@pytest.mark.parametrize("d, n", [*NAMING_POINTS, (4, 41)])
def test_square_coords_are_the_square_views(d, n):
    cover = _line_cover(d, n)
    maps = np.array([(sq.origin, sq.row_step, sq.col_step) for sq in enumerate_squares(d, n)])
    origin, row_step, col_step = maps[cover.squares].T
    assert np.array_equal(cover.origins, origin)
    # a line table's 2 x 2 corner fixes both steps of the affine map
    rows, cols = verify._line_table(n).reshape(2, 4, n, n)[:, cover.kinds, :2, :2]
    expected = rows * row_step[:, None, None] + cols * col_step[:, None, None]
    assert np.array_equal(cover.offsets[:, :2, :2][cover.classes], expected)


def test_failing_scan_builds_no_square_table():
    a = build(ParamVector((1, 2, 4, 10), 17))
    for cache in (enumerate_squares, _line_cover, verify._line_table):
        cache.cache_clear()
    report = verify_latin_pandiagonal(a)
    assert report.first_failure.line.square_id == "cube(i=j)/ij=k"
    assert enumerate_squares.cache_info().currsize == 0
    # square 3927 of 4560, reached through a tie face at the top level
    assert enumerate_squares(4, 17)[3927].square_id == report.first_failure.line.square_id


# The line cover against an oracle that reads lines only through SquareView
# and enumerate_lines.


@pytest.mark.parametrize(
    "d, n",
    [(2, 2), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (3, 6), (3, 7)]
    + [(4, 3), (4, 4), (4, 5), (4, 6), (4, 7)],
)
def test_line_cover_is_exact(d, n):
    squares = enumerate_squares(d, n)
    lines = [enumerate_lines(sq) for sq in squares]
    seen, row_col, main_diag, families = set(), set(), set(), []
    for s, square_lines in enumerate(lines):
        for pos, line in enumerate(square_lines):
            cells = frozenset(line.cells)
            if pos < 2 * n:
                row_col.add(cells)
            if pos in (2 * n, 3 * n):
                main_diag.add(cells)
            if cells not in seen:
                seen.add(cells)
                if not families or families[-1] != (s, pos // n):
                    families.append((s, pos // n))
    if n == 2:
        # +1 = -1: the cover is every family, and a line's flags are those of its own kind
        families = [(s, kind) for s in range(len(squares)) for kind in range(4)]
    cover = _line_cover(d, n)
    # the families holding a first occurrence, in canonical order
    assert list(zip(cover.squares.tolist(), cover.kinds.tolist())) == families
    covered = set()
    for f, (s, kind) in enumerate(families):
        for k, line in enumerate(lines[s][kind * n : (kind + 1) * n]):
            cells = frozenset(line.cells)
            covered.add(cells)
            if n == 2:
                expected = (kind < 2, kind >= 2 and k == 0)
            else:
                expected = (cells in row_col, cells in main_diag)
            flags = cover.row_col[cover.classes[f], k], cover.main_diag[cover.classes[f], k]
            assert flags == expected, (s, kind, k)
    assert covered == seen


def distinct_lines(d, n):
    """Number of distinct cell sets among the lines of every square."""
    # the lines of the one d=2 square, read as local (row, col) cells
    local = np.array([line.cells for line in enumerate_lines(enumerate_squares(2, n)[0])])
    cells = np.arange(n**d, dtype=np.int32).reshape((n,) * d)
    every = np.concatenate(
        [sq.materialize(cells)[local[..., 0], local[..., 1]] for sq in enumerate_squares(d, n)]
    )
    every.sort(axis=1)
    return len(np.unique(every, axis=0))


@pytest.mark.parametrize("d, n, distinct, tested", [(3, 11, 1213, 1221), (4, 17, 92840, 93432)])
def test_line_cover_counts(d, n, distinct, tested):
    assert distinct_lines(d, n) == distinct
    assert len(_line_cover(d, n).kinds) * n == tested


def test_line_cover_closed_form_counts():
    # built uncached: the d=4 covers up to order 45 would otherwise stay in memory
    build_cover = _line_cover.__wrapped__
    for n in range(3, 65):
        assert len(build_cover(2, n).kinds) == 4, n
        assert len(build_cover(3, n).kinds) == 9 * n + 12, n
    for n in range(3, 46):
        assert len(build_cover(4, n).kinds) == 16 * n**2 + 48 * n + 56, n
    for d in (2, 3, 4):
        assert len(build_cover(d, 2).kinds) == 4 * len(enumerate_squares(d, 2)), d


@pytest.mark.parametrize("d, coefficients", [(2, [4]), (3, [12, 9]), (4, [56, 48, 16])])
def test_family_counts_follow_from_the_shape_table(d, coefficients):
    # a shape whose levels fix j axes has n**j squares, each with the shape's kept kinds
    _, _, row_signs, col_signs, fixed, _ = _shape_table(d)
    fixing = (fixed != 0).any(axis=2).sum(axis=1)
    kept = _kept_kinds(row_signs, col_signs).sum(axis=1)
    assert np.bincount(fixing, weights=kept).astype(int).tolist() == coefficients
    # order 2 keeps all four kinds of every square
    assert (4 * 2**fixing).sum() == 4 * len(enumerate_squares(d, 2))


# The line census: the distinct lines of each direction, counted off the
# cover's cells alone.


def expected_census(d, n, u):
    """Distinct lines of direction u: every torus line for support <= 2, else the closed forms."""
    support = np.count_nonzero(u)
    if support <= 2:
        return n ** (d - 1)
    return {(3, 3): 3 * n - 2, (4, 3): n * (3 * n - 2), (4, 4): 7 * n - 6}[d, support]


def up_to_sign(u):
    """The rows of u, entries in {0, +-1}, each with its first nonzero entry made +1."""
    return u * u[np.arange(len(u)), (u != 0).argmax(axis=1), None]


CENSUS_POINTS = (
    [(2, n) for n in (*range(3, 12), 101)]
    + [(3, n) for n in (*range(3, 14), 101)]
    + [(4, n) for n in (*range(3, 10), 17)]
)


@pytest.mark.parametrize("d, n", CENSUS_POINTS)
def test_line_census(d, n):
    cover = _line_cover(d, n)
    lines = (cover.offsets[cover.classes] + cover.origins[:, None, None]).reshape(-1, n)
    # a line's direction is its step from its first cell to its second, mod n
    first, second = (np.stack(np.unravel_index(lines[:, k], (n,) * d), axis=1) for k in (0, 1))
    steps = (second - first) % n
    steps[steps == n - 1] = -1
    steps = up_to_sign(steps)
    lines.sort(axis=1)
    census = {
        tuple(u.tolist()): len(np.unique(lines[(steps == u).all(axis=1)], axis=0))
        for u in np.unique(steps, axis=0)
    }
    directions = up_to_sign(np.array([u for _, u in DIRECTIONS[d]]))
    expected = {tuple(u): expected_census(d, n, u) for u in directions.tolist()}
    assert census == expected


@pytest.mark.parametrize("d, n", CENSUS_POINTS + [(2, 2), (3, 2), (4, 2)])
def test_class_directions_are_the_steps_of_their_cells(d, n):
    cover = _line_cover(d, n)
    lines = (cover.offsets[cover.classes] + cover.origins[:, None, None]).reshape(-1, n)
    first, second = (np.stack(np.unravel_index(lines[:, k], (n,) * d), axis=1) for k in (0, 1))
    steps = second - first
    # each line steps by its class's direction, up to sign, mod n
    u = np.array([u for _, u in DIRECTIONS[d]])[cover.directions[cover.classes]].repeat(n, axis=0)
    assert (((steps - u) % n == 0).all(axis=1) | ((steps + u) % n == 0).all(axis=1)).all()
    # the torus pass can clear a family of every direction of support <= 2
    short = {i for i, (_, u) in enumerate(DIRECTIONS[d]) if np.count_nonzero(u) <= 2}
    assert short <= set(cover.directions.tolist())


# (d, n, whether the size rule is lowered to 1 cell, families gathered): above the
# rule a passing scan gathers the families of support >= 3 alone
GATHERED = [
    (2, 101, False, 4),
    (2, 101, True, 0),
    (3, 11, False, 9 * 11 + 12),
    (3, 11, True, 12),
    (3, 101, False, 12),
    (4, 17, False, 48 * 17 + 56),
    (4, 41, False, 48 * 41 + 56),
]


@pytest.mark.parametrize("d, n, lowered, gathered", GATHERED)
def test_passing_scan_gathers_only_what_the_torus_pass_leaves(monkeypatch, d, n, lowered, gathered):
    counted = []
    failing_lines = verify._failing_lines

    def counting(lines, magic_sum):
        counted.append(len(lines))
        return failing_lines(lines, magic_sum)

    monkeypatch.setattr(verify, "_failing_lines", counting)
    if lowered:
        monkeypatch.setattr(verify, "_TORUS_SLAB_CELLS", 1)
    alphas = {2: (1, 2), 3: (1, 2, 4), 4: (1, 2, 4, 8 if n == 17 else 10)}[d]
    report = verify_latin_pandiagonal(build(ParamVector(alphas, n)))
    assert report.passed and report.property == "pandiagonal-latin"
    assert sum(counted) == gathered


# The step-class offset tables against SquareView's flat map.


@pytest.mark.parametrize(
    "d, orders, classes",
    [(2, (3, 4, 5, 11, 101), 4), (3, (3, 4, 5, 7, 11, 101), 21), (4, (3, 4, 5, 7, 17, 41), 120)],
)
def test_step_class_counts(d, orders, classes):
    for n in orders:
        cover = _line_cover(d, n)
        assert cover.offsets.shape == (classes, n, n)
        assert sorted(set(cover.classes.tolist())) == list(range(classes))
    # at order 2 every (shape, kind) is a class; a k-box level has k*k face kinds
    assert len(_line_cover(d, 2).offsets) == 4 * prod(k * k for k in range(3, d + 1))


@pytest.mark.parametrize("d, classes", [(2, 4), (3, 21), (4, 120)])
def test_kept_kinds_have_distinct_steps(d, classes):
    # two kept (shape, kind) with one kind and one pair of steps would share a
    # direction and relations, and the later one would have been dropped
    _, _, row_signs, col_signs, _, _ = _shape_table(d)
    shape, kind = np.nonzero(_kept_kinds(row_signs, col_signs))
    steps = zip(kind.tolist(), row_signs[shape].tolist(), col_signs[shape].tolist())
    keys = {(k, *r, *c) for k, r, c in steps}
    assert len(shape) == len(keys) == classes


@pytest.mark.parametrize("d, n", [(3, 11), (4, 5)])
def test_offset_tables_match_square_views(d, n):
    cover = _line_cover(d, n)
    squares = enumerate_squares(d, n)
    k, p = np.ogrid[:n, :n]
    # local (row, col) of cell p of line k, per line kind
    local = [(k, p), (p, k), (p, (p + k) % n), (p, (n - 1 - p + k) % n)]
    for f, (s, kind) in enumerate(zip(cover.squares.tolist(), cover.kinds.tolist())):
        square = squares[s]
        r, c = local[kind]
        expected = square.origin + r * square.row_step + c * square.col_step
        assert np.array_equal(cover.offsets[cover.classes[f]] + cover.origins[f], expected), f


# (passed, property, lines_checked, reason up to its cell values, sha256 prefix of the whole
# reason) of a full and a fail_fast scan, pinned from the scan that sorted each line of order 64 on
TWO_WORD_REPORTS = {
    (2, 65, "linear"): [(True, "pandiagonal-latin", 260, None)] * 2,
    (2, 65, "swapped"): [
        (False, None, 260, ("repeated symbol in column of square", "08cf70fe5ccdc173")),
        (False, None, 101, ("repeated symbol in column of square", "08cf70fe5ccdc173")),
    ],
    (2, 65, "infeasible"): [
        (False, "latin", 260, ("repeated symbol in diagonal-minus of square", "a49bf1a59d3dccff")),
        (False, None, 196, ("repeated symbol in diagonal-minus of square", "a49bf1a59d3dccff")),
    ],
    (2, 101, "linear"): [(True, "pandiagonal-latin", 404, None)] * 2,
    (2, 101, "swapped"): [
        (False, None, 404, ("repeated symbol in column of square", "62c425decd3b5cbf")),
        (False, None, 155, ("repeated symbol in column of square", "62c425decd3b5cbf")),
    ],
    (2, 101, "infeasible"): [
        (False, "latin", 404, ("repeated symbol in diagonal-plus of square", "85b1ccd4ce69cae2")),
        (False, None, 203, ("repeated symbol in diagonal-plus of square", "85b1ccd4ce69cae2")),
    ],
    (3, 67, "linear"): [(True, "pandiagonal-latin", 55476, None)] * 2,
    (3, 67, "swapped"): [
        (False, None, 55476, ("repeated symbol in column of i=0", "36a9ef69e67bd062")),
        (False, None, 104, ("repeated symbol in column of i=0", "36a9ef69e67bd062")),
    ],
    (3, 67, "infeasible"): [
        (False, "latin", 55476, ("repeated symbol in diagonal-minus of i=j", "bb04ebaad59240ce")),
        (False, None, 54070, ("repeated symbol in diagonal-minus of i=j", "bb04ebaad59240ce")),
    ],
    (3, 101, "linear"): [(True, "pandiagonal-latin", 124836, None)] * 2,
    (3, 101, "swapped"): [
        (False, None, 124836, ("repeated symbol in column of i=0", "f2489c5a2cce2cde")),
        (False, None, 155, ("repeated symbol in column of i=0", "f2489c5a2cce2cde")),
    ],
    (3, 101, "infeasible"): [
        (False, None, 124836, ("repeated symbol in diagonal-minus of k=0", "8dccf0fe688a402f")),
        (False, None, 81912, ("repeated symbol in diagonal-minus of k=0", "8dccf0fe688a402f")),
    ],
}

# a feasible and an infeasible vector per point
TWO_WORD_VECTORS = {
    (2, 65): ((1, 2), (1, 1)),
    (2, 101): ((1, 2), (1, 100)),
    (3, 67): ((1, 2, 4), (1, 2, 3)),
    (3, 101): ((1, 2, 4), (1, 1, 2)),
}


@pytest.mark.parametrize("d, n, variant", list(TWO_WORD_REPORTS))
def test_two_word_reports_are_pinned(d, n, variant):
    feasible, infeasible = TWO_WORD_VECTORS[d, n]
    values = build(ParamVector(infeasible if variant == "infeasible" else feasible, n)).values
    if variant == "swapped":  # two neighbouring cells of one row
        values = values.copy().reshape(-1)
        k = n * n // 2 + 3
        values[[k, k + 1]] = values[[k + 1, k]]
        values = values.reshape((n,) * d)
    got = []
    for fail_fast in (False, True):
        r = verify_latin_pandiagonal(LatinArray(values), fail_fast=fail_fast)
        reason = r.first_failure and r.first_failure.reason
        pin = reason and (reason.split(": ")[0], hashlib.sha256(reason.encode()).hexdigest()[:16])
        got.append((r.passed, r.property, r.lines_checked, pin))
    assert got == TWO_WORD_REPORTS[d, n, variant]


# Arrays failing one direction the cover reaches past the torus pass, pinned from
# the scan that gathered every family: (1,2,3,7) fails total_less_component_less_double(3,2)
# alone, of support 3, and (1,1,4,10) pair_diff(0,1) alone, of support 2
TORUS_ROUTE_REPORTS = {
    (1, 2, 3, 7): [
        (False, None, 3723456, ("repeated symbol in diagonal-minus of cube(l=0)/i=j", "6e934700fde459aa")),
        (False, None, 2622484, ("repeated symbol in diagonal-minus of cube(l=0)/i=j", "6e934700fde459aa")),
    ],
    (1, 1, 4, 10): [
        (False, None, 3723456, ("repeated symbol in diagonal-minus of cube(k=0)/l=0", "fc6b3175cc1b205a")),
        (False, None, 1748364, ("repeated symbol in diagonal-minus of cube(k=0)/l=0", "fc6b3175cc1b205a")),
    ],
}


@pytest.mark.parametrize("alphas", list(TORUS_ROUTE_REPORTS))
def test_torus_route_reports_are_pinned_at_4_41(alphas):
    v = ParamVector(alphas, 41)
    assert len(check(v).violations) == 1
    a = build(v)
    got = []
    for fail_fast in (False, True):
        r = verify_latin_pandiagonal(a, fail_fast=fail_fast)
        reason = r.first_failure.reason
        got.append((r.passed, r.property, r.lines_checked,
                    (reason.split(": ")[0], hashlib.sha256(reason.encode()).hexdigest()[:16])))
    assert got == TORUS_ROUTE_REPORTS[alphas]
