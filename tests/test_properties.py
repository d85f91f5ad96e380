"""Property tests of the batched search, census and verifier against independent oracles.

The oracles here share no code with pandiag.params: the line directions
are written out from {0,+-1}^d / +-, feasibility is tested with math.gcd,
and orthogonality by superposing arrays built with numpy.  The reference
verifier reads each constituent square through SquareView and writes out
its rows, columns and diagonals itself, using no verify internals.
"""

import math
import tracemalloc
from functools import lru_cache
from itertools import combinations, permutations, product, takewhile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pandiag.lattice import LatinArray, build, permute_symbols, shift_axis
from pandiag.magic import _MAX_FAMILY_COMBOS, MagicArray, compose, count_orthogonal_families
from pandiag.orthogonal import ParamMatrix, determinant, unit_determinant_masks, verify_orthogonal_brute
from pandiag import magic, params
from pandiag.params import (
    _PRIME_COUNT_ROOTS,
    DIRECTIONS,
    ParamVector,
    count_feasible,
    enumerate_feasible,
    iter_feasible,
)
from pandiag import verify
from pandiag.verify import (
    Failure,
    Line,
    VerificationReport,
    enumerate_squares,
    verify_latin_pandiagonal,
    verify_magic_pandiagonal,
)

SETTINGS = settings(max_examples=20, deadline=None, database=None)

# the census at the family cap stays within this much transient memory
CENSUS_MEMORY_BUDGET = 16 * 2**20
# a census past the cap counts its rows without keeping them
CENSUS_CAP_ERROR_MEMORY_BUDGET = 2**20
# verifying a d=3 n=101 array: the first call builds and keeps the line
# cover, a later call holds only its chunk of gathered cells
VERIFY_FIRST_MEMORY_BUDGET = 12 * 2**20
VERIFY_REPEAT_MEMORY_BUDGET = 2 * 2**20
# the d=4 n=41 line cover: what the cache keeps, and its build's peak
COVER_HELD_BUDGET = 2 * 2**20
COVER_BUILD_BUDGET = 8 * 2**20


def directions(d):
    """Nonzero vectors of {0,+-1}^d whose first nonzero entry is +1."""
    return [u for u in product((0, 1, -1), repeat=d) if any(u) and next(c for c in u if c) == 1]


def brute_feasible(d, n, canonical=False, first=None):
    """Feasible vectors in lexicographic order; first, if given, lists the leading components."""
    dirs = directions(d)
    if first is None:
        first = [1] if canonical else range(1, n)
    return [
        v
        for v in product(first, *[range(1, n)] * (d - 1))
        if all(math.gcd(sum(a * c for a, c in zip(v, u)) % n, n) == 1 for u in dirs)
    ]


def factorize(n):
    out, p = [], 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def count(d, n):
    return sum(1 for _ in iter_feasible(d, n))


def points(max_order):
    """(d, n) pairs with n up to max_order[d]."""
    return st.one_of(*(st.tuples(st.just(d), st.integers(2, top)) for d, top in max_order.items()))


@SETTINGS
@given(points({2: 60, 3: 26, 4: 17}), st.booleans())
@example((2, 35), False)
@example((2, 49), False)
@example((3, 11), False)
@example((3, 121), True)
@example((3, 143), True)
@example((4, 15), False)
@example((4, 17), False)
def test_search_equals_brute_filter(point, canonical):
    d, n = point
    got = [v.alphas for v in enumerate_feasible(d, n, canonical)]
    assert got == brute_feasible(d, n, canonical)


def _assert_trusted_vectors(got, n):
    for v in got:
        public = ParamVector(v.alphas, n)
        assert type(v) is ParamVector
        assert all(type(a) is int for a in v.alphas) and type(v.order) is int
        assert v == public and hash(v) == hash(public)
        assert str(v) == str(public)


@settings(max_examples=12, deadline=None, database=None)
@given(points({2: 40, 3: 22, 4: 17}), st.booleans(), st.sampled_from([1, 1001]))
@example((2, 35), False, 1001)
@example((3, 11), False, 1001)
@example((3, 21), True, 1)
@example((4, 17), True, 1001)
@example((4, 15), False, 1)
def test_search_across_block_boundaries(point, canonical, cells):
    # a 1-cell budget makes every prefix its own block; with 1001 cells
    # most levels take several prefixes per block and end on a short one
    from pandiag import params

    d, n = point
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(params, "_BLOCK_CELLS", cells)
        got = list(iter_feasible(d, n, canonical))
    assert [v.alphas for v in got] == brute_feasible(d, n, canonical)
    _assert_trusted_vectors(got, n)


@pytest.mark.parametrize("cells", [1, 1001, None])
def test_search_across_block_boundaries_997(monkeypatch, cells):
    # at n=997 level 1 has 996 prefixes of 996 candidates, so even the
    # default budget splits it; the full brute filter takes seconds, so
    # the non-canonical search is compared over its first leading components
    from pandiag import params

    if cells is not None:
        monkeypatch.setattr(params, "_BLOCK_CELLS", cells)
    canonical = list(iter_feasible(2, 997, canonical_only=True))
    assert [v.alphas for v in canonical] == brute_feasible(2, 997, canonical=True)
    _assert_trusted_vectors(canonical, 997)
    head = list(takewhile(lambda v: v.alphas[0] <= 12, iter_feasible(2, 997)))
    assert [v.alphas for v in head] == brute_feasible(2, 997, first=range(1, 13))
    _assert_trusted_vectors(head[::97], 997)


@SETTINGS
@given(points({2: 200, 3: 40, 4: 30}))
@example((2, 175))
@example((3, 143))
@example((4, 34))
def test_count_follows_crt_product(point):
    d, n = point
    expected = math.prod(count(d, p) * p ** ((k - 1) * d) for p, k in factorize(n))
    assert count(d, n) == expected


# the smallest orders with a feasible vector, at d = 2, 3, 4
MINIMAL_ORDERS = {2: 5, 3: 11, 4: 17}


def reduce_by(basis, u):
    """u less integer multiples of an echelon basis's rows, so it is zero on their pivots."""
    u = list(u)
    for c, p in basis:
        if u[c]:
            u = [p[c] * x - u[c] * y for x, y in zip(u, p)]
    return u


def lattice_of_flats(rows):
    """{flat: rank} over Q, a flat given by the indices of the rows whose hyperplanes hold it.

    A flat is the span of some rows closed under the rows it holds.  Each
    flat keeps an integer echelon basis, so the rank and the closure are
    exact; the flats one rank up are the closures of the flat and one more
    row.
    """
    out = {frozenset(): 0}
    level = [(frozenset(), [])]
    while level:
        above = {}
        for flat, basis in level:
            covered = set(flat)
            for i, u in enumerate(rows):
                if i in covered:
                    continue
                w = reduce_by(basis, u)
                wider = basis + [(next(c for c, x in enumerate(w) if x), w)]
                cover = frozenset(j for j, v in enumerate(rows) if not any(reduce_by(wider, v)))
                covered |= cover
                if cover not in out:
                    out[cover] = len(wider)
                    above[cover] = wider
        level = list(above.items())
    return out


def characteristic_polynomial(d):
    """Coefficients of chi_d(t), highest power first: the sum over flats X of mu(X) t^dim(X)."""
    flats = lattice_of_flats([u for _, u in DIRECTIONS[d]])
    mu = {}
    for x in sorted(flats, key=flats.get):
        mu[x] = -sum(m for y, m in mu.items() if y < x) if x else 1
    coeffs = [0] * (d + 1)
    for x, rank in flats.items():
        coeffs[rank] += mu[x]
    return coeffs


def monic(roots):
    """Coefficients of prod(t - r), highest power first."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


@pytest.mark.parametrize("d,roots", [(2, (1, 3)), (3, (1, 5, 7)), (4, (1, 11, 13, 15))])
def test_arrangement_polynomial_has_the_prime_count_roots(d, roots):
    # the points of F_p^d off the hyperplanes alpha . u = 0 number chi_d(p)
    # wherever the lattice survives reduction mod p; the unit scalings of
    # alpha take out the root 1, and the count's table holds the others
    assert characteristic_polynomial(d) == monic(roots)
    assert _PRIME_COUNT_ROOTS[d] == roots[1:]


def exact_minors(rows, k):
    """Every k x k minor of an integer matrix, as int64, by the permutation expansion."""
    rows = np.array(rows, dtype=np.int64)
    picks = rows[np.array(list(combinations(range(len(rows)), k)))]
    out = []
    for cols in combinations(range(rows.shape[1]), k):
        square = picks[:, :, cols]
        det = 0
        for perm in permutations(range(k)):
            sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
            det = det + sign * np.prod(square[:, range(k), perm], axis=1)
        out.append(det)
    return np.concatenate(out)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_minors_keep_the_lattice_past_the_minimal_order(d):
    # a prime that divides no nonzero minor keeps every rank, so reduction
    # mod p keeps the lattice of flats and chi_d counts the points mod p
    rows = [u for _, u in DIRECTIONS[d]]
    values = set()
    for k in range(1, d + 1):
        values |= {abs(int(m)) for m in exact_minors(rows, k)}
    values.discard(0)
    assert all(p < MINIMAL_ORDERS[d] for v in values for p, _ in factorize(v))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_no_feasible_vector_below_the_minimal_order(d):
    # so an order with such a prime factor has none either: a unit mod n is one mod p
    primes = [p for p in range(2, MINIMAL_ORDERS[d]) if factorize(p) == [(p, 1)]]
    for p in primes:
        assert brute_feasible(d, p, canonical=True) == [], p
    assert brute_feasible(d, MINIMAL_ORDERS[d], canonical=True)


def walked(d, n, canonical):
    """How many vectors the search yields, walked even where the count says there are none.

    iter_feasible makes one vector of each row of the search's blocks.
    """
    with mock.patch.object(params, "count_feasible", lambda *args: 1):
        return sum(len(block) for block in params._feasible_blocks(d, n, canonical))


def test_count_feasible_equals_the_search():
    points = [(2, n, canonical) for n in range(2, 201) for canonical in (True, False)]
    points += [(3, n, True) for n in range(2, 201)]
    points += [(4, n, True) for n in range(2, 48)]
    # the full d=3 search tests n**4 cells, 9 s over every n <= 200
    points += [(3, n, False) for n in [*range(2, 101), 121, 125, 143, 169, 187, 198, 199]]
    for d, n, canonical in points:
        assert count_feasible(d, n, canonical) == walked(d, n, canonical), (d, n, canonical)


def test_census_d2_matches_superposition():
    for n in range(2, 14):
        canonical = brute_feasible(2, n, canonical=True)
        i, j = np.indices((n, n))
        arrays = {v: LatinArray((v[0] * i + v[1] * j) % n) for v in canonical}
        expected = sum(
            verify_orthogonal_brute([arrays[u], arrays[v]]) for u in canonical for v in canonical
        )
        assert count_orthogonal_families(2, n) == expected, n


def test_census_3_11_matches_determinant_loop():
    canonical = enumerate_feasible(3, 11, canonical_only=True)
    expected = sum(
        math.gcd(determinant(ParamMatrix(rows)) % 11, 11) == 1
        for rows in product(canonical, repeat=3)
    )
    assert count_orthogonal_families(3, 11) == expected == 11280


@SETTINGS
@given(st.sampled_from([2, 3, 4]), st.sampled_from([5, 9, 12, 17, 101]), st.data())
def test_masks_match_scalar_determinant(d, n, data):
    rows = data.draw(st.lists(st.tuples(*[st.integers(1, n - 1)] * d), max_size=5))
    masks = unit_determinant_masks(np.array(rows, dtype=np.int64).reshape(-1, d), n)
    got = [bool(x) for mask in masks for x in mask]
    expected = [
        math.gcd(determinant(ParamMatrix(tuple(ParamVector(r, n) for r in fam))) % n, n) == 1
        for fam in product(rows, repeat=d)
    ]
    assert got == expected


def test_census_memory_at_cap():
    d, n = 4, 41
    k = int(_MAX_FAMILY_COMBOS ** (1 / d))
    assert k**d <= _MAX_FAMILY_COMBOS < (k + 1) ** d
    canonical = enumerate_feasible(d, n, canonical_only=True)
    # spread over the whole search order so the families are not all degenerate
    rows = np.array([v.alphas for v in canonical[:: len(canonical) // k][:k]])
    assert len(rows) == k
    tracemalloc.start()
    try:
        total = sum(int(np.count_nonzero(m)) for m in unit_determinant_masks(rows, n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < total <= k**d
    assert peak < CENSUS_MEMORY_BUDGET, f"census peak {peak / 2**20:.1f} MB"


def _refuse(*args, **kwargs):
    raise AssertionError("the search was walked")


def test_census_cap_error_keeps_no_rows():
    # (4,101) has 681,120 canonical vectors, 21.8 MB as int64 rows; the
    # error counts them without a search
    tracemalloc.start()
    try:
        with mock.patch.object(magic, "_feasible_blocks", _refuse):
            with pytest.raises(ValueError, match=r"too many candidate families \(681120\*\*4\)$"):
                count_orthogonal_families(4, 101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < CENSUS_CAP_ERROR_MEMORY_BUDGET, f"cap error peak {peak / 2**20:.1f} MB"


# reference verifier


def reference_lines(n):
    """(kind, local cells) of a square's 4n lines, written out kind by kind."""
    lines = [("row", [(k, c) for c in range(n)]) for k in range(n)]
    lines += [("column", [(r, k) for r in range(n)]) for k in range(n)]
    lines += [("diagonal-plus", [(p, (p + k) % n) for p in range(n)]) for k in range(n)]
    lines += [("diagonal-minus", [(p, (n - 1 - p + k) % n) for p in range(n)]) for k in range(n)]
    return lines


def reference_scan(values, magic_sum, grades, fail_fast):
    """The verifier's report, one square and one line kind at a time."""
    n, d = values.shape[0], values.ndim
    lines = reference_lines(n)
    rows = np.array([[r for r, _ in cells] for _, cells in lines])
    cols = np.array([[c for _, c in cells] for _, cells in lines])
    rows_cols_ok = main_diags_ok = True
    checked, failure = 0, None
    for square in enumerate_squares(d, n):
        line_values = square.materialize(values)[rows, cols]
        if magic_sum is None:
            ok = (np.sort(line_values, axis=1) == np.arange(n)).all(axis=1)
        else:
            ok = line_values.sum(axis=1) == magic_sum
        checked += 4 * n
        if failure is None and not ok.all():
            pos = int(np.flatnonzero(~ok)[0])
            kind, local = lines[pos]
            cells = tuple(square.embed(r, c) for r, c in local)
            found = [int(values[cell]) for cell in cells]
            if magic_sum is None:
                reason = f"repeated symbol in {kind} of {square.square_id}: {found}"
            else:
                reason = f"{kind} of {square.square_id} sums to {sum(found)}, expected {magic_sum}"
            failure = Failure(Line(cells, kind, square.square_id), reason)
            if fail_fast:
                return VerificationReport(False, None, checked - 4 * n + pos + 1, magic_sum, failure)
        rows_cols_ok &= bool(ok[: 2 * n].all())
        main_diags_ok &= bool(ok[2 * n] and ok[3 * n])
    if failure is None:
        grade = grades[2]
    elif rows_cols_ok:
        grade = grades[1] if main_diags_ok else grades[0]
    else:
        grade = None
    return VerificationReport(failure is None, grade, checked, magic_sum, failure)


def reference_magic(values, fail_fast):
    n, d = values.shape[0], values.ndim
    magic_sum = n * (n**d - 1) // 2
    symbols, counts = np.unique(values, return_counts=True)
    if counts.max() > 1:
        first = int(np.argmax(counts > 1))
        reason = f"repeat: value {symbols[first]} appears {counts[first]} times"
        return VerificationReport(False, None, 0, magic_sum, Failure(None, reason))
    return reference_scan(values, magic_sum, ("semi-magic", "magic", "pandiagonal-magic"), fail_fast)


@lru_cache(maxsize=None)
def orthogonal_family(d, n):
    """The first canonical feasible family with a unit determinant, or None."""
    for rows in combinations(enumerate_feasible(d, n, canonical_only=True), d):
        if math.gcd(determinant(ParamMatrix(rows)) % n, n) == 1:
            return rows
    return None


def sample_latin(d, n, variant, rng, seed):
    feasible = enumerate_feasible(d, n, canonical_only=True)
    if feasible and seed % 2 == 0:
        v = feasible[int(rng.integers(len(feasible)))]
    else:
        v = ParamVector(tuple(int(a) for a in rng.integers(1, n, d)), n)
    a = build(v)
    if variant == "swapped":
        return swap_cells(a.values, rng)
    if variant == "relabelled":
        return permute_symbols(a, rng.permutation(n)).values
    if variant == "shifted":
        return shift_axis(a, int(rng.integers(d)), int(rng.integers(1, n))).values
    if variant == "random":
        return rng.integers(0, n, (n,) * d)
    return a.values


def sample_magic(d, n, variant, rng, seed):
    family = orthogonal_family(d, n)
    if family is None or seed % 2:
        family = [ParamVector(tuple(int(a) for a in rng.integers(1, n, d)), n) for _ in range(d)]
    digits = [build(v) for v in family]
    if variant == "relabelled":
        digits = [permute_symbols(a, rng.permutation(n)) for a in digits]
    m = compose(digits).values
    if variant == "swapped":
        return swap_cells(m, rng)
    if variant == "shifted":
        return np.roll(m, int(rng.integers(1, n)), axis=int(rng.integers(d)))
    if variant == "random":
        return rng.integers(0, n**d, (n,) * d)
    return m


def swap_cells(values, rng):
    out = values.copy()
    n, d = values.shape[0], values.ndim
    x, y = (tuple(int(c) for c in rng.integers(0, n, d)) for _ in range(2))
    out[x], out[y] = values[y], values[x]
    return out


VERIFY_POINTS = [(2, 5), (2, 7), (2, 8), (3, 4), (3, 6), (3, 7), (3, 11), (4, 3), (4, 5), (4, 6), (4, 17)]
VARIANTS = ["built", "swapped", "relabelled", "shifted", "random"]


@SETTINGS
@given(
    st.sampled_from(VERIFY_POINTS),
    st.sampled_from(VARIANTS),
    st.sampled_from(["latin", "magic"]),
    st.integers(0, 2**32 - 1),
)
@example((4, 17), "built", "latin", 0)
@example((4, 17), "swapped", "latin", 0)
@example((3, 11), "built", "magic", 0)
@example((4, 17), "shifted", "magic", 0)
@example((3, 11), "swapped", "magic", 0)
# rows, columns and diagonal-plus pass, the diagonal-minus main diagonal fails
@example((2, 7), "built", "latin", 5)
@example((2, 7), "built", "magic", 3)
# orders where -1 = n-1 is a small step, or where +1 and -1 coincide mod 2
@example((3, 3), "swapped", "latin", 1)
@example((2, 2), "built", "latin", 0)
@example((4, 2), "shifted", "latin", 0)
@example((3, 2), "random", "magic", 0)
def test_verifier_equals_reference_scan(point, variant, kind, seed):
    d, n = point
    rng = np.random.default_rng(seed)
    sample = sample_latin if kind == "latin" else sample_magic
    values = sample(d, n, variant, rng, seed)
    for fail_fast in (False, True):
        if kind == "latin":
            got = verify_latin_pandiagonal(LatinArray(values), fail_fast=fail_fast)
            grades = ("latin", "diagonal-latin", "pandiagonal-latin")
            expected = reference_scan(values, None, grades, fail_fast)
        else:
            got = verify_magic_pandiagonal(MagicArray(values), fail_fast=fail_fast)
            expected = reference_magic(values, fail_fast)
        assert got == expected
        # == would also hold for numpy integers, which the report must not carry
        if got.first_failure is not None and got.first_failure.line is not None:
            assert {type(x) for cell in got.first_failure.line.cells for x in cell} == {int}


def test_verifier_equals_reference_scan_across_chunks(monkeypatch):
    """One family per scan chunk."""
    monkeypatch.setattr(verify, "_CHUNK_CELLS", 1)
    clear_verify_caches()
    try:
        # pair_sum(0,1) = 0 mod 7: main diagonals fail in squares k=v, several
        # chunks before the first failing row, in square i=j
        cases = [("latin", build(ParamVector((1, 6, 3), 7)).values)]
        for d, n in ((2, 5), (3, 5), (3, 7), (4, 5)):
            for seed in range(2):
                rng = np.random.default_rng(seed)
                for variant in VARIANTS:
                    cases.append(("latin", sample_latin(d, n, variant, rng, seed)))
                    cases.append(("magic", sample_magic(d, n, variant, rng, seed)))
        for kind, values in cases:
            for fail_fast in (False, True):
                if kind == "latin":
                    got = verify_latin_pandiagonal(LatinArray(values), fail_fast=fail_fast)
                    grades = ("latin", "diagonal-latin", "pandiagonal-latin")
                    assert got == reference_scan(values, None, grades, fail_fast)
                else:
                    got = verify_magic_pandiagonal(MagicArray(values), fail_fast=fail_fast)
                    assert got == reference_magic(values, fail_fast)
    finally:
        clear_verify_caches()


# the last order tested by bit sets and the first tested by sorting, and a
# prime either side of them.  Every line sum of (1, 2, 4) lies in +-1..+-7,
# so it passes at 61 and 67 and fails some lines at 63 = 9*7; at 64 the odd
# (1, 3, 5) keep the rows of the fixed-axis squares latin.
@pytest.mark.parametrize("d, n", [(2, 63), (2, 64), (3, 63), (3, 64), (3, 61), (3, 67)])
@pytest.mark.parametrize("variant", ["built", "swapped", "random"])
def test_verifier_equals_reference_scan_either_side_of_64(d, n, variant):
    rng = np.random.default_rng(n)
    alphas = (1, 3, 5) if n == 64 else (1, 2, 4)
    values = build(ParamVector(alphas[:d], n)).values
    if variant == "swapped":
        values = swap_cells(values, rng)
    elif variant == "random":
        values = rng.integers(0, n, (n,) * d)
    grades = ("latin", "diagonal-latin", "pandiagonal-latin")
    for fail_fast in (False, True):
        got = verify_latin_pandiagonal(LatinArray(values), fail_fast=fail_fast)
        assert got == reference_scan(values, None, grades, fail_fast)


# the torus pass against explicit torus lines


def brute_torus_verdict(values, u, magic_sum):
    """Whether every line x + t*u mod n of the grid is latin, or sums to magic_sum."""
    n, d = values.shape[0], values.ndim
    u = np.array(u)
    # one cell of each line: the one with x_a = 0, a the first axis u moves
    base = np.indices((n,) * d).reshape(d, -1)
    base = base[:, base[np.flatnonzero(u)[0]] == 0]
    t = np.arange(n)
    lines = values[tuple((base[:, :, None] + t * u[:, None, None]) % n)]
    if magic_sum is None:
        return bool((np.sort(lines, axis=1) == t).all())
    return bool((lines.sum(axis=1) == magic_sum).all())


TORUS_POINTS = [(d, n) for d in (2, 3) for n in (2, 3, 5, 7, 63, 64, 65, 101)] + [
    (4, n) for n in (2, 3, 5, 7)
]


@SETTINGS
@given(
    st.sampled_from(TORUS_POINTS),
    st.sampled_from(VARIANTS),
    st.sampled_from(["latin", "magic"]),
    st.integers(0, 2**32 - 1),
)
@example((3, 101), "built", "latin", 0)
@example((3, 101), "built", "magic", 0)
@example((2, 64), "relabelled", "latin", 0)
@example((3, 65), "built", "latin", 1)
@example((4, 7), "built", "latin", 1)
@example((4, 5), "swapped", "magic", 0)
def test_torus_pass_equals_brute_lines(point, variant, kind, seed):
    d, n = point
    rng = np.random.default_rng(seed)
    sample = sample_latin if kind == "latin" else sample_magic
    values = sample(d, n, variant, rng, seed)
    magic_sum = None if kind == "latin" else n * (n**d - 1) // 2
    proved = verify._torus_pass(values, magic_sum)
    rows = {u: i for i, (_, u) in enumerate(DIRECTIONS[d])}
    rows.update({tuple(-c for c in u): i for u, i in rows.items()})
    verdicts = {
        rows[u]: brute_torus_verdict(values, u, magic_sum)
        for u in directions(d)
        if np.count_nonzero(u) <= 2
    }
    if proved is None:  # a line failed inside a slab and the pass stopped there
        assert not all(verdicts.values())
    else:
        assert {i: bool(proved[i]) for i in verdicts} == verdicts
        assert proved.sum() == sum(verdicts.values())


def line_sum_family(d, n, infeasible):
    """d-1 feasible vectors and an infeasible one with a unit determinant.

    Their composition holds every value once, yet the lines along which the
    infeasible digit repeats a symbol miss the magic sum.
    """
    last = ParamVector(infeasible, n)
    for rows in combinations(enumerate_feasible(d, n, canonical_only=True), d - 1):
        if math.gcd(determinant(ParamMatrix((*rows, last))) % n, n) == 1:
            return (*rows, last)
    raise AssertionError("no family")


# (kind, alphas, n, size rule lowered to 1 cell, the one direction the vector fails):
# first failures found by the cover past the torus pass, on either side of its size rule
TORUS_ROUTES = [
    ("latin", (1, 2, 4), 7, False, "total"),
    ("latin", (1, 2, 4), 7, True, "total"),
    ("latin", (1, 2, 98), 101, False, "total"),
    ("latin", (1, 1, 4), 7, False, "pair_diff(0,1)"),
    ("latin", (1, 1, 4), 7, True, "pair_diff(0,1)"),
    ("latin", (1, 1, 4), 101, False, "pair_diff(0,1)"),
    ("line-sum", (1, 1, 4), 11, False, "pair_diff(0,1)"),
    ("line-sum", (1, 1, 4), 11, True, "pair_diff(0,1)"),
    ("line-sum", (1, 1, 4), 101, False, "pair_diff(0,1)"),
    ("swapped", (1, 2, 4), 11, True, None),
    ("swapped", (1, 2, 4), 101, False, None),
    ("swapped", (1, 2, 4, 8), 17, False, None),
]


@pytest.mark.parametrize("kind, alphas, n, lowered, fails", TORUS_ROUTES)
def test_torus_route_equals_reference_scan(monkeypatch, kind, alphas, n, lowered, fails):
    if lowered:
        monkeypatch.setattr(verify, "_TORUS_SLAB_CELLS", 1)
    v = ParamVector(alphas, n)
    assert [cid for cid, _ in params.check(v).violations] == ([fails] if fails else [])
    if kind == "line-sum":
        values = compose([build(row) for row in line_sum_family(len(alphas), n, alphas)]).values
    else:
        values = build(v).values
        if kind == "swapped":
            values = swap_cells(values, np.random.default_rng(n))
    grades = ("latin", "diagonal-latin", "pandiagonal-latin")
    for fail_fast in (False, True):
        if kind == "line-sum":
            got = verify_magic_pandiagonal(MagicArray(values), fail_fast=fail_fast)
            expected = reference_magic(values, fail_fast)
        else:
            got = verify_latin_pandiagonal(LatinArray(values), fail_fast=fail_fast)
            expected = reference_scan(values, None, grades, fail_fast)
        assert not got.passed
        assert got == expected


def failing_lines(lines):
    """verify._failing_lines of latin lines, with a word buffer of their own."""
    return verify._failing_lines(lines, None, np.empty(2 * lines.size, dtype=np.int64))


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(2, 63), st.integers(1, 50), st.integers(0, 2**32 - 1))
def test_bit_set_line_test_equals_sorting(n, count, seed):
    """The latin line test alone, on permutations, random lines and near misses."""
    rng = np.random.default_rng(seed)
    lines = rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)
    random = rng.random(count) < 0.3
    lines[random] = rng.integers(0, n, (int(random.sum()), n))
    # one value copied over another: a single repeat, with one symbol missing
    repeat = np.flatnonzero(rng.random(count) < 0.3)
    src, dst = rng.integers(0, n, (2, len(repeat)))
    lines[repeat, dst] = lines[repeat, src]
    expected = np.flatnonzero((np.sort(lines, axis=1) != np.arange(n)).any(axis=1))
    assert np.array_equal(failing_lines(lines), expected)


@pytest.mark.parametrize("n", [64, 65, 100, 101])
@pytest.mark.parametrize("seed", range(4))
def test_two_word_line_test_equals_sorting(n, seed):
    """From order 64 on the bit set takes two words; each edge value is repeated and missed."""
    rng = np.random.default_rng(seed * 1000 + n)
    edges = sorted({0, 63, 64, n - 1} & set(range(n)))
    lines = rng.permuted(np.tile(np.arange(n), (60 + 2 * len(edges) ** 2, 1)), axis=1)
    lines[:10] = rng.integers(0, n, (10, n))
    at = 10
    for missed in edges:  # missed is overwritten by a copy of each other edge value, or of a neighbour
        for kept in [e for e in edges if e != missed] + [(missed + 1) % n]:
            row = lines[at]
            row[row == missed] = kept
            at += 1
    # one value copied over another at random: a single repeat, with one symbol missing
    src, dst = rng.integers(0, n, (2, 20))
    lines[at + np.arange(20), dst] = lines[at + np.arange(20), src]
    expected = np.flatnonzero((np.sort(lines, axis=1) != np.arange(n)).any(axis=1))
    assert at < len(lines) - 20 and expected.size > len(edges) ** 2
    assert np.array_equal(failing_lines(lines), expected)


# the one-word and two-word line tests either side of order 64; d=4 stays at orders
# whose int64 grid is a few MiB at most
BYTE_POINTS = [(d, n) for d in (2, 3) for n in (63, 64, 65, 101)] + [(4, n) for n in (5, 7, 17)]


@SETTINGS
@given(st.sampled_from(BYTE_POINTS), st.sampled_from(["built", "relabelled", "swapped"]), st.integers(0, 2**32 - 1))
@example((3, 101), "relabelled", 0)
@example((3, 64), "swapped", 1)
@example((4, 17), "swapped", 0)
def test_uint8_grid_reads_like_int64(point, variant, seed):
    """The torus pass and the line test give one verdict on a latin grid and its uint8 copy."""
    d, n = point
    values = sample_latin(d, n, variant, np.random.default_rng(seed), seed)
    narrow = values.astype(np.uint8)
    wide, byte = verify._torus_pass(values, None), verify._torus_pass(narrow, None)
    assert (wide is None) == (byte is None)
    assert wide is None or np.array_equal(wide, byte)
    # the lines along the last axis and along the first
    for lines in (values.reshape(-1, n), np.moveaxis(values, 0, -1).reshape(-1, n)):
        expected = np.flatnonzero((np.sort(lines, axis=1) != np.arange(n)).any(axis=1))
        assert np.array_equal(failing_lines(lines), expected)
        assert np.array_equal(failing_lines(lines.astype(np.uint8)), expected)


def clear_verify_caches():
    for cache in (enumerate_squares, verify._line_cover, verify._line_table):
        cache.cache_clear()


def traced_peak(call):
    """Peak of the memory call allocates, above what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_memory_at_3_101():
    a = build(enumerate_feasible(3, 101, canonical_only=True)[0])
    clear_verify_caches()
    first = traced_peak(lambda: verify_latin_pandiagonal(a))
    assert first < VERIFY_FIRST_MEMORY_BUDGET, f"first verify peak {first / 2**20:.1f} MB"
    again = traced_peak(lambda: verify_latin_pandiagonal(a))
    assert again < VERIFY_REPEAT_MEMORY_BUDGET, f"repeat verify peak {again / 2**20:.1f} MB"


@pytest.mark.parametrize("d, n", [(4, 17), (4, 41), (3, 101)])
def test_torus_scan_memory_below_half_the_grid(d, n):
    """A passing scan, its caches warm: the pass's slab buffers and the chunks that follow."""
    a = build(enumerate_feasible(d, n, canonical_only=True)[0])
    assert n ** (d - 1) >= verify._TORUS_SLAB_CELLS
    verify_latin_pandiagonal(a)
    peak = traced_peak(lambda: verify_latin_pandiagonal(a))
    assert peak < a.values.nbytes / 2, f"scan peak {peak / a.values.nbytes:.2f} grids"


def test_line_cover_memory_at_4_41():
    clear_verify_caches()
    tracemalloc.start()
    try:
        cover = verify._line_cover(4, 41)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cover.kinds) * 41 == 1185720
    assert held < COVER_HELD_BUDGET, f"cover holds {held / 2**20:.1f} MB"
    assert peak < COVER_BUILD_BUDGET, f"cover build peak {peak / 2**20:.1f} MB"
