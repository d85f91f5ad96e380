"""Property tests of the batched search and census against independent oracles.

The oracles here share no code with pandiag.params: the line directions
are written out from {0,+-1}^d / +-, feasibility is tested with math.gcd,
and orthogonality by superposing arrays built with numpy.
"""

import math
import tracemalloc
from itertools import product

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pandiag.lattice import LatinArray
from pandiag.magic import _MAX_FAMILY_COMBOS, count_orthogonal_families
from pandiag.orthogonal import ParamMatrix, determinant, unit_determinant_masks, verify_orthogonal_brute
from pandiag.params import ParamVector, enumerate_feasible, iter_feasible

SETTINGS = settings(max_examples=20, deadline=None, database=None)

# the census at the family cap stays within this much transient memory
CENSUS_MEMORY_BUDGET = 16 * 2**20


def directions(d):
    """Nonzero vectors of {0,+-1}^d whose first nonzero entry is +1."""
    return [u for u in product((0, 1, -1), repeat=d) if any(u) and next(c for c in u if c) == 1]


def brute_feasible(d, n, canonical=False):
    dirs = directions(d)
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


@SETTINGS
@given(points({2: 200, 3: 40, 4: 30}))
@example((2, 175))
@example((3, 143))
@example((4, 34))
def test_count_follows_crt_product(point):
    d, n = point
    expected = math.prod(count(d, p) * p ** ((k - 1) * d) for p, k in factorize(n))
    assert count(d, n) == expected


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
