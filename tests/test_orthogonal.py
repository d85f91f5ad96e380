import random

import numpy as np
import pytest

from pandiag.lattice import LatinArray, build, permute_symbols
from pandiag.orthogonal import (
    ParamMatrix,
    check_orthogonal_fast,
    determinant,
    determinant_mod,
    verify_orthogonal_brute,
)
from pandiag.params import ParamVector, enumerate_feasible


def matrix(rows, n):
    return ParamMatrix(tuple(ParamVector(r, n) for r in rows))


def test_determinant_examples():
    assert determinant(matrix([(1, 2), (1, 3)], 5)) == 1
    assert determinant(matrix([(1, 2, 5), (1, 2, 6), (1, 2, 7)], 11)) == 0
    m = matrix([(1, 2, 4, 8), (1, 2, 4, 9), (1, 2, 8, 4), (1, 4, 9, 2)], 17)
    det, residue = determinant_mod(m)
    assert det == -8
    assert int(residue) == 9 and residue.modulus == 17


def test_param_matrix_validation():
    with pytest.raises(ValueError, match="exactly 2 rows"):
        matrix([(1, 2)], 5)
    with pytest.raises(ValueError, match="share"):
        ParamMatrix((ParamVector((1, 2), 5), ParamVector((1, 2), 7)))


def test_fast_check_on_known_families():
    assert check_orthogonal_fast(matrix([(1, 2), (1, 3)], 5))
    assert check_orthogonal_fast(
        matrix([(1, 2, 4, 8), (1, 2, 4, 9), (1, 2, 8, 4), (1, 4, 9, 2)], 17)
    )
    # repeated vector: determinant 0
    assert not check_orthogonal_fast(matrix([(1, 2), (1, 2)], 5))
    # proportional rows: determinant 0 mod 5
    assert not check_orthogonal_fast(matrix([(1, 2), (2, 4)], 5))


def test_fast_check_rejects_infeasible_rows():
    with pytest.raises(ValueError, match="not a pandiagonal family"):
        check_orthogonal_fast(matrix([(1, 2), (1, 4)], 5))


def test_brute_on_known_family():
    arrays = [build(ParamVector(r, 5)) for r in ((1, 2), (1, 3))]
    assert verify_orthogonal_brute(arrays)
    assert not verify_orthogonal_brute([arrays[0], arrays[0]])


def test_brute_validation():
    a5 = build(ParamVector((1, 2), 5))
    a7 = build(ParamVector((1, 2), 7))
    with pytest.raises(ValueError, match="mismatched"):
        verify_orthogonal_brute([a5, a7])
    with pytest.raises(ValueError, match="exactly 2"):
        verify_orthogonal_brute([a5])
    c = build(ParamVector((1, 2, 7), 11))
    with pytest.raises(ValueError, match="exactly 3"):
        verify_orthogonal_brute([c, c])


def test_agreement_exhaustive_small_orders():
    for n in (5, 7):
        feasible = enumerate_feasible(2, n)
        built = {v: build(v) for v in feasible}
        for u in feasible:
            for v in feasible:
                fast = check_orthogonal_fast(ParamMatrix((u, v)))
                brute = verify_orthogonal_brute([built[u], built[v]])
                assert fast == brute, (u, v)


def test_agreement_random_triples():
    rng = random.Random(42)
    feasible = enumerate_feasible(3, 11)
    built = {v: build(v) for v in feasible}
    for _ in range(100):
        rows = tuple(rng.choice(feasible) for _ in range(3))
        fast = check_orthogonal_fast(ParamMatrix(rows))
        brute = verify_orthogonal_brute([built[v] for v in rows])
        assert fast == brute, rows


def test_brute_verdict_survives_symbol_permutation():
    rng = random.Random(9)
    feasible = enumerate_feasible(2, 7)
    for _ in range(40):
        rows = [rng.choice(feasible), rng.choice(feasible)]
        arrays = [build(v) for v in rows]
        before = verify_orthogonal_brute(arrays)
        perms = []
        for _ in rows:
            p = list(range(7))
            rng.shuffle(p)
            perms.append(p)
        after = verify_orthogonal_brute(
            [permute_symbols(a, p) for a, p in zip(arrays, perms)]
        )
        assert before == after


def by_tuple_set(arrays):
    return len(set(zip(*(a.values.ravel().tolist() for a in arrays)))) == arrays[0].values.size


@pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 5), (3, 7)])
def test_brute_superposition_matches_tuple_set(d, n):
    rng = np.random.default_rng(d * 100 + n)
    pick = random.Random(d * 100 + n)
    verdicts = set()
    for _ in range(12):
        # a permutation's base-n digits are always an orthogonal family
        codes = rng.permutation(n**d).reshape((n,) * d)
        digits = [LatinArray(codes // n ** (d - 1 - q) % n) for q in range(d)]
        linear = [build(ParamVector(tuple(pick.randrange(1, n) for _ in range(d)), n)) for _ in range(d)]
        noise = [LatinArray(rng.integers(0, n, (n,) * d)) for _ in range(d)]
        for arrays in (digits, linear, noise, digits[:-1] + linear[-1:]):
            verdict = verify_orthogonal_brute(arrays)
            assert verdict == by_tuple_set(arrays)
            verdicts.add(verdict)
    assert verdicts == {True, False}
