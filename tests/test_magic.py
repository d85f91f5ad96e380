import random
from math import factorial

import numpy as np
import pytest

from pandiag.lattice import LatinArray, build
from pandiag.magic import (
    MagicArray,
    compose,
    compose_checked,
    count_constructed,
    count_orthogonal_families,
    decompose,
    sigma,
)
from pandiag.params import ParamVector
from pandiag.verify import verify_magic_pandiagonal


def test_sigma_values():
    assert sigma(2, 4) == 30
    assert sigma(2, 5) == 60
    assert sigma(3, 11) == 7315
    assert sigma(4, 17) == 709920
    with pytest.raises(ValueError):
        sigma(5, 5)


def test_sigma_is_always_integral():
    for d in (2, 3, 4):
        for n in range(2, 40):
            assert 2 * sigma(d, n) == n * (n**d - 1)


def test_compose_weights_most_significant_first():
    high = build(ParamVector((1, 2), 5))
    low = build(ParamVector((1, 3), 5))
    m = compose([high, low])
    assert np.array_equal(m.values, 5 * high.values + low.values)
    assert m.values[0, 0] == 0
    assert m.values[1, 1] == 5 * 3 + 4


def test_compose_validation():
    a = build(ParamVector((1, 2), 5))
    b = build(ParamVector((1, 2), 7))
    with pytest.raises(ValueError, match="mismatched"):
        compose([a, b])
    with pytest.raises(ValueError, match="exactly 2"):
        compose([a])


def test_compose_degenerate_input_fails_verification():
    zero = LatinArray(np.zeros((5, 5), dtype=int))
    m = compose([zero, zero])
    assert np.all(m.values == 0)
    report = verify_magic_pandiagonal(m)
    assert not report.passed
    assert "repeat" in report.first_failure.reason


def test_decompose_round_trip():
    vectors = [ParamVector((1, 2), 5), ParamVector((1, 3), 5)]
    digits = [build(v) for v in vectors]
    m = compose(digits)
    back = decompose(m)
    for original, recovered in zip(digits, back):
        assert np.array_equal(original.values, recovered.values)


def test_compose_checked_square():
    m = compose_checked([ParamVector((1, 2), 5), ParamVector((1, 3), 5)])
    assert m.params == (ParamVector((1, 2), 5), ParamVector((1, 3), 5))
    assert m.perms == (tuple(range(5)), tuple(range(5)))
    report = verify_magic_pandiagonal(m)
    assert report.passed and report.magic_sum == 60
    # every row of the composed square sums to 60 and values are 0..24
    assert sorted(m.values.ravel().tolist()) == list(range(25))
    assert all(int(row.sum()) == 60 for row in m.values)


def test_compose_checked_cube():
    vectors = [ParamVector(t, 11) for t in ((1, 2, 4), (1, 5, 8), (1, 6, 8))]
    m = compose_checked(vectors)
    report = verify_magic_pandiagonal(m)
    assert report.passed and report.magic_sum == 7315
    assert report.lines_checked == (3 * 11 + 6) * 44


def test_compose_checked_rejects_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        compose_checked([ParamVector((1, 4), 5), ParamVector((1, 3), 5)])


def test_compose_checked_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="not orthogonal"):
        compose_checked([ParamVector((1, 2), 5), ParamVector((2, 4), 5)])
    vectors = [ParamVector(t, 11) for t in ((1, 2, 5), (1, 2, 6), (1, 2, 7))]
    with pytest.raises(ValueError, match="not orthogonal"):
        compose_checked(vectors)


def test_compose_checked_rejects_malformed_family():
    with pytest.raises(ValueError, match="exactly 2 rows"):
        compose_checked([ParamVector((1, 2), 5)])
    with pytest.raises(ValueError, match="share dimension and order"):
        compose_checked([ParamVector((1, 2), 5), ParamVector((1, 2), 7)])
    with pytest.raises(ValueError, match="share dimension and order"):
        compose_checked([ParamVector((1, 2), 11), ParamVector((1, 2, 7), 11)])


def test_compose_checked_applies_perms():
    perms = [[4, 3, 2, 1, 0], [1, 2, 3, 4, 0]]
    m = compose_checked(
        [ParamVector((1, 2), 5), ParamVector((1, 3), 5)], perms
    )
    assert verify_magic_pandiagonal(m).passed
    table0 = np.array(perms[0])
    table1 = np.array(perms[1])
    expected = 5 * table0[build(ParamVector((1, 2), 5)).values] + table1[
        build(ParamVector((1, 3), 5)).values
    ]
    assert np.array_equal(m.values, expected)
    with pytest.raises(ValueError, match="bijection"):
        compose_checked(
            [ParamVector((1, 2), 5), ParamVector((1, 3), 5)],
            [[0, 0, 1, 2, 3], [0, 1, 2, 3, 4]],
        )


def test_composed_array_tiles():
    m = compose_checked([ParamVector((1, 2), 5), ParamVector((1, 3), 5)])
    rng = random.Random(3)
    for _ in range(10):
        axis = rng.randrange(2)
        amount = rng.randrange(1, 5)
        rolled = MagicArray(np.roll(m.values, amount, axis=axis))
        assert verify_magic_pandiagonal(rolled).passed


def test_family_counts():
    assert count_orthogonal_families(2, 5) == 2
    assert count_orthogonal_families(2, 3) == 0
    # order 7 has 4 canonical vectors and every ordered distinct pair works
    assert count_orthogonal_families(2, 7) == 12
    assert count_orthogonal_families(3, 13) == 97392
    # 48 canonical quads at order 17: 48**4 families exceed the census cap
    with pytest.raises(ValueError, match="too many candidate families"):
        count_orthogonal_families(4, 17)


def test_count_constructed_product_shape():
    for n in (5, 7):
        families = count_orthogonal_families(2, n)
        assert count_constructed(2, n) == families * factorial(n) ** 2


def test_count_constructed_distinct_is_stable():
    first = count_constructed(2, 5, distinct=True)
    second = count_constructed(2, 5, distinct=True)
    assert first == second
    assert 0 < first <= count_constructed(2, 5)


def test_count_constructed_distinct_guard():
    with pytest.raises(ValueError, match="out of supported range"):
        count_constructed(2, 7, distinct=True)
    with pytest.raises(ValueError, match="out of supported range"):
        count_constructed(3, 5, distinct=True)


def test_magic_array_validation():
    with pytest.raises(ValueError, match="lie in"):
        MagicArray(np.full((3, 3), 9))
    with pytest.raises(ValueError, match="square"):
        MagicArray(np.zeros((3, 4), dtype=int))
