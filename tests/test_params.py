import random

import pytest

from fixtures import KNOWN_QUADS_17, KNOWN_TRIPLES_11
from pandiag.params import (
    ParamVector,
    canonicalize,
    check,
    check_pair,
    check_quad,
    check_triple,
    enumerate_feasible,
    minimal_order,
    scale,
)


def vec(alphas, n):
    return ParamVector(tuple(alphas), n)


def test_param_vector_validation():
    v = vec([1, 2, 7], 11)
    assert v.dimension == 3 and v.order == 11
    with pytest.raises(ValueError):
        vec([1], 5)
    with pytest.raises(ValueError):
        vec([1, 2, 3, 4, 5], 7)
    with pytest.raises(ValueError):
        vec([0, 2], 5)
    with pytest.raises(ValueError):
        vec([1, 5], 5)
    with pytest.raises(ValueError):
        vec([1, 2], 1)


def test_check_pair_examples():
    assert check_pair(vec([1, 2], 5)).feasible
    assert check_pair(vec([1, 3], 5)).feasible
    report = check_pair(vec([1, 4], 5))
    assert not report.feasible
    assert ("pair_sum(0,1)", 0) in report.violations
    # components sharing a factor with n
    report = check_pair(vec([2, 3], 6))
    assert not report.feasible
    assert any(c.startswith("component(0)") for c, _ in report.violations)


def test_check_pair_difference_reduced_mod_n():
    # 1 - 3 = -2 reduces to 5 mod 7, coprime; 2 - 5 reduces to 4 mod 8
    report = check_pair(vec([1, 3], 7))
    assert report.feasible
    report = check_pair(vec([3, 5], 8))
    assert ("pair_diff(0,1)", 6) in report.violations


def test_no_feasible_pairs_for_even_order():
    for n in (2, 4, 6, 8, 10, 12):
        assert enumerate_feasible(2, n) == []


def test_feasible_pairs_order_5_exhaustive():
    found = {v.alphas for v in enumerate_feasible(2, 5)}
    assert found == {(1, 2), (1, 3), (2, 1), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3)}


def test_enumeration_is_lexicographic():
    vs = [v.alphas for v in enumerate_feasible(2, 13)]
    assert vs == sorted(vs)
    assert len(vs) == 10 * 12  # p-3 canonical choices, p-1 scalings


def test_canonical_pairs():
    assert [v.alphas for v in enumerate_feasible(2, 5, canonical_only=True)] == [
        (1, 2),
        (1, 3),
    ]
    assert [v.alphas for v in enumerate_feasible(2, 7, canonical_only=True)] == [
        (1, 2),
        (1, 3),
        (1, 4),
        (1, 5),
    ]


def test_check_triple_examples():
    assert check_triple(vec([1, 2, 4], 11)).feasible
    assert check_triple(vec([1, 2, 7], 11)).feasible
    # total minus twice the last component hits 0 mod 11
    report = check_triple(vec([1, 2, 3], 11))
    assert not report.feasible
    assert ("total_less_double(2)", 0) in report.violations


def test_no_feasible_triples_below_11():
    for n in (5, 7, 9):
        assert enumerate_feasible(3, n) == []


def test_known_triples_are_feasible_at_11():
    members = {v.alphas for v in enumerate_feasible(3, 11, canonical_only=True)}
    for triple in KNOWN_TRIPLES_11:
        assert triple in members


def test_check_quad_examples():
    assert check_quad(vec([1, 2, 4, 8], 17)).feasible
    assert check_quad(vec([1, 2, 13, 9], 17)).feasible
    report = check_quad(vec([1, 2, 3, 4], 17))
    assert not report.feasible
    assert ("total_less_component_less_double(1,3)", 0) in report.violations
    # same components at a smaller order fail: 15 - 2*1 = 13 = 0 mod 13
    report = check_quad(vec([1, 2, 4, 8], 13))
    assert not report.feasible
    assert ("total_less_double(0)", 0) in report.violations


def test_no_feasible_quads_below_17():
    for n in range(2, 17):
        assert enumerate_feasible(4, n) == []


def test_known_quads_are_feasible_at_17():
    members = {v.alphas for v in enumerate_feasible(4, 17, canonical_only=True)}
    for quad in KNOWN_QUADS_17:
        assert quad in members
    # the constraint system is symmetric in the components
    assert (1, 2, 8, 4) in members
    assert (1, 4, 9, 2) in members


def test_check_dimension_mismatch():
    with pytest.raises(ValueError, match="expected 2"):
        check_pair(vec([1, 2, 4], 11))
    with pytest.raises(ValueError, match="expected 3"):
        check_triple(vec([1, 2], 5))
    with pytest.raises(ValueError, match="expected 4"):
        check_quad(vec([1, 2, 4], 11))


def test_check_dispatch():
    assert check(vec([1, 2], 5)).feasible
    assert check(vec([1, 2, 4], 11)).feasible
    assert check(vec([1, 2, 4, 8], 17)).feasible


def test_canonicalize_examples():
    assert canonicalize(vec([3, 5], 7)).alphas == (1, 4)
    assert canonicalize(vec([2, 4, 8], 11)).alphas == (1, 2, 4)
    # already canonical vectors are fixed points
    v = vec([1, 6, 8], 11)
    assert canonicalize(v) == v


def test_canonicalize_requires_invertible_lead():
    with pytest.raises(ValueError, match="cannot canonicalize"):
        canonicalize(vec([2, 3], 4))


def test_scale_examples():
    assert scale(vec([1, 3], 7), 5).alphas == (5, 1)
    assert scale(vec([1, 2], 7), 2).alphas == (2, 4)
    with pytest.raises(ValueError, match="not coprime"):
        scale(vec([1, 3], 6), 3)


def test_scale_orbit_of_1_2_mod_7():
    base = vec([1, 2], 7)
    orbit = {scale(base, k).alphas for k in range(2, 7)}
    assert orbit == {(2, 4), (3, 6), (4, 1), (5, 3), (6, 5)}


def test_scale_preserves_feasibility():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.choice([5, 7, 9, 11, 12, 13, 15])
        d = rng.choice([2, 3])
        v = vec([rng.randrange(1, n) for _ in range(d)], n)
        units = [k for k in range(1, n) if _coprime(k, n)]
        k = rng.choice(units)
        scaled = scale(v, k)
        assert check(v).feasible == check(scaled).feasible


def _coprime(a, n):
    import math

    return math.gcd(a, n) == 1


def test_canonicalize_scale_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.choice([5, 7, 11, 13])
        d = rng.choice([2, 3, 4])
        v = vec([rng.randrange(1, n) for _ in range(d)], n)
        k = rng.randrange(1, n)
        assert canonicalize(scale(canonicalize(v), k)) == canonicalize(v)


def test_minimal_orders():
    assert minimal_order(2, 20) == 5
    assert minimal_order(3, 20) == 11
    assert minimal_order(4, 20) == 17
    assert minimal_order(2, 4) is None
    assert minimal_order(4, 13) is None


def test_minimal_order_validates_dimension_eagerly():
    # an empty order range must not hide a bad dimension
    for max_order in (1, 5):
        with pytest.raises(ValueError, match="dimension must be one of"):
            minimal_order(7, max_order)


def test_iter_feasible_validates_eagerly():
    from pandiag.params import iter_feasible

    with pytest.raises(ValueError):
        iter_feasible(5, 11)
    with pytest.raises(ValueError):
        iter_feasible(2, 1)


def _reference_violations(v):
    """The conditions written out one family at a time, as the checks first
    stated them, including the three d=4 conditions that repeat a direction."""
    a, n, d = v.alphas, v.order, v.dimension
    total = sum(a)
    rows = [(f"component({m})", a[m]) for m in range(d)]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    rows += [(f"pair_sum({i},{j})", a[i] + a[j]) for i, j in pairs]
    rows += [(f"pair_diff({i},{j})", a[i] - a[j]) for i, j in pairs]
    if d >= 3:
        rows.append(("total", total))
    if d == 4:
        rows += [(f"total_less_component({m})", total - a[m]) for m in range(d)]
    if d >= 3:
        rows += [(f"total_less_double({m})", total - 2 * a[m]) for m in range(d)]
    if d == 4:
        rows += [
            (f"total_less_component_less_double({i},{j})", total - a[i] - 2 * a[j])
            for i in range(d)
            for j in range(d)
            if i != j
        ]
        rows += [(f"total_less_two_doubles({i},{j})", total - 2 * a[i] - 2 * a[j]) for i, j in pairs]
    return [(cid, raw % n) for cid, raw in rows if not _coprime(raw % n, n)]


def test_violations_keep_ids_order_and_values():
    # the only change from the condition-by-condition list: the negatives
    # of total_less_two_doubles(0,1), (0,2) and (0,3) are no longer repeated
    repeats = {f"total_less_two_doubles({i},{j})" for i, j in ((2, 3), (1, 3), (1, 2))}
    rng = random.Random(31)
    for _ in range(1500):
        n = rng.choice([2, 3, 4, 5, 6, 7, 9, 11, 12, 13, 15, 17, 19, 25, 41, 101, 1000])
        d = rng.choice([2, 3, 4])
        v = vec([rng.randrange(1, n) for _ in range(d)], n)
        expected = [x for x in _reference_violations(v) if x[0] not in repeats]
        report = check(v)
        assert list(report.violations) == expected, v
        assert report.feasible == (not expected)


def test_each_direction_listed_once():
    from pandiag.params import DIRECTIONS

    for d in (2, 3, 4):
        rows = DIRECTIONS[d]
        assert len(rows) == (3**d - 1) // 2
        assert len({cid for cid, _ in rows}) == len(rows)
        seen = set()
        for _, u in rows:
            assert len(u) == d and set(u) <= {-1, 0, 1} and any(u)
            assert u not in seen and tuple(-c for c in u) not in seen
            seen.add(u)


def test_no_direction_reported_twice():
    # (1,..,1) fails exactly on the directions with as many -1s as +1s
    for d, n, count in ((2, 5, 1), (3, 5, 3), (4, 17, 9)):
        report = check(vec([1] * d, n))
        assert len(report.violations) == count
        assert len({cid for cid, _ in report.violations}) == count
    ids = [cid for cid, _ in check(vec([1, 1, 1, 1], 17)).violations]
    assert "total_less_two_doubles(0,1)" in ids
    assert "total_less_two_doubles(2,3)" not in ids


def test_pinned_ids_still_reported():
    from pandiag.params import DIRECTIONS

    pinned = {
        2: ["component(0)", "component(1)", "pair_sum(0,1)", "pair_diff(0,1)"],
        3: ["pair_sum(1,2)", "pair_diff(0,2)", "total", "total_less_double(2)"],
        4: [
            "total",
            "total_less_component(3)",
            "total_less_double(0)",
            "total_less_component_less_double(1,3)",
            "total_less_component_less_double(3,1)",
            "total_less_two_doubles(0,1)",
            "total_less_two_doubles(0,2)",
            "total_less_two_doubles(0,3)",
        ],
    }
    for d, ids in pinned.items():
        table = [cid for cid, _ in DIRECTIONS[d]]
        for cid in ids:
            assert cid in table, (d, cid)


def test_iter_feasible_yields_lazily(monkeypatch):
    from pandiag import params

    built = []
    trusted = params._trusted_vector

    def counting(alphas, order):
        built.append(alphas)
        return trusted(alphas, order)

    monkeypatch.setattr(params, "_trusted_vector", counting)
    it = params.iter_feasible(4, 41, canonical_only=True)
    first = [next(it) for _ in range(10)]
    assert len(built) == 10
    assert [v.alphas for v in first] == sorted(v.alphas for v in first)


def test_first_vector_costs_one_block_per_level(monkeypatch):
    from pandiag import params

    passes = []
    extend = params._extend

    def counting(block, level):
        passes.append(block.shape[1])
        return extend(block, level)

    monkeypatch.setattr(params, "_extend", counting)
    first = next(params.iter_feasible(4, 101, canonical_only=True))
    assert first.alphas == (1, 2, 4, 8)
    assert passes == [0, 1, 2, 3]
