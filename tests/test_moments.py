import pytest
from hypothesis import given, strategies as st

from durfee.marked import count_kmarked
from durfee.moments import (
    _flavor_distribution,
    binom,
    check_moment_identity,
    marked_count_formula,
    rank_moment,
    solution_count,
    solution_count_brute,
    symmetrized_moment,
)
from durfee.partitions import rank_distribution
from durfee.qseries import odd_rank_gf, rank_gf
from durfee.symbols import Flavor, durfee_rank_distribution


@pytest.mark.parametrize(
    "a,b,expected",
    [(-1, 2, 1), (7, 0, 1), (-3, 2, 6), (5, 2, 10), (-2, 3, -4), (3, 5, 0)],
)
def test_binom_examples(a, b, expected):
    assert binom(a, b) == expected


def test_binom_rejects_negative_lower():
    with pytest.raises(ValueError):
        binom(3, -1)


@given(st.integers(-20, 20), st.integers(1, 5))
def test_binom_reflection(m, k):
    assert binom(-m + k - 1, 2 * k) == binom(m + k, 2 * k)


@given(st.integers(0, 25), st.integers(0, 8))
def test_binom_matches_comb_on_nonnegatives(a, b):
    from math import comb

    assert binom(a, b) == comb(a, b)


def test_rank_moments():
    for n in range(0, 21):
        assert rank_moment(1, n) == 0
        assert rank_moment(3, n) == 0
    assert rank_moment(2, 4) == 20
    assert rank_moment(2, 0) == 0


def test_symmetrized_moment_examples():
    assert symmetrized_moment(2, 4) == 10
    assert symmetrized_moment(2, 0) == 0
    assert symmetrized_moment(2, 3) == 4
    assert symmetrized_moment(2, 2, Flavor.ODD) == 1


def test_moment_identity_small():
    for n in range(0, 13):
        for k in (1, 2):
            res = check_moment_identity(k, n)
            assert res.equal, (k, n, res)
    res = check_moment_identity(1, 4)
    assert res.marked_total == 10 and res.moment == 10
    for n in range(0, 12):
        assert check_moment_identity(1, n, Flavor.ODD).equal
    assert check_moment_identity(1, 0).marked_total == 0


def test_solution_count_examples():
    assert solution_count(0, 1) == 1
    assert solution_count(0, 3) == 1
    assert solution_count(1, 1) == 4
    assert solution_count(2, 1) == 9


def test_solution_count_matches_brute_force():
    for k in (1, 2, 3):
        for n in range(0, 11):
            assert solution_count(n, k) == solution_count_brute(n, k), (n, k)


def test_marked_count_formula_examples():
    assert marked_count_formula((0, 0), 4) == 2
    assert marked_count_formula((1, 1), 4) == 1
    assert marked_count_formula((5, 5), 4) == 0
    assert marked_count_formula((-1, 1), 4) == 1  # signs are immaterial
    with pytest.raises(ValueError):
        marked_count_formula((1,), 4)


def test_rank_counts_from_the_series_match_enumeration():
    for n in range(31):
        assert _flavor_distribution(n, Flavor.ORDINARY) == rank_distribution(n), n
        assert _flavor_distribution(n, Flavor.ODD) == durfee_rank_distribution(n, Flavor.ODD), n
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        symmetrized_moment(2, -1)


def test_rank_counts_match_the_rank_series():
    # _flavor_distribution reads the numerators, not the series themselves.
    for flavor, series in ((Flavor.ORDINARY, rank_gf), (Flavor.ODD, odd_rank_gf)):
        for m in range(-60, 61):
            coeffs = series(m, 60).coeffs
            assert [_flavor_distribution(n, flavor).get(m, 0) for n in range(61)] == coeffs, m


@pytest.mark.parametrize(
    "k, n, flavor, total",
    [
        (1, 60, Flavor.ORDINARY, 51_843_459),
        (2, 40, Flavor.ORDINARY, 26_754_112),
        (1, 60, Flavor.ODD, 3_017_988),
        (2, 40, Flavor.ODD, 5_382_020),
    ],
)
def test_moment_identity_past_enumeration(k, n, flavor, total):
    # Past the weight guard of 40 (or at it) both sides come from counting:
    # the transfer DP for the marked total, the rank series for the moment.
    assert check_moment_identity(k, n, flavor) == (True, total, total)


def test_marked_count_formula_past_enumeration():
    for m in [(0, 0), (1, -2), (3, 5), (-7, 0)]:
        assert marked_count_formula(m, 50) == count_kmarked(m, 50) > 0, m
