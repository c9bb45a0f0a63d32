import pytest
from hypothesis import given, strategies as st

from durfee.marked import count_kmarked, kmarked_rank_counts
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
from durfee.partitions import count_rank, rank_distribution
from durfee.qseries import odd_rank_gf, rank_gf
from durfee.symbols import Flavor, count_durfee_rank, durfee_rank_distribution


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
    for k in range(1, 6):
        for n in range(0, 31):
            assert solution_count(n, k) == solution_count_brute(n, k), (n, k)


def test_marked_count_formula_examples():
    assert marked_count_formula((0, 0), 4) == 2
    assert marked_count_formula((1, 1), 4) == 1
    assert marked_count_formula((5, 5), 4) == 0
    assert marked_count_formula((-1, 1), 4) == 1  # signs are immaterial
    with pytest.raises(ValueError):
        marked_count_formula((1,), 4)


# a negative weight raises in every counting entry point, the formula included
@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: marked_count_formula((5, 5), -1), "^weight must be nonnegative$"),
        (lambda: marked_count_formula((5, 5), -1, Flavor.ODD), "^weight must be nonnegative$"),
        (lambda: count_kmarked((5, 5), -1), "^weight must be nonnegative$"),
        (lambda: kmarked_rank_counts(-1, 2), "^weight must be nonnegative$"),
        (lambda: symmetrized_moment(2, -1), "^weight must be nonnegative$"),
        (lambda: marked_count_formula((1,), -1), "^rank vector must have length k >= 2$"),
    ],
    ids=[
        "formula-negative-n", "formula-odd-negative-n", "count-negative-n", "counts-negative-n",
        "moment-negative-n", "formula-short-vector-first",
    ],
)
def test_public_errors(call, match):
    # twice: the formula's table memo must not remember a rejected input
    for _ in range(2):
        with pytest.raises(ValueError, match=match):
            call()


def _signed_ball(k: int, radius: int) -> list[tuple[int, ...]]:
    """Every integer vector of length k with sum_i |m_i| <= radius."""
    ball = [((), radius)]
    for _ in range(k):
        ball = [(m + (x,), left - abs(x)) for m, left in ball for x in range(-left, left + 1)]
    return [m for m, _ in ball]


@pytest.mark.parametrize("flavor", list(Flavor))
def test_marked_count_formula_is_the_sum_it_tabulates(flavor):
    # The formula reads one table per (n, k, flavor) at sum_i |m_i|; every
    # vector of the signed l1 ball of radius n - k + 1, and one just outside
    # it, must read the j-sum over singly-marked rank counts N(r, n), which
    # are enumerated here (N vanishes past r = n, so j may run to n).
    if flavor is Flavor.ORDINARY:
        count = count_rank
    else:
        count = lambda r, n: count_durfee_rank(r, n, flavor)
    for k in range(2, 6):
        for n in range(25):
            radius = max(0, n - k + 1)
            want = [
                sum(binom(j + k - 2, k - 2) * count(s + 2 * j + k - 1, n) for j in range(n + 1))
                for s in range(radius + 2)
            ]
            assert want[-1] == 0, (k, n)
            # past k = 3 the whole ball only up to n = 14 (near 10^5 vectors), then its
            # vectors that are zero past the first two entries
            ball = _signed_ball(k, radius) if k <= 3 or n <= 14 else [
                (*m, *[0] * (k - 2)) for m in _signed_ball(2, radius)
            ]
            for m in ball + [(0,) * (k - 1) + (-(radius + 1),)]:
                got = marked_count_formula(m, n, flavor)
                assert got == want[sum(map(abs, m))], (k, n, m)


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
            assert tuple(_flavor_distribution(n, flavor).get(m, 0) for n in range(61)) == coeffs, m


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
