import pytest
from hypothesis import given, strategies as st

from durfee.partitions import (
    bounded_partitions,
    bounded_partitions_upto,
    conjugate,
    count_rank,
    durfee_side,
    enumerate_partitions,
    is_partition,
    rank,
    rank_distribution,
)


def pentagonal_counts(limit):
    """Independent oracle: partition counts via the pentagonal-number
    recurrence, no enumeration involved."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total, j = 0, 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if j % 2 == 1 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return p


PENTAGONAL = pentagonal_counts(30)

partitions_st = st.lists(st.integers(1, 12), max_size=10).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_counts_match_pentagonal_recurrence():
    assert PENTAGONAL[10] == 42
    for n in range(31):
        assert len(enumerate_partitions(n)) == PENTAGONAL[n]


def test_enumeration_canonical_order():
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    for n in range(12):
        parts = enumerate_partitions(n)
        assert len(set(parts)) == len(parts)
        assert list(parts) == sorted(parts, reverse=True)
        assert all(is_partition(p) and sum(p) == n for p in parts)


def test_weight_guard():
    with pytest.raises(ValueError):
        enumerate_partitions(41)
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


@pytest.mark.parametrize(
    "p,expected",
    [((2, 2), 0), ((), 0), ((4,), 3), ((1, 1, 1, 1), -3), ((3, 1), 1)],
)
def test_rank_examples(p, expected):
    assert rank(p) == expected


def test_count_rank_examples():
    assert count_rank(0, 4) == 1
    assert count_rank(-3, 4) == 1
    assert count_rank(5, 4) == 0


def test_rank_distribution_sums_and_symmetry():
    for n in range(0, 31):
        dist = rank_distribution(n)
        assert sum(dist.values()) == PENTAGONAL[n]
        for m, c in dist.items():
            assert dist.get(-m) == c


def test_rank_distribution_is_read_only():
    with pytest.raises(TypeError):
        rank_distribution(4)[0] += 1
    assert rank_distribution(4)[0] == 1


@pytest.mark.parametrize(
    "p,expected",
    [((3, 1), (2, 1, 1)), ((), ()), ((2, 2), (2, 2)), ((5,), (1, 1, 1, 1, 1))],
)
def test_conjugate_examples(p, expected):
    assert conjugate(p) == expected


@given(partitions_st)
def test_conjugate_involution_and_rank_negation(p):
    assert conjugate(conjugate(p)) == p
    assert rank(conjugate(p)) == -rank(p)
    assert sum(conjugate(p)) == sum(p)


def test_conjugate_involution_exhaustive():
    for n in range(0, 21):
        for p in enumerate_partitions(n):
            assert conjugate(conjugate(p)) == p
            assert rank(conjugate(p)) == -rank(p)


@pytest.mark.parametrize(
    "p,expected", [((4, 3, 1), 2), ((1, 1, 1), 1), ((), 0), ((3, 3, 3), 3)]
)
def test_durfee_side(p, expected):
    assert durfee_side(p) == expected


@given(partitions_st)
def test_durfee_side_is_maximal(p):
    d = durfee_side(p)
    assert all(p[i] >= i + 1 for i in range(d))
    assert d == len(p) or p[d] < d + 1


def test_bounded_partitions():
    assert bounded_partitions(4, 2) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert bounded_partitions(4, 3, odd_only=True) == ((3, 1), (1, 1, 1, 1))
    assert bounded_partitions(3, 0) == ()
    assert bounded_partitions(0, 0) == ((),)


def test_bounded_partitions_upto():
    rows = bounded_partitions_upto(3, 2)
    assert rows == ((2, 1), (2,), (1, 1, 1), (1, 1), (1,), ())
    assert rows[-1] == ()  # the empty partition sorts last
    assert bounded_partitions_upto(-1, 5) == ()
