import pytest

from durfee.marked import KMarkedSymbol, PartitionPair, is_valid
from durfee.partitions import enumerate_partitions, rank_distribution
from durfee.symbols import (
    DurfeeSymbol,
    Flavor,
    count_durfee_rank,
    durfee_rank_distribution,
    enumerate_durfee,
    frame_weight,
    from_durfee,
    part_cap,
    to_durfee,
)

# the five symbols of weight 4 in display order
FIVE_OF_FOUR = [
    DurfeeSymbol((1, 1, 1), (), 1),
    DurfeeSymbol((1, 1), (1,), 1),
    DurfeeSymbol((1,), (1, 1), 1),
    DurfeeSymbol((), (1, 1, 1), 1),
    DurfeeSymbol((), (), 2),
]


def test_five_symbols_of_four():
    assert list(enumerate_durfee(4)) == FIVE_OF_FOUR


def test_to_durfee_examples():
    assert to_durfee((2, 2)) == DurfeeSymbol((), (), 2)
    assert to_durfee((4,)) == DurfeeSymbol((1, 1, 1), (), 1)
    assert to_durfee((2, 1, 1)) == DurfeeSymbol((1,), (1, 1), 1)


def test_to_durfee_rejects_empty():
    with pytest.raises(ValueError, match="no Durfee square"):
        to_durfee(())


def test_from_durfee_examples():
    assert from_durfee(DurfeeSymbol((), (), 2)) == (2, 2)
    assert from_durfee(DurfeeSymbol((1, 1, 1), (), 1)) == (4,)
    assert from_durfee(DurfeeSymbol((1, 1), (1,), 1)) == (3, 1)


def test_from_durfee_rejects_odd_flavor():
    with pytest.raises(ValueError, match="no partition preimage"):
        from_durfee(DurfeeSymbol((1,), (), 0, Flavor.ODD))


def test_from_durfee_rejects_subscript_0():
    with pytest.raises(ValueError, match="^no Durfee square$"):
        from_durfee(DurfeeSymbol((), (), 0))


def test_round_trips():
    for n in range(1, 21):
        for p in enumerate_partitions(n):
            s = to_durfee(p)
            assert is_valid(KMarkedSymbol((PartitionPair(s.alpha, s.beta),), s.d, s.flavor))
            assert s.weight == n and s.rank == p[0] - len(p)
            assert from_durfee(s) == p
        for s in enumerate_durfee(n):
            assert to_durfee(from_durfee(s)) == s


def test_bijection_law():
    # symbol ranks match partition ranks for every positive weight
    for n in range(1, 26):
        assert durfee_rank_distribution(n) == rank_distribution(n)


def test_durfee_rank_distribution_is_read_only():
    with pytest.raises(TypeError):
        durfee_rank_distribution(4)[1] += 1
    assert durfee_rank_distribution(4)[1] == 1


def test_count_examples():
    assert count_durfee_rank(1, 4) == 1
    assert count_durfee_rank(0, 0) == 0  # the weight-0 corpus is empty
    assert count_durfee_rank(1, 2, Flavor.ODD) == 1
    assert count_durfee_rank(-1, 2, Flavor.ODD) == 1


def test_odd_corpus_small():
    assert list(enumerate_durfee(1, Flavor.ODD)) == [DurfeeSymbol((), (), 0, Flavor.ODD)]
    two = list(enumerate_durfee(2, Flavor.ODD))
    assert two == [
        DurfeeSymbol((1,), (), 0, Flavor.ODD),
        DurfeeSymbol((), (1,), 0, Flavor.ODD),
    ]


def test_odd_corpus_validity():
    for n in range(0, 17):
        for s in enumerate_durfee(n, Flavor.ODD):
            assert s.weight == n
            cap = part_cap(s.d, Flavor.ODD)
            assert all(x % 2 == 1 and x <= cap for x in s.alpha + s.beta)
            assert sum(s.alpha) + sum(s.beta) + frame_weight(s.d, Flavor.ODD) == n


def test_enumeration_unique_and_deterministic():
    for flavor in Flavor:
        for n in range(0, 13):
            corpus = list(enumerate_durfee(n, flavor))
            assert len(set(corpus)) == len(corpus)
            assert corpus == list(enumerate_durfee(n, flavor))
            assert all(s.weight == n for s in corpus)


def test_enumerate_guard_raises_before_the_first_symbol():
    with pytest.raises(ValueError, match="weight 41 exceeds the supported bound 40"):
        next(enumerate_durfee(41))
    assert next(enumerate_durfee(40)).weight == 40
