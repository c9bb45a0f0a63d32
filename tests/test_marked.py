import hashlib
from collections import Counter

import pytest

from durfee.marked import (
    KMarkedSymbol,
    PartitionPair,
    balanced_numbers,
    balanced_parts,
    count_kmarked,
    deficiencies,
    enumerate_kmarked,
    is_strict_shifted_pair,
    is_strict_shifted_symbol,
    is_valid,
    ith_rank,
    kmarked_rank_counts,
    kmarked_rank_distribution,
    rank_rows,
    total_kmarked,
    validate,
)
from durfee.moments import binom, marked_count_formula
from durfee.partitions import bounded_partitions, enumerate_partitions
from durfee.qseries import odd_rank_gf, rank_gf
from durfee.symbols import Flavor, enumerate_durfee, frame_weight, part_cap, subscript_range

# the 3-marked symbol of weight 55 used throughout as a fixture
SYM55 = KMarkedSymbol(
    (
        PartitionPair((2,), (2,)),
        PartitionPair((3, 3, 2), (3, 2)),
        PartitionPair((4, 4), (5,)),
    ),
    5,
)


def brute_corpus(n, k, flavor):
    """Every split of the weight into 2k bounded rows, filtered by validate;
    independent of the enumerator's constraint propagation."""
    out = set()
    odd = flavor is Flavor.ODD
    for d in subscript_range(n, flavor):
        rem = n - frame_weight(d, flavor)
        cap = part_cap(d, flavor)
        splits = []

        def rec(i, left, acc):
            if i == 0:
                if left == 0:
                    splits.append(tuple(acc))
                return
            for w in range(left + 1):
                for p in bounded_partitions(w, cap, odd):
                    acc.append(p)
                    rec(i - 1, left - w, acc)
                    acc.pop()

        rec(2 * k, rem, [])
        for rows in splits:
            s = KMarkedSymbol(
                tuple(PartitionPair(rows[2 * i], rows[2 * i + 1]) for i in range(k)), d, flavor
            )
            if validate(s).ok:
                out.add(s)
    return out


def test_weight_55_symbol():
    assert validate(SYM55).ok
    assert SYM55.weight == 55
    assert SYM55.ranks == (-1, 0, 1)
    assert ith_rank(SYM55, 1) == -1 and ith_rank(SYM55, 3) == 1
    with pytest.raises(ValueError):
        ith_rank(SYM55, 4)


def test_cap_violation_reported():
    bad = KMarkedSymbol(SYM55.vectors[:2] + (PartitionPair((4, 4), (6,)),), 5)
    res = validate(bad)
    assert not res
    assert "condition (3)" in res.reason and "6" in res.reason


def test_interlacing_edge_cases():
    # weight 4: the top vector may sit above a bare (1,1) first vector
    ok = KMarkedSymbol((PartitionPair((1, 1), ()), PartitionPair((1,), ())), 1)
    assert validate(ok).ok and ok.weight == 4
    # weight 5 variant breaks the upper bound 1 with a top entry 2
    bad = KMarkedSymbol((PartitionPair((2, 1), ()), PartitionPair((1,), ())), 1)
    res = validate(bad)
    assert not res and "condition (2)" in res.reason


ORD = Flavor.ORDINARY


@pytest.mark.parametrize(
    "vectors, d, flavor, reason",
    [
        # the smallest entry of a middle vector, here in its bottom row
        ((((3,), ()), ((4, 3), (2,)), ((5,), ())), 5, ORD, "vector 1 top entry 3 exceeds bound 2"),
        # vector k's smallest bottom entry when its top row is empty
        ((((4,), ()), ((), (3,))), 5, ORD, "vector 1 top entry 4 exceeds bound 3"),
        # the cap when vector k is empty
        ((((3,), ()), ((), ())), 2, ORD, "vector 1 top entry 3 exceeds bound 2"),
        ((((5,), ()), ((), ())), 1, Flavor.ODD, "vector 1 top entry 5 exceeds bound 3"),
        ((((2,), ()), ((3,), ()), ((), ())), 2, ORD, "vector 2 top entry 3 exceeds bound 2"),
    ],
)
def test_top_entry_bound_comes_from_the_vector_above(vectors, d, flavor, reason):
    s = KMarkedSymbol(tuple(PartitionPair(*v) for v in vectors), d, flavor)
    assert validate(s).reason == f"condition (2): {reason}"


def test_empty_vector_one_rejected():
    bad = KMarkedSymbol((PartitionPair((), ()), PartitionPair((1,), ())), 1)
    res = validate(bad)
    assert not res and "condition (1)" in res.reason


def test_odd_parity_enforced():
    bad = KMarkedSymbol((PartitionPair((2,), ()),), 1, Flavor.ODD)
    res = validate(bad)
    assert not res and "even" in res.reason


def test_enumerate_against_validate_filter():
    for k in (1, 2, 3):
        for n in range(0, 9):
            assert set(enumerate_kmarked(n, k)) == brute_corpus(n, k, Flavor.ORDINARY), (n, k)
    for k in (1, 2):
        for n in range(0, 10):
            assert set(enumerate_kmarked(n, k, Flavor.ODD)) == brute_corpus(n, k, Flavor.ODD)


def test_one_marked_agrees_with_plain_enumeration():
    for flavor in Flavor:
        for n in range(0, 11):
            a = [(s.vectors[0].alpha, s.vectors[0].beta, s.d) for s in enumerate_kmarked(n, 1, flavor)]
            b = [(s.alpha, s.beta, s.d) for s in enumerate_durfee(n, flavor)]
            assert a == b


def test_weight_4_table():
    dist = kmarked_rank_distribution(4, 2)
    assert sum(dist.values()) == 10
    assert dist == {
        (0, 0): 2,
        (2, 0): 1, (-2, 0): 1, (0, 2): 1, (0, -2): 1,
        (1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1,
    }


def test_weight_3_total_matches_formula():
    # four symbols, one per unit rank vector; the count agrees with the
    # closed formula (which sums to 4 here)
    dist = kmarked_rank_distribution(3, 2)
    assert sum(dist.values()) == 4
    assert dist == {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    assert sum(marked_count_formula(m, 3) for m in dist) == 4


def test_count_examples():
    assert count_kmarked((0, 0), 4) == 2
    assert count_kmarked((1, 1), 4) == 1
    assert count_kmarked((1, 0), 4) == 0
    assert total_kmarked(4, 2) == 10


def test_count_kmarked_rejects_an_empty_rank_vector():
    with pytest.raises(ValueError, match="^rank vector must have length k >= 1$"):
        count_kmarked((), 4)


@pytest.mark.parametrize("m", [(1, 0.0), (1.0, 0), (True, 0)], ids=["float-last", "float", "bool"])
def test_count_kmarked_rejects_entries_that_are_not_ints(m):
    # after the equal int vector, whose table is cached: a table key takes 1.0 and True for 1
    assert count_kmarked((1, 0), 6) == 1
    for _ in range(2):
        with pytest.raises(ValueError, match="^rank vector entries must be ints$"):
            count_kmarked(m, 6)


def test_rank_count_formula_sweep():
    for k in (2, 3):
        for n in range(0, 11):
            dist = kmarked_rank_distribution(n, k)
            for m, c in dist.items():
                assert c == marked_count_formula(m, n), (n, k, m)


def test_balanced_parts_examples():
    assert balanced_parts(PartitionPair((4, 3, 3, 1, 1), (3, 2, 2))) == {1}
    assert balanced_parts(PartitionPair((6, 5, 5, 3, 3, 2), (5, 4, 4, 3))) == {1, 4}
    assert balanced_parts(PartitionPair((3, 2), ())) == frozenset()


def _balanced_parts_by_sum_scan(pair):
    """The quadratic definition: count the larger top parts afresh per part."""
    alpha, beta = pair
    balanced, unbalanced_seen = set(), 0
    for j, bj in enumerate(beta, start=1):
        fits = j >= len(alpha) or alpha[j] <= bj
        if fits and sum(1 for a in alpha[1:] if a > bj) == unbalanced_seen:
            balanced.add(j)
        else:
            unbalanced_seen += 1
    return balanced


def test_balanced_parts_matches_the_sum_scan():
    pairs = 0
    for total in range(15):
        for a in range(total + 1):
            for alpha in enumerate_partitions(a):
                for beta in enumerate_partitions(total - a):
                    pair = PartitionPair(alpha, beta)
                    assert balanced_parts(pair) == _balanced_parts_by_sum_scan(pair), pair
                    pairs += 1
    assert pairs == 7567


def test_deficiencies_examples():
    assert deficiencies(PartitionPair((4, 3, 3, 1, 1), (3, 2, 2))) == (0, 2, 1)
    assert deficiencies(PartitionPair((5,), ())) == ()
    pair = PartitionPair((6, 5, 5, 3, 3, 2), (5, 4, 4, 3))
    defs = deficiencies(pair)
    assert all(d >= 0 for d in defs)
    assert {j + 1 for j, d in enumerate(defs) if d == 0} >= balanced_parts(pair)


def test_balanced_numbers_paper_symbol():
    s = KMarkedSymbol(
        (
            PartitionPair((2, 2, 1), (2, 1)),
            PartitionPair((3, 2, 2), (3, 2)),
            PartitionPair((4, 4), (5,)),
        ),
        5,
    )
    assert is_valid(s) and s.weight == 58
    assert balanced_numbers(s) == (1, 2, 0)
    assert balanced_numbers(KMarkedSymbol((PartitionPair((1,), ()),), 1)) == (0,)


def test_strict_shifted_pairs():
    assert is_strict_shifted_pair(PartitionPair((3, 3, 3, 2, 2, 1), (2, 1, 1, 1)))
    assert not is_strict_shifted_pair(PartitionPair((2, 2), (2,)))
    assert is_strict_shifted_pair(PartitionPair((6, 5, 5, 5, 3, 3, 3, 2), (4, 4)))
    assert not is_strict_shifted_pair(PartitionPair((), ()))


def test_strict_shifted_symbols():
    assert not is_strict_shifted_symbol(SYM55)  # first vector has equal lengths
    assert is_strict_shifted_symbol(KMarkedSymbol((PartitionPair((2,), (2,)),), 2))


def test_odd_flavor_formula_spot_checks():
    for n in range(0, 13):
        dist = kmarked_rank_distribution(n, 2, Flavor.ODD)
        for m, c in dist.items():
            assert c == marked_count_formula(m, n, Flavor.ODD), (n, m)
    assert total_kmarked(2, 2, Flavor.ODD) == 1


# sha256 of repr([(s.vectors, s.d) ...]) over every symbol of weight <= 10,
# recorded when the enumerator still built each vector tuple from index k
# down and reversed it: (flavor, k) -> (symbols, digest)
GOLDEN_ORDER = {
    ("ordinary", 1): (138, "53fc5e39f718f31f59f678a060a7f6c59cd74964cd741215eb979f194f0d5ea6"),
    ("ordinary", 2): (756, "2cfdfffa22a931fb2cbef61c053a7dbde85de7b74a92f5f37e6763ff7e16ecb9"),
    ("ordinary", 3): (2052, "d00513a2841323c05f4942984df1149017bff5431051c798778479a6843b15b4"),
    ("ordinary", 4): (3224, "f993f3dd5fdb7d8e9a70d5ff8050865b98c590d9bf03330770c6ce3e2f9fa986"),
    ("odd", 1): (88, "b03dbf5e1576c3008d4bec2fad85b3bbd2ee13adbe37ecbfc40c6ad0fe3f35b9"),
    ("odd", 2): (581, "2e8307853e364db5be4f0285ada7e1b55ddd26bc7343863aef896d6bcc5771b4"),
    ("odd", 3): (1807, "c26b0cb3499381161d4ba0842a059d1cca10fc322b9b5a3fb24f013c1c9531e2"),
    ("odd", 4): (3049, "fc8f53aff07029fd5a3e971b7a4170f4289d7a87c1e2529d6b27020e3657a028"),
}


@pytest.mark.parametrize("flavor, k", sorted(GOLDEN_ORDER))
def test_enumeration_order_is_pinned(flavor, k):
    symbols = [s for n in range(11) for s in enumerate_kmarked(n, k, Flavor(flavor))]
    assert all(type(s.vectors) is tuple and len(s.vectors) == k for s in symbols)
    rows = [(s.vectors, s.d) for s in symbols]
    assert (len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()) == GOLDEN_ORDER[flavor, k]


# (n, k, flavor) -> (symbol count, sha256 of repr([(s.vectors, s.d) ...])),
# recorded from the one-vector-per-frame enumerator: past n = 10, where many
# vectors 2..k leave vector 1 the same weight and bound.
GOLDEN_ORDER_PAST_TEN = {
    (16, 3, "ordinary"): (18976, "2a6292424c379eb37995fbd8d99bbdc667e7a5ae89a040d5991e4739d73e8e8f"),
    (14, 4, "ordinary"): (26423, "84aaf1ffc77318b2f19f5b666c82b29b2752c3cc9883f2a1c83ec36a4eaeec8b"),
    (25, 2, "odd"): (11824, "3880ac32b88af99fc3ec0f313f792fc7f95655b4bc6c318da687d0eee13aeee4"),
}


@pytest.mark.parametrize("n, k, flavor", sorted(GOLDEN_ORDER_PAST_TEN))
def test_enumeration_order_is_pinned_past_ten(n, k, flavor):
    rows = [(s.vectors, s.d) for s in enumerate_kmarked(n, k, Flavor(flavor))]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert (len(rows), digest) == GOLDEN_ORDER_PAST_TEN[n, k, flavor]


@pytest.mark.parametrize("flavor", list(Flavor))
def test_block_tally_matches_symbol_ranks(flavor):
    # The oracle tallies blocks without building a symbol; every symbol's own
    # ranks must give the same table.
    for n in range(13):
        for k in range(1, 5):
            expected = Counter(s.ranks for s in enumerate_kmarked(n, k, flavor))
            assert dict(kmarked_rank_distribution(n, k, flavor)) == expected, (n, k)


def test_enumerate_requires_positive_k():
    with pytest.raises(ValueError):
        list(enumerate_kmarked(3, 0))


def test_enumerate_guard_raises_before_the_first_symbol():
    with pytest.raises(ValueError, match="weight 41 exceeds the supported bound 40"):
        next(enumerate_kmarked(41, 2))
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        next(enumerate_kmarked(-1, 2))


@pytest.mark.parametrize(
    "flavor,k,max_n",
    [
        (Flavor.ORDINARY, 1, 22),
        (Flavor.ORDINARY, 2, 22),
        (Flavor.ORDINARY, 3, 22),
        (Flavor.ORDINARY, 4, 18),
        (Flavor.ORDINARY, 5, 12),  # two middle vectors
        (Flavor.ODD, 1, 22),
        (Flavor.ODD, 2, 22),
        (Flavor.ODD, 3, 22),
        (Flavor.ODD, 4, 16),
        (Flavor.ODD, 5, 13),
    ],
)
def test_rank_counts_match_enumeration(flavor, k, max_n):
    for n in range(max_n + 1):
        assert kmarked_rank_counts(n, k, flavor) == kmarked_rank_distribution(n, k, flavor), n


@pytest.mark.parametrize("flavor,series", [(Flavor.ORDINARY, rank_gf), (Flavor.ODD, odd_rank_gf)])
def test_rank_counts_match_formula_past_enumeration(flavor, series):
    # Weight 50 is past the enumeration guard, so the singly-marked counts
    # N(m, 50) in the closed formula come from the rank series instead.
    n = 50
    plain = [series(m, n)[n] for m in range(n + 1)]
    expected = {}
    for m1 in range(-n, n + 1):
        for m2 in range(-n, n + 1):
            count = sum(plain[s] for s in range(abs(m1) + abs(m2) + 1, n + 1, 2))
            if count:
                expected[(m1, m2)] = count
    assert kmarked_rank_counts(n, 2, flavor) == expected


def _vectors_within(k, budget):
    """Every integer vector of length ``k`` whose entries' absolute values sum
    to at most ``budget``."""
    if k == 0:
        yield ()
        return
    for x in range(-budget, budget + 1):
        for rest in _vectors_within(k - 1, budget - abs(x)):
            yield (x,) + rest


@pytest.mark.parametrize("flavor,series", [(Flavor.ORDINARY, rank_gf), (Flavor.ODD, odd_rank_gf)])
@pytest.mark.parametrize("n,k", [(30, 3), (22, 4), (20, 5)])
def test_marked_rank_counts_match_formula_past_enumeration(flavor, series, n, k):
    # The whole table against sum_j binom(j + k - 2, k - 2) N(|m|_1 + 2j + k - 1, n),
    # with N from the rank series.  The formula vanishes once |m|_1 + k - 1
    # exceeds n.  (30, 3) reaches subscript 5, which the enumeration cases
    # above never meet; (20, 5) reaches subscript 4 (2 in the odd flavor),
    # which no k = 5 enumeration case meets, and takes three walk steps
    # before the fold.
    plain = [series(s, n)[n] for s in range(n + 1)]
    tail = [
        sum(binom(j + k - 2, k - 2) * plain[s + 2 * j] for j in range((n - s) // 2 + 1))
        for s in range(n + 1)
    ]
    expected = {}
    for m in _vectors_within(k, n - k + 1):
        count = tail[sum(map(abs, m)) + k - 1]
        if count:
            expected[m] = count
    assert kmarked_rank_counts(n, k, flavor) == expected


@pytest.mark.parametrize("flavor,series", [(Flavor.ORDINARY, rank_gf), (Flavor.ODD, odd_rank_gf)])
def test_single_vector_counts_match_rank_series_past_enumeration(flavor, series):
    n = 120
    expected = {(m,): c for m in range(-n, n + 1) if (c := series(m, n)[n])}
    assert kmarked_rank_counts(n, 1, flavor) == expected


@pytest.mark.parametrize("flavor,series", [(Flavor.ORDINARY, rank_gf), (Flavor.ODD, odd_rank_gf)])
@pytest.mark.parametrize("n,k", [(40, 2), (60, 2), (28, 3), (20, 4)])
def test_marked_totals_match_symmetrized_moment_past_enumeration(flavor, series, n, k):
    # (k+1)-marked symbols of n number the 2k-th symmetrized moment of the
    # ranks, sum_m binom(m + floor((2k-1)/2), 2k) N(m, n); past the
    # enumeration guard N(m, n) comes from the rank series.
    moment = sum(binom(m + (2 * k - 1) // 2, 2 * k) * series(m, n)[n] for m in range(-n, n + 1))
    assert total_kmarked(n, k + 1, flavor) == moment


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rank_rows_stream_the_table_in_ascending_order(flavor, k):
    # Flattened, the (prefix, ranks, counts) runs are the rows of the table,
    # each once, in ascending order; the enumeration oracle gives the table.
    for n in range(17):
        rows = [
            ((*prefix, r), c)
            for prefix, ranks, counts in rank_rows(n, k, flavor)
            for r, c in zip(ranks, counts, strict=True)
        ]
        keys = [m for m, _ in rows]
        assert all(a < b for a, b in zip(keys, keys[1:])), n
        assert rows == sorted(kmarked_rank_distribution(n, k, flavor).items()), n


def test_rank_counts_reject_bad_input():
    with pytest.raises(ValueError, match="nonnegative"):
        kmarked_rank_counts(-3, 2)
    with pytest.raises(ValueError, match="k must be"):
        kmarked_rank_counts(4, 0)


@pytest.mark.parametrize("table", [kmarked_rank_counts, kmarked_rank_distribution])
def test_cached_rank_tables_are_read_only(table):
    with pytest.raises(TypeError):
        table(4, 2)[(0, 0)] += 1
    assert table(4, 2)[(0, 0)] == 2
