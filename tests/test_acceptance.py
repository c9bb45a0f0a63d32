"""Acceptance criteria, one test per criterion, every comparison exact.

Each test prints a single PASS line on success (visible with ``pytest -s``
or in the captured-output section on failure).  The bounds below are the
contractual ones; the unit-test modules cover the same ground at smaller
sizes.
"""

from itertools import product

from durfee.bijections import (
    flip_rank,
    from_strict_shifted,
    merge_marks,
    permute_ranks,
    split_marks,
    subscript_minima,
    subscripts,
    symbol_from_strict_shifted,
    symbol_to_strict_shifted,
    to_strict_shifted,
)
from durfee.marked import (
    KMarkedSymbol,
    PartitionPair,
    balanced_numbers,
    balanced_parts,
    deficiencies,
    enumerate_kmarked,
    is_strict_shifted_pair,
    is_strict_shifted_symbol,
    is_valid,
    kmarked_rank_distribution,
    total_kmarked,
    validate,
)
from durfee.moments import (
    check_moment_identity,
    marked_count_formula,
    solution_count,
    solution_count_brute,
    symmetrized_moment,
)
from durfee.partitions import count_rank, enumerate_partitions, rank_distribution
from durfee.qseries import (
    marked_rank_gf,
    marked_rank_gf_partial_fractions,
    marked_rank_gf_product,
    odd_rank_gf,
    rank_gf,
)
from durfee.symbols import (
    DurfeeSymbol,
    Flavor,
    durfee_rank_distribution,
    enumerate_durfee,
)
from durfee.verify import _rank_vectors

SYM55 = KMarkedSymbol(
    (
        PartitionPair((2,), (2,)),
        PartitionPair((3, 3, 2), (3, 2)),
        PartitionPair((4, 4), (5,)),
    ),
    5,
)

ETA68 = KMarkedSymbol(
    (
        PartitionPair((1,), (1, 1)),
        PartitionPair((3, 3, 2, 2, 1), (3, 3, 1)),
        PartitionPair((6,), (5,)),
    ),
    6,
)


def all_rank_vectors(n, k):
    lim = max(0, n - k + 1)
    for m in product(range(-lim, lim + 1), repeat=k):
        if sum(abs(x) for x in m) <= lim:
            yield m


def pairs_upto(total):
    for t in range(total + 1):
        for a in range(t + 1):
            for pa in enumerate_partitions(a):
                for pb in enumerate_partitions(t - a):
                    yield PartitionPair(pa, pb)


def test_criterion_01_marked_symbol_of_55():
    assert validate(SYM55).ok
    assert SYM55.weight == 55
    assert SYM55.ranks == (-1, 0, 1)
    print("criterion 01: PASS - the 3-marked symbol of 55 validates with ranks (-1, 0, 1)")


def test_criterion_02_durfee_bijection():
    for n in range(1, 26):
        assert durfee_rank_distribution(n) == rank_distribution(n), n
    expected = [
        DurfeeSymbol((1, 1, 1), (), 1),
        DurfeeSymbol((1, 1), (1,), 1),
        DurfeeSymbol((1,), (1, 1), 1),
        DurfeeSymbol((), (1, 1, 1), 1),
        DurfeeSymbol((), (), 2),
    ]
    assert list(enumerate_durfee(4)) == expected
    print("criterion 02: PASS - symbol ranks match partition ranks for n <= 25; the five symbols of 4 are verbatim")


def test_criterion_03_split_illustration_weight_86():
    ds = DurfeeSymbol((6, 6, 3, 3, 3, 3, 2, 2, 1, 1, 1), (5, 5, 4, 2, 1, 1, 1), 6)
    s = split_marks(ds, (1, 1, 0))
    assert s.vectors == (
        PartitionPair((1, 1), ()),
        PartitionPair((3, 3, 3, 2, 2, 1), (2, 1, 1, 1)),
        PartitionPair((6, 6, 3), (5, 5, 4)),
    )
    assert s.weight == 86 and s.ranks == (1, 1, 0)
    assert is_valid(s) and is_strict_shifted_symbol(s)
    assert merge_marks(s) == ds
    print("criterion 03: PASS - the split illustration of weight 86 is reproduced and inverted")


def test_criterion_04_balanced_transfer_examples():
    forward = PartitionPair((6, 5, 5, 3, 3, 2), (5, 4, 4, 3))
    assert balanced_parts(forward) == {1, 4}
    assert to_strict_shifted(forward) == PartitionPair((6, 5, 5, 5, 3, 3, 3, 2), (4, 4))
    reverse = PartitionPair((6, 5, 5, 5, 3, 3, 3, 2, 1), (4, 4, 3))
    assert subscripts(reverse) == (0, 0, 1, 2, 0, 1, 2, 3, 4)
    assert subscript_minima(reverse)[:2] == (3, 3)
    assert from_strict_shifted(reverse, 2) == PartitionPair((6, 5, 5, 5, 3, 2, 1), (4, 4, 3, 3, 3))
    assert to_strict_shifted(from_strict_shifted(reverse, 2)) == reverse
    print("criterion 04: PASS - both balanced-transfer examples, the label sequence, and the moved parts (3, 3) agree")


def test_criterion_05_symmetry_chain_weight_68():
    assert ETA68.weight == 68 and ETA68.ranks == (-2, 1, 0) and is_valid(ETA68)
    step1 = flip_rank(ETA68, 1)
    assert step1.vectors[0] == PartitionPair((1, 1, 1), ()) and step1.ranks == (2, 1, 0)
    assert balanced_numbers(step1) == (0, 2, 0)
    step2 = symbol_to_strict_shifted(step1)
    assert step2.vectors[1] == PartitionPair((3, 3, 3, 3, 2, 2, 1), (1,))
    assert step2.ranks == (2, 5, 0) and is_strict_shifted_symbol(step2)
    step3 = merge_marks(step2)
    assert step3 == DurfeeSymbol((6, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1), (5, 1), 6)
    assert step3.rank == 9
    step4 = split_marks(step3, (1, 6, 0))
    assert step4.vectors == (
        PartitionPair((1, 1), ()),
        PartitionPair((3, 3, 3, 3, 2, 2, 1, 1), (1,)),
        PartitionPair((6,), (5,)),
    )
    step5 = symbol_from_strict_shifted(step4, (0, 2, 0))
    assert step5.vectors == (
        PartitionPair((1, 1), ()),
        PartitionPair((3, 3, 2, 2, 1, 1), (3, 3, 1)),
        PartitionPair((6,), (5,)),
    )
    final = flip_rank(step5, 2)
    assert final.vectors == (
        PartitionPair((1, 1), ()),
        PartitionPair((3, 3, 3, 1), (3, 2, 2, 1, 1)),
        PartitionPair((6,), (5,)),
    )
    assert final.ranks == (1, -2, 0) and final.weight == 68 and is_valid(final)
    assert permute_ranks(ETA68, (2, 1, 3)) == final
    print("criterion 05: PASS - all five intermediates of the weight-68 chain are reproduced, ending at ranks (1, -2, 0)")


def test_criterion_06_rank_count_formula():
    for k in (2, 3):
        for n in range(0, 15):
            dist = kmarked_rank_distribution(n, k)
            vectors = set(dist) | set(all_rank_vectors(n, k))
            for m in vectors:
                assert dist.get(m, 0) == marked_count_formula(m, n), (k, n, m)
    table = kmarked_rank_distribution(4, 2)
    assert sum(table.values()) == 10
    assert table == {
        (0, 0): 2,
        (2, 0): 1, (-2, 0): 1, (0, 2): 1, (0, -2): 1,
        (1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1,
    }
    print("criterion 06: PASS - counts match the formula for every rank vector, k in {2, 3}, n <= 14; the weight-4 table holds")


def test_verify_rank_vectors_are_the_filtered_cube():
    # verify's candidate vectors: the observed ones, then the l1 ball, which
    # it builds directly; the set and its iteration order are those of
    # filtering the cube, so every check meets its first counterexample first
    for k in (2, 3):
        for n in range(0, 15):
            observed = {(n + 1,) * k: 1, (0,) * k: 2, (-1,) * k: 3}
            for signed in (True, False):
                want = set(observed)
                for m in all_rank_vectors(n, k):
                    if signed or min(m) >= 0:
                        want.add(m)
                got = _rank_vectors(n, k, observed, signed)
                assert got == want and list(got) == list(want), (k, n, signed)


def test_criterion_07_rank_symmetry():
    from itertools import permutations

    for k in (2, 3):
        for n in range(0, 15):
            dist = kmarked_rank_distribution(n, k)
            for m, c in dist.items():
                for perm in permutations(m):
                    for signs in product((1, -1), repeat=k):
                        image = tuple(s * x for s, x in zip(signs, perm))
                        assert dist.get(image, 0) == c, (k, n, m, image)
    for k in (2, 3):
        transpositions = []
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                perm = list(range(1, k + 1))
                perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
                transpositions.append(tuple(perm))
        for n in range(0, 13):
            corpus = list(enumerate_kmarked(n, k))
            members = set(corpus)
            for perm in transpositions:
                images = [permute_ranks(s, perm) for s in corpus]
                assert len(set(images)) == len(corpus)
                assert set(images) == members
                for s, im in zip(corpus, images):
                    assert im.ranks == tuple(s.ranks[p - 1] for p in perm)
    print("criterion 07: PASS - count tables are permutation- and sign-invariant (n <= 14); the composite map is a corpus bijection for transpositions (n <= 12)")


def test_criterion_08_moment_identities():
    for k in (1, 2):
        for n in range(0, 17):
            res = check_moment_identity(k, n)
            assert res.equal, (k, n, res)
    assert symmetrized_moment(2, 4) == 10 and total_kmarked(4, 2) == 10
    for k in (1, 2, 3):
        for n in range(0, 13):
            assert solution_count(n, k) == solution_count_brute(n, k), (n, k)
    print("criterion 08: PASS - marked totals equal symmetrized moments for k in {1, 2}, n <= 16; closed solution counts match brute force")


def test_criterion_09_series_identities():
    for m in range(-10, 11):
        series = rank_gf(m, 30)
        for n in range(31):
            assert series[n] == count_rank(m, n), (m, n)
    lhs2 = marked_rank_gf((2, 3), 2, 12)
    assert lhs2 == marked_rank_gf_product((2, 3), 2, 12)
    assert lhs2 == marked_rank_gf_partial_fractions((2, 3), 2, 12)
    lhs3 = marked_rank_gf((2, 3, 5), 3, 10)
    assert lhs3 == marked_rank_gf_product((2, 3, 5), 3, 10)
    assert lhs3 == marked_rank_gf_partial_fractions((2, 3, 5), 3, 10)
    print("criterion 09: PASS - rank series matches counts (|m| <= 10, n <= 30); the triple series identity holds at (2, 3) and (2, 3, 5)")


def test_criterion_10_odd_flavor():
    for m in range(-10, 11):
        series = odd_rank_gf(m, 20)
        for n in range(21):
            assert series[n] == durfee_rank_distribution(n, Flavor.ODD).get(m, 0), (m, n)
    for n in range(0, 17):
        dist = kmarked_rank_distribution(n, 2, Flavor.ODD)
        vectors = set(dist) | set(all_rank_vectors(n, 2))
        for m in vectors:
            assert dist.get(m, 0) == marked_count_formula(m, n, Flavor.ODD), (n, m)
    for n in range(0, 15):
        res = check_moment_identity(1, n, Flavor.ODD)
        assert res.equal, (n, res)
    lhs = marked_rank_gf((2, 3), 2, 10, Flavor.ODD)
    assert lhs == marked_rank_gf_product((2, 3), 2, 10, Flavor.ODD)
    assert lhs == marked_rank_gf_partial_fractions((2, 3), 2, 10, Flavor.ODD)
    print("criterion 10: PASS - odd series matches enumeration (n <= 20); odd formula (k = 2, n <= 16), odd moments (n <= 14), odd triple series all hold")


def test_criterion_11_round_trip_suites():
    # merge/split in both directions, k in {2, 3}, n <= 16; along the way,
    # strict shifted symbols with prescribed nonnegative ranks must be
    # counted by a single plain rank count
    for k in (2, 3):
        for n in range(0, 17):
            tally = {}
            for s in enumerate_kmarked(n, k):
                if not is_strict_shifted_symbol(s) or any(r < 0 for r in s.ranks):
                    continue
                tally[s.ranks] = tally.get(s.ranks, 0) + 1
                ds = merge_marks(s)
                assert ds.rank == sum(s.ranks) + k - 1
                assert split_marks(ds, s.ranks) == s, (k, n, s)
            lim = max(0, n - k + 1)
            for m in product(range(lim + 1), repeat=k):
                if sum(m) > lim:
                    continue
                assert tally.get(m, 0) == count_rank(sum(m) + k - 1, n), (k, n, m)
            for ds in enumerate_durfee(n):
                r = ds.rank - (k - 1)
                if r < 0:
                    continue
                for head in product(range(r + 1), repeat=k - 1):
                    if sum(head) > r:
                        continue
                    targets = head + (r - sum(head),)
                    rebuilt = split_marks(ds, targets)
                    assert rebuilt.ranks == targets and is_valid(rebuilt)
                    assert merge_marks(rebuilt) == ds, (k, n, ds, targets)
    # balanced-transfer round trips and deficiency nonnegativity over pairs
    for pair in pairs_upto(14):
        if pair.alpha and not (pair.beta and pair.beta[0] > pair.alpha[0]):
            image = to_strict_shifted(pair)
            assert is_strict_shifted_pair(image)
            assert from_strict_shifted(image, len(balanced_parts(pair))) == pair
            assert all(d >= 0 for d in deficiencies(pair)), pair
        if is_strict_shifted_pair(pair):
            for r in range(len(pair.alpha) - len(pair.beta)):
                back = from_strict_shifted(pair, r)
                assert len(balanced_parts(back)) == r
                assert to_strict_shifted(back) == pair
    # vector-wise lift round trip and rank flips over 2-marked corpora
    for n in range(0, 13):
        for s in enumerate_kmarked(n, 2):
            lifted = symbol_to_strict_shifted(s)
            assert symbol_from_strict_shifted(lifted, balanced_numbers(s)) == s
            for p in (1, 2):
                assert flip_rank(flip_rank(s, p), p) == s
    print("criterion 11: PASS - merge/split with the strict-shifted count law (n <= 16), balanced transfer (|pairs| <= 14), lift and flip round trips (n <= 12) all hold exactly")
