import hashlib
from itertools import permutations

import pytest

from durfee import bijections
from durfee.bijections import (
    flip_block,
    flip_rank,
    from_strict_shifted,
    lift_block,
    merge_marks,
    permute_ranks,
    rank_permuter,
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
    blocks,
    enumerate_kmarked,
    is_strict_shifted_pair,
    is_strict_shifted_symbol,
    is_valid,
)
from durfee.partitions import enumerate_partitions
from durfee.symbols import DurfeeSymbol, Flavor

# the weight-68 symbol driven through the whole composite in the tests below
ETA = KMarkedSymbol(
    (
        PartitionPair((1,), (1, 1)),
        PartitionPair((3, 3, 2, 2, 1), (3, 3, 1)),
        PartitionPair((6,), (5,)),
    ),
    6,
)


def pairs_upto(total):
    for t in range(total + 1):
        for a in range(t + 1):
            for pa in enumerate_partitions(a):
                for pb in enumerate_partitions(t - a):
                    yield PartitionPair(pa, pb)


def test_merge_marks_weight_86_example():
    s = split_marks(DurfeeSymbol((6, 6, 3, 3, 3, 3, 2, 2, 1, 1, 1), (5, 5, 4, 2, 1, 1, 1), 6), (1, 1, 0))
    assert s.vectors == (
        PartitionPair((1, 1), ()),
        PartitionPair((3, 3, 3, 2, 2, 1), (2, 1, 1, 1)),
        PartitionPair((6, 6, 3), (5, 5, 4)),
    )
    assert s.ranks == (1, 1, 0) and s.weight == 86
    assert is_valid(s) and is_strict_shifted_symbol(s)
    assert merge_marks(s) == DurfeeSymbol((6, 6, 3, 3, 3, 3, 2, 2, 1, 1, 1), (5, 5, 4, 2, 1, 1, 1), 6)


def test_merge_marks_is_identity_for_one_mark():
    s = KMarkedSymbol((PartitionPair((2, 1), (1,)),), 2)
    ds = merge_marks(s)
    assert (ds.alpha, ds.beta, ds.d) == ((2, 1), (1,), 2)


def test_merge_marks_requires_strict_shifted():
    s = KMarkedSymbol((PartitionPair((2,), (2,)), PartitionPair((2,), ())), 2)
    with pytest.raises(ValueError, match="strict shifted"):
        merge_marks(s)


def test_split_marks_rank_mismatch():
    ds = DurfeeSymbol((3, 2), (1,), 3)
    with pytest.raises(ValueError, match="sum"):
        split_marks(ds, (5, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        split_marks(ds, (-1, 2))


def test_split_marks_one_target_is_identity():
    for n in range(1, 10):
        for p in enumerate_partitions(n):
            from durfee.symbols import to_durfee

            ds = to_durfee(p)
            s = split_marks(ds, (ds.rank,))
            assert s.vectors == (PartitionPair(ds.alpha, ds.beta),)


def test_subscripts_examples():
    pair = PartitionPair((6, 5, 5, 5, 3, 3, 3, 2, 1), (4, 4, 3))
    assert subscripts(pair) == (0, 0, 1, 2, 0, 1, 2, 3, 4)
    assert subscript_minima(pair) == (3, 3, 3, 2, 1)
    assert subscripts(PartitionPair((2, 1), ())) == (0, 0)
    with pytest.raises(ValueError):
        subscripts(PartitionPair((2, 2), (2,)))


def test_to_strict_shifted_examples():
    assert to_strict_shifted(PartitionPair((6, 5, 5, 3, 3, 2), (5, 4, 4, 3))) == PartitionPair(
        (6, 5, 5, 5, 3, 3, 3, 2), (4, 4)
    )
    assert to_strict_shifted(PartitionPair((4, 3, 3, 1, 1), (3, 2, 2))) == PartitionPair(
        (4, 3, 3, 3, 1, 1), (2, 2)
    )
    assert to_strict_shifted(PartitionPair((3, 1), ())) == PartitionPair((3, 1), ())
    with pytest.raises(ValueError, match="largest bottom"):
        to_strict_shifted(PartitionPair((2,), (3,)))


def test_from_strict_shifted_examples():
    pair = PartitionPair((6, 5, 5, 5, 3, 3, 3, 2, 1), (4, 4, 3))
    assert from_strict_shifted(pair, 2) == PartitionPair((6, 5, 5, 5, 3, 2, 1), (4, 4, 3, 3, 3))
    assert from_strict_shifted(pair, 0) == pair
    with pytest.raises(ValueError, match="insufficient length difference"):
        from_strict_shifted(PartitionPair((3, 1), ()), 2)
    with pytest.raises(ValueError, match="strict shifted"):
        from_strict_shifted(PartitionPair((2, 2), (2,)), 1)


def test_pair_round_trips_exhaustive():
    for pair in pairs_upto(11):
        if not pair.alpha or (pair.beta and pair.beta[0] > pair.alpha[0]):
            continue
        image = to_strict_shifted(pair)
        assert is_strict_shifted_pair(image)
        assert from_strict_shifted(image, len(balanced_parts(pair))) == pair
    for pair in pairs_upto(11):
        if not is_strict_shifted_pair(pair):
            continue
        for r in range(len(pair.alpha) - len(pair.beta)):
            back = from_strict_shifted(pair, r)
            assert len(balanced_parts(back)) == r
            assert to_strict_shifted(back) == pair


def test_lift_shifts_ranks_by_balance():
    for n in range(0, 11):
        for s in enumerate_kmarked(n, 2):
            nb = balanced_numbers(s)
            lifted = symbol_to_strict_shifted(s)
            assert is_strict_shifted_symbol(lifted)
            assert lifted.ranks == (s.ranks[0] + 2 * nb[0], s.ranks[1])
            assert symbol_from_strict_shifted(lifted, nb) == s


def test_symbol_from_strict_shifted_validates_arguments():
    s = KMarkedSymbol((PartitionPair((1,), ()), PartitionPair((1,), ())), 1)
    with pytest.raises(ValueError, match="length k"):
        symbol_from_strict_shifted(s, (0,))
    with pytest.raises(ValueError, match="k-th balanced"):
        symbol_from_strict_shifted(s, (0, 1))
    with pytest.raises(ValueError, match="vector 1"):
        symbol_from_strict_shifted(s, (1, 0))


def test_flip_rank_examples():
    eta1 = flip_rank(ETA, 1)
    assert eta1.vectors[0] == PartitionPair((1, 1, 1), ())
    assert eta1.ranks == (2, 1, 0)
    assert flip_rank(eta1, 1) == ETA
    # swapping the top vector of a symbol with equal rows changes nothing
    s = KMarkedSymbol((PartitionPair((2, 1), (2, 1)),), 3)
    assert flip_rank(s, 1) == s


def test_flip_rank_involution_exhaustive():
    for n in range(0, 11):
        for s in enumerate_kmarked(n, 2):
            for p in (1, 2):
                t = flip_rank(s, p)
                assert flip_rank(t, p) == s
                assert t.ranks[p - 1] == -s.ranks[p - 1]
                assert t.weight == s.weight
                assert is_valid(t)


def test_symmetry_chain_weight_68():
    eta1 = flip_rank(ETA, 1)
    assert balanced_numbers(eta1) == (0, 2, 0)
    eta2 = symbol_to_strict_shifted(eta1)
    assert eta2.vectors[1] == PartitionPair((3, 3, 3, 3, 2, 2, 1), (1,))
    assert eta2.ranks == (2, 5, 0)
    eta3 = merge_marks(eta2)
    assert eta3 == DurfeeSymbol((6, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1), (5, 1), 6)
    assert eta3.rank == 9
    back2 = split_marks(eta3, (1, 6, 0))
    assert back2.vectors == (
        PartitionPair((1, 1), ()),
        PartitionPair((3, 3, 3, 3, 2, 2, 1, 1), (1,)),
        PartitionPair((6,), (5,)),
    )
    back1 = symbol_from_strict_shifted(back2, (0, 2, 0))
    assert back1.vectors == (
        PartitionPair((1, 1), ()),
        PartitionPair((3, 3, 2, 2, 1, 1), (3, 3, 1)),
        PartitionPair((6,), (5,)),
    )
    final = flip_rank(back1, 2)
    assert final.vectors == (
        PartitionPair((1, 1), ()),
        PartitionPair((3, 3, 3, 1), (3, 2, 2, 1, 1)),
        PartitionPair((6,), (5,)),
    )
    assert final.ranks == (1, -2, 0) and final.weight == 68 and is_valid(final)
    assert permute_ranks(ETA, (2, 1, 3)) == final


def test_permute_ranks_identity_and_errors():
    assert permute_ranks(ETA, (1, 2, 3)) == ETA
    with pytest.raises(ValueError, match="permutation"):
        permute_ranks(ETA, (1, 1, 3))


def test_permute_ranks_corpus_bijection():
    for n in range(0, 11):
        corpus = list(enumerate_kmarked(n, 2))
        images = [permute_ranks(s, (2, 1)) for s in corpus]
        assert sorted(map(hash, images)) == sorted(map(hash, corpus))
        assert set(images) == set(corpus)
        for s, im in zip(corpus, images):
            assert im.ranks == (s.ranks[1], s.ranks[0])


def test_permute_ranks_odd_flavor():
    for n in range(0, 12):
        corpus = list(enumerate_kmarked(n, 2, Flavor.ODD))
        images = [permute_ranks(s, (2, 1)) for s in corpus]
        assert set(images) == set(corpus)
        for s, im in zip(corpus, images):
            assert im.ranks == (s.ranks[1], s.ranks[0])
            assert im.flavor is Flavor.ODD


def test_merge_split_round_trips():
    for n in range(0, 12):
        for k in (2, 3):
            for s in enumerate_kmarked(n, k):
                if not is_strict_shifted_symbol(s) or any(r < 0 for r in s.ranks):
                    continue
                ds = merge_marks(s)
                assert ds.rank == sum(s.ranks) + k - 1
                assert split_marks(ds, s.ranks) == s


def test_strict_shifted_counts_are_plain_rank_counts():
    # strict shifted symbols with prescribed nonnegative ranks are
    # equinumerous with partitions of one prescribed rank
    from itertools import product

    from durfee.partitions import count_rank

    for k, nmax in ((2, 12), (3, 9)):
        for n in range(nmax + 1):
            tally = {}
            for s in enumerate_kmarked(n, k):
                if is_strict_shifted_symbol(s) and all(r >= 0 for r in s.ranks):
                    tally[s.ranks] = tally.get(s.ranks, 0) + 1
            for m, c in tally.items():
                assert c == count_rank(sum(m) + k - 1, n), (n, k, m)
            expected_total = sum(
                count_rank(sum(m) + k - 1, n)
                for m in product(range(n + 1), repeat=k)
                if sum(m) + k - 1 <= n
            )
            assert sum(tally.values()) == expected_total, (n, k)


NOT_SHIFTED = PartitionPair((2, 2), (2,))
TWO_ONES = KMarkedSymbol((PartitionPair((1,), ()), PartitionPair((1,), ())), 1)
NO_TOP = PartitionPair((), (1,))  # a vector below k of rank -2 with nothing to flip
TOO_LOW = PartitionPair((1, 1), (2,))  # a vector below k of rank 0 that cannot lift
SIX = PartitionPair((3, 2, 1), ())  # strict shifted, with one label to drop at r = 1
SIX_DS = DurfeeSymbol((3, 2, 1), (1,), 3)  # rank 2: targets (1, 0) split it


# the error cases that the example tests above do not already cover
@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: split_marks(DurfeeSymbol((3, 2), (1,), 3), ()), "at least one rank target"),
        (lambda: from_strict_shifted(PartitionPair((3, 1), ()), -1), "r must be nonnegative"),
        (lambda: subscripts(NOT_SHIFTED), "not strict shifted"),
        (lambda: subscript_minima(NOT_SHIFTED), "not strict shifted"),
        (lambda: flip_rank(TWO_ONES, 0), r"vector index 0 out of range 1\.\.2"),
        (lambda: flip_rank(TWO_ONES, 3), r"vector index 3 out of range 1\.\.2"),
        (lambda: flip_rank(KMarkedSymbol((PartitionPair((), (1,)), TWO_ONES.vectors[1]), 1), 1),
         "vector 1 has no top part"),
        (lambda: from_strict_shifted(NOT_SHIFTED, 1), "not strict shifted"),
        (lambda: to_strict_shifted(PartitionPair((2,), (3,))), "largest bottom part exceeds"),
        # the composite names the vector whose flip fails, and every flip
        # precedes every lift, so a later vector's flip error comes first
        (lambda: permute_ranks(
            KMarkedSymbol((PartitionPair((1,), ()), NO_TOP, PartitionPair((3,), ())), 3), (2, 1, 3)),
         "^vector 2 has no top part$"),
        (lambda: permute_ranks(KMarkedSymbol((NO_TOP, PartitionPair((1,), ())), 1), (2, 1)),
         "^vector 1 has no top part$"),
        (lambda: permute_ranks(
            KMarkedSymbol((TOO_LOW, NO_TOP, PartitionPair((3,), ())), 3), (1, 2, 3)),
         "^vector 2 has no top part$"),
        (lambda: permute_ranks(KMarkedSymbol((TOO_LOW, PartitionPair((2,), ())), 2), (2, 1)),
         "^largest bottom part exceeds largest top part$"),
        (lambda: permute_ranks(KMarkedSymbol((), 1), ()), "^need at least one rank target$"),
        # a valid perm equal to the bad one comes first: a cached check must not accept it
        (lambda: [permute_ranks(TWO_ONES, (1, 2)), permute_ranks(TWO_ONES, (1.0, 2))],
         r"^perm must be a permutation of 1\.\.k$"),
        (lambda: [permute_ranks(TWO_ONES, (1, 2)), permute_ranks(TWO_ONES, (True, 2))],
         r"^perm must be a permutation of 1\.\.k$"),
        # each other parameter that keys a memo, or indexes the vectors, after a valid equal one
        (lambda: [from_strict_shifted(SIX, 1), from_strict_shifted(SIX, 1.0)], "^r must be an int$"),
        (lambda: [from_strict_shifted(SIX, 1), from_strict_shifted(SIX, True)], "^r must be an int$"),
        (lambda: [symbol_from_strict_shifted(TWO_ONES, (0, 0)),
                  symbol_from_strict_shifted(TWO_ONES, (0.0, 0))],
         "^balanced numbers must be ints$"),
        (lambda: [symbol_from_strict_shifted(TWO_ONES, (0, 0)),
                  symbol_from_strict_shifted(TWO_ONES, (False, 0))],
         "^balanced numbers must be ints$"),
        (lambda: symbol_from_strict_shifted(KMarkedSymbol((), 1), ()),
         "^symbol must have at least one vector$"),
        (lambda: [split_marks(SIX_DS, (1, 0)), split_marks(SIX_DS, (1.0, 0))],
         "^rank targets must be ints$"),
        (lambda: [split_marks(SIX_DS, (1, 0)), split_marks(SIX_DS, (True, 0))],
         "^rank targets must be ints$"),
        (lambda: [flip_rank(TWO_ONES, 1), flip_rank(TWO_ONES, 1.0)], "^vector index must be an int$"),
        (lambda: [flip_rank(TWO_ONES, 1), flip_rank(TWO_ONES, True)], "^vector index must be an int$"),
        (lambda: rank_permuter(((1, 2),), 2)(ETA), "^symbol has 3 vectors, not k = 2$"),
        (lambda: flip_rank(KMarkedSymbol((), 1), 1), "^symbol must have at least one vector$"),
        (lambda: symbol_to_strict_shifted(KMarkedSymbol((), 1)),
         "^symbol must have at least one vector$"),
        (lambda: flip_rank(
            KMarkedSymbol((PartitionPair((1,), ()), NO_TOP, PartitionPair((3,), ())), 3), 2),
         "^vector 2 has no top part$"),
    ],
    ids=[
        "split-no-targets", "from-negative-r", "subscripts-not-shifted", "minima-not-shifted",
        "flip-p-low", "flip-p-high", "flip-no-top-part", "from-not-shifted", "to-oversized-bottom",
        "permute-no-top-part", "permute-no-top-part-first", "permute-flip-before-lift",
        "permute-oversized-bottom", "permute-no-vectors", "permute-float-entry",
        "permute-bool-entry", "from-float-r", "from-bool-r", "symbol-from-float-t",
        "symbol-from-bool-t", "symbol-from-no-vectors", "split-float-target", "split-bool-target", "flip-float-p",
        "flip-bool-p", "permuter-other-k", "flip-no-vectors", "lift-no-vectors",
        "flip-p2-no-top-part",
    ],
)
def test_public_maps_keep_their_errors(call, match):
    # twice: the cached stage cores must not remember a rejected input
    for _ in range(2):
        with pytest.raises(ValueError, match=match):
            call()


def _one_block(s):
    """The block of ``s`` alone, as the symbol maps make it."""
    return s.d, s.vectors[1:], s.vectors[:1]


# the block form of each error case above that a block map meets, and the
# drop's own cases: it lowers one symbol and names the vector at fault
@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: flip_block(_one_block(TWO_ONES), 0), r"vector index 0 out of range 1\.\.2"),
        (lambda: flip_block(_one_block(TWO_ONES), 3), r"vector index 3 out of range 1\.\.2"),
        (lambda: flip_block((1, TWO_ONES.vectors[1:], (PartitionPair((), (1,)),)), 1),
         "vector 1 has no top part"),
        (lambda: lift_block((1, (PartitionPair((3,), ()),), (PartitionPair((2,), (3,)),))),
         "largest bottom part exceeds"),
        (lambda: [symbol_from_strict_shifted(TWO_ONES, (0, 0)),
                  symbol_from_strict_shifted(TWO_ONES, (0, 0.0))],
         "^balanced numbers must be ints$"),
        (lambda: [symbol_from_strict_shifted(TWO_ONES, (0, 0)),
                  symbol_from_strict_shifted(TWO_ONES, (0, False))],
         "^balanced numbers must be ints$"),
        (lambda: symbol_from_strict_shifted(
            KMarkedSymbol((NOT_SHIFTED, TWO_ONES.vectors[1]), 1), (1, 0)),
         "^vector 1: not strict shifted$"),
        (lambda: symbol_from_strict_shifted(TWO_ONES, (-1, 0)), "^vector 1: r must be nonnegative$"),
        (lambda: [flip_block(_one_block(TWO_ONES), 1), flip_block(_one_block(TWO_ONES), 1.0)],
         "^vector index must be an int$"),
        (lambda: [flip_block(_one_block(TWO_ONES), 1), flip_block(_one_block(TWO_ONES), True)],
         "^vector index must be an int$"),
    ],
    ids=[
        "flip-p-low", "flip-p-high", "flip-no-top-part", "to-oversized-bottom",
        "symbol-from-float-t", "symbol-from-bool-t", "from-not-shifted", "from-negative-r",
        "flip-float-p", "flip-bool-p",
    ],
)
def test_block_maps_keep_the_symbol_maps_errors(call, match):
    for _ in range(2):
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("flavor", list(Flavor))
def test_block_maps_are_their_members_one_block_cases(flavor):
    # On every block of two or more members, each block map gives what its
    # symbol map gives each member alone: no state of one member reaches the next.
    def symbols_of(block):
        d, upper, lows = block
        return [KMarkedSymbol((pair, *upper), d, flavor) for pair in lows]

    for k in (1, 2, 3, 4):
        for n in range(13):
            for block in blocks(n, k, flavor):
                members = symbols_of(block)
                if len(members) < 2:
                    continue
                for p in range(1, k + 1):
                    assert symbols_of(flip_block(block, p)) == [flip_rank(s, p) for s in members]
                lifted = lift_block(block)
                assert symbols_of(lifted) == list(map(symbol_to_strict_shifted, members))
                assert [
                    symbol_from_strict_shifted(image, balanced_numbers(s))
                    for image, s in zip(symbols_of(lifted), members)
                ] == members


def test_rank_permuter_reads_any_sequence_of_perms():
    corpus = list(enumerate_kmarked(9, 3))
    perms = list(permutations(range(1, 4)))
    want = list(map(rank_permuter(tuple(perms), 3), corpus))
    for s, images in zip(corpus, want):
        assert [im.ranks for im in images] == [tuple(s.ranks[p - 1] for p in perm) for perm in perms]
    # the perms are read once, when the map is built, and serve every symbol
    assert list(map(rank_permuter([list(p) for p in perms], 3), corpus)) == want
    assert list(map(rank_permuter((list(p) for p in perms), 3), corpus)) == want


@pytest.mark.parametrize("flavor", list(Flavor))
def test_the_composite_joins_lifted_rows_end_to_end(flavor):
    # The composite's two shortcuts, through the public maps.  Flipping each
    # negative rank, lifting and merging gives the lifted rows of vectors
    # k..1 end to end, unsorted: the marking conditions keep each vector's
    # entries at or below the next one's, and a flip or a raise moves entries
    # only within one vector.  For k = 1 every image is the symbol itself.
    one = rank_permuter([(1,), (1,)], 1)
    for n in range(11):
        for s in enumerate_kmarked(n, 1, flavor):
            assert one(s) == (s, s)
        for k in (2, 3, 4):
            for s in enumerate_kmarked(n, k, flavor):
                flipped = s
                for p, r in enumerate(s.ranks, 1):
                    if r < 0:
                        flipped = flip_rank(flipped, p)
                lifted = symbol_to_strict_shifted(flipped)
                merged = merge_marks(lifted)
                high = lifted.vectors[::-1]
                assert merged.alpha == sum((v.alpha for v in high), ()), s
                assert merged.beta == sum((v.beta for v in high), ()), s


# sha256 of every image of permute_ranks over each corpus, recorded before the
# composite was rebuilt on shared pair-level cores.  Key: (k, flavor, max n).
PINNED_IMAGES = {
    (2, Flavor.ORDINARY, 10): "e94f0be946f1c8ad128ea3cbdfa1a2a16c51a006f5f44922480ad414b34e80cf",
    (2, Flavor.ODD, 10): "09b02b6ca8360d0ada8ac185fdf65b03089cd6e436f8c98c664e62eb81c82efb",
    (3, Flavor.ORDINARY, 10): "c0682de032bf68bf709664fd80626e6bd232ff7b3059bb07621d5af43f600853",
    (3, Flavor.ODD, 10): "c79ed24a6963ce1986dbf5a214dabbecc6e861de08a4f7bacb589c6a10a736b1",
    (4, Flavor.ORDINARY, 8): "a5d358886b277f0f83ed5fa72f17be046bc63fd011ca0a47096e94cda3257fba",
    (4, Flavor.ODD, 8): "1dc4baa67d477fcc2c1055c4d1b5502244b5419a2a77e3513cdc503cb3356ce7",
}


def test_permute_ranks_images_are_pinned():
    got = {}
    for k, flavor, max_n in PINNED_IMAGES:
        perms = list(permutations(range(1, k + 1)))
        digest = hashlib.sha256()
        for n in range(max_n + 1):
            for s in enumerate_kmarked(n, k, flavor):
                images = [permute_ranks(s, perm) for perm in perms]
                digest.update(repr([(im.vectors, im.d) for im in images]).encode())
        got[k, flavor, max_n] = digest.hexdigest()
    assert got == PINNED_IMAGES


# the memoized stage cores: per vector raise, lower, the flip and the
# composite's facts, and the composite's facts of vectors 2..k at one entry
# (its image rows live in a caller's table)
STAGE_CACHES = (
    bijections._raise, bijections._lower, bijections._flip_pair, bijections._vector_facts,
    bijections._upper_facts,
)


def test_the_stage_caches_are_every_memo():
    memos = {f for f in vars(bijections).values() if hasattr(f, "cache_clear")}
    assert memos == set(STAGE_CACHES)


def _stage_results():
    """Every image of the cached stages over the n <= 8, k <= 3 corpora."""
    out = []
    for flavor in Flavor:
        for k in (1, 2, 3):
            images = bijections.rank_permuter(permutations(range(1, k + 1)), k)
            for n in range(9):
                for s in enumerate_kmarked(n, k, flavor):
                    lifted = symbol_to_strict_shifted(s)
                    out.append((
                        images(s),
                        [flip_rank(s, p) for p in range(1, k + 1)],
                        lifted,
                        symbol_from_strict_shifted(lifted, balanced_numbers(s)),
                        merge_marks(lifted),
                    ))
    return out


def test_stage_caches_do_not_change_results(monkeypatch):
    for cache in STAGE_CACHES:
        cache.cache_clear()
    cold = _stage_results()
    warm = _stage_results()
    assert all(cache.cache_info().hits > 0 for cache in STAGE_CACHES)
    for cache in STAGE_CACHES:
        monkeypatch.setattr(bijections, cache.__name__, cache.__wrapped__)
    uncached = _stage_results()
    assert cold == warm == uncached


def _immutable(x) -> bool:
    return isinstance(x, int) or isinstance(x, tuple) and all(_immutable(y) for y in x)


def test_stage_caches_hold_tuples():
    for n in range(9):
        for s in enumerate_kmarked(n, 3):
            for pair, negated in zip(s.vectors[:-1], (False, True)):
                lifted, r = bijections._raise(pair, negated)
                assert type(r) is int
                for image in (lifted, bijections._lower(lifted, r)):
                    assert type(image) is PartitionPair and _immutable(image)
            for pair in s.vectors[:-1]:
                flipped = bijections._flip_pair(pair)
                assert type(flipped) is PartitionPair and _immutable(flipped)
            for i, pair in enumerate(s.vectors, 1):
                assert _immutable(bijections._vector_facts(pair, i == 3))
            if is_strict_shifted_symbol(s) and min(s.ranks) >= 0:
                ds = merge_marks(s)
                row = bijections._images(ds.alpha, ds.beta, s.ranks, (0, 0, 0))  # flat: image, flip
                assert type(row) is tuple and len(row) == 6 and _immutable(row)
                assert all(type(v) is PartitionPair for v in row)
