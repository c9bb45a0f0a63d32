"""k-marked symbols: k indexed pairs of partitions over one subscript frame.

A k-marked symbol of weight n consists of vectors (alpha^i, beta^i) for
i = 1..k and a subscript d with

    sum_i (|alpha^i| + |beta^i|) + frame_weight(d) = n,

subject to three marking conditions:

  (1) alpha^i is nonempty for every i < k (alpha^k and all beta^i may be
      empty);
  (2) largest(beta^i) <= largest(alpha^i) <= every entry of vector i+1, for
      every i < k; when vector i+1 is entirely empty (possible only for
      vector k) the upper bound falls back to the entry cap;
  (3) the entries of vector k are at most the cap (d ordinary, 2d+1 odd).

The odd flavor additionally requires every entry to be odd.  Reading the
bound on smaller bottom rows only does not reproduce the rank-count formula
(first failures at weights 7 and 9 for k = 2); the whole-vector bound does,
and it makes the merged two-row array globally sorted with non-increasing
marks, exactly as symbols are conventionally displayed.  No order is imposed
between the two rows of vector k.

The i-th rank is len(alpha^i) - len(beta^i) - 1 for i < k and
len(alpha^k) - len(beta^k) for i = k.

Counts by rank vector come two independent ways.
:func:`kmarked_rank_distribution` tallies the blocks of :func:`blocks`, the
walk that :func:`enumerate_kmarked` flattens and the corpus writers and checks
read; it is the oracle, costs time exponential in n and stops at the weight guard.
:func:`kmarked_rank_counts` is a transfer DP that builds no symbol, runs in
polynomial time with no weight guard, and backs :func:`count_kmarked`,
:func:`total_kmarked` and the marked rank series.  It packs the counts by rank
of vector k into one int per prefix of ranks 1..k-1, a layout no other module
reads: :func:`rank_rows` decodes each int once into its prefix's run of rows,
which ``durfee count`` streams in ascending order and :func:`total_kmarked`
sums, and :func:`count_kmarked` reads one slot.
"""

from __future__ import annotations

from collections import Counter, abc
from functools import lru_cache
from itertools import accumulate, islice
from operator import gt
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .partitions import (
    Partition,
    _check_weight,
    bounded_partitions,
    bounded_partitions_upto,
    is_partition,
)
from .symbols import (
    Flavor, Record, frame_weight, min_subscript, part_cap, set_field, subscript_range
)


class PartitionPair(NamedTuple):
    alpha: Partition
    beta: Partition


#: ``_new(PartitionPair, (alpha, beta))`` builds a pair from rows already
#: checked, without the namedtuple's Python-level ``__new__``, which costs
#: about 1.7 times as much: the walks and the maps build pairs by the ten thousand.
_new = tuple.__new__


#: ``(d, upper, lows)`` as :func:`blocks` yields it: subscript d, vectors
#: 2..k in index order, and every vector 1 that goes with them.  (The abc's
#: alias is built at import an order of magnitude faster than typing's.)
Block = tuple[int, tuple[PartitionPair, ...], abc.Sequence[PartitionPair]]


class KMarkedSymbol(Record):
    #: vectors[0] is vector 1; displays print vector k first.
    __slots__ = __match_args__ = ("vectors", "d", "flavor")

    def __init__(
        self, vectors: tuple[PartitionPair, ...], d: int, flavor: Flavor = Flavor.ORDINARY
    ) -> None:
        _set_vectors(self, vectors)
        _set_d(self, d)
        _set_flavor(self, flavor)

    @property
    def k(self) -> int:
        return len(self.vectors)

    @property
    def weight(self) -> int:
        rows = sum(sum(v.alpha) + sum(v.beta) for v in self.vectors)
        return rows + frame_weight(self.d, self.flavor)

    @property
    def ranks(self) -> tuple[int, ...]:
        """All k ranks in one pass: len(alpha^i) - len(beta^i) - 1 for i < k."""
        ranks = [len(alpha) - len(beta) - 1 for alpha, beta in self.vectors]
        if ranks:
            ranks[-1] += 1  # the top-k vector omits the -1 shift
        return tuple(ranks)


# Every map builds symbols: the slots' own setters take half the time of ``set_field``.
_set_vectors, _set_d, _set_flavor = (slot.__set__ for slot in (
    KMarkedSymbol.vectors, KMarkedSymbol.d, KMarkedSymbol.flavor))


class ValidationResult(Record):
    __slots__ = __match_args__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: str | None = None) -> None:
        set_field(self, "ok", ok)
        set_field(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


def ith_rank(s: KMarkedSymbol, i: int) -> int:
    """Rank of vector ``i`` (1-based): entry ``i`` of :attr:`KMarkedSymbol.ranks`."""
    if not 1 <= i <= s.k:
        raise ValueError(f"vector index {i} out of range 1..{s.k}")
    return s.ranks[i - 1]


def validate(s: KMarkedSymbol) -> ValidationResult:
    """Check all marking conditions, reporting the first violation found."""
    k = s.k
    if k < 1:
        return ValidationResult(False, "symbol must have at least one vector")
    if s.d < min_subscript(s.flavor):
        return ValidationResult(
            False, f"subscript {s.d} below minimum for the {s.flavor.value} flavor"
        )
    for i, (alpha, beta) in enumerate(s.vectors, 1):
        if not is_partition(alpha):
            return ValidationResult(False, f"vector {i}: top row is not a partition")
        if not is_partition(beta):
            return ValidationResult(False, f"vector {i}: bottom row is not a partition")
    if s.flavor is Flavor.ODD:
        for i, (alpha, beta) in enumerate(s.vectors, 1):
            if any(x % 2 == 0 for x in alpha + beta):
                return ValidationResult(False, f"vector {i}: even entry in the odd flavor")
    for i in range(1, k):
        if not s.vectors[i - 1].alpha:
            return ValidationResult(False, f"condition (1): vector {i} top row empty")
    cap = part_cap(s.d, s.flavor)
    top_k, bottom_k = s.vectors[k - 1]
    if top_k and top_k[0] > cap:
        return ValidationResult(
            False, f"condition (3): vector {k} top entry {top_k[0]} exceeds cap {cap}"
        )
    if bottom_k and bottom_k[0] > cap:
        return ValidationResult(
            False, f"condition (3): vector {k} bottom entry {bottom_k[0]} exceeds cap {cap}"
        )
    for i in range(1, k):
        (alpha, beta), above = s.vectors[i - 1], s.vectors[i]
        lo = beta[0] if beta else 0
        if lo > alpha[0]:
            return ValidationResult(
                False,
                f"condition (2): vector {i} bottom entry {lo} exceeds top entry {alpha[0]}",
            )
        # By condition (1) only vector k can be empty; then the cap bounds.
        bound = min(above.alpha[-1:] + above.beta[-1:], default=cap)
        if alpha[0] > bound:
            return ValidationResult(
                False, f"condition (2): vector {i} top entry {alpha[0]} exceeds bound {bound}"
            )
    return ValidationResult(True)


def is_valid(s: KMarkedSymbol) -> bool:
    return validate(s).ok


def blocks(
    n: int, k: int, flavor: Flavor, low: Callable = tuple, keep: Callable | None = None
) -> Iterator[tuple]:
    """Yield ``(d, upper, lows)`` in canonical order for each subscript d and
    choice ``upper`` of vectors 2..k (index order; empty for k = 1), ``lows``
    being ``low`` of every vector 1 the block admits.  Given ``keep``, vector
    i >= 2 takes only the pairs p with ``keep(i, p)``, so the walk skips the
    blocks beneath every other.  Vector i < k meets the vectors above only
    through the weight left and its top row's bound, so a table per subscript
    keyed by (i, weight, bound) holds its shared choices."""
    _check_weight(n)
    if k < 1:
        raise ValueError("k must be >= 1")
    odd = flavor is Flavor.ODD
    table: dict[tuple[int, int, int], object] = {}

    def choices(i: int, budget: int, ub: int):
        # Vector i weighs at most budget - (i - 1), leaving each vector below a
        # top part (vector 1 weighs exactly budget), and passes on what is left.
        if (i, budget, ub) in table:
            return table[i, budget, ub]
        avail = budget - (i - 1)
        rows = bounded_partitions if i == 1 else bounded_partitions_upto
        pairs = [
            _new(PartitionPair, (alpha, beta))
            for alpha in bounded_partitions_upto(avail, ub, odd)
            if alpha or i == k  # only vector k may have an empty top row
            for beta in rows(avail - sum(alpha), ub if i == k else alpha[0], odd)
        ]
        if keep is not None and i > 1:
            pairs = [p for p in pairs if keep(i, p)]
        made = low(pairs) if i == 1 else [
            (p, budget - sum(p.alpha + p.beta), min(p.alpha[-1:] + p.beta[-1:], default=ub))
            for p in pairs
        ]
        if i < k:  # vector k's key holds its subscript's cap and weight: it never recurs
            table[i, budget, ub] = made
        return made

    for d in subscript_range(n, flavor):
        table.clear()  # keys shared with a later subscript are rebuilt: cheap, and less memory
        # Vector k is bounded by the cap; last in, first out, so children go on reversed.
        stack = [(k, n - frame_weight(d, flavor), part_cap(d, flavor), ())]
        while stack:
            i, budget, ub, upper = stack.pop()
            if i == 1:
                yield d, upper, choices(1, budget, ub)
            else:
                stack += [
                    (i - 1, left, bound, (pair, *upper))
                    for pair, left, bound in reversed(choices(i, budget, ub))
                ]


def _block(s: KMarkedSymbol) -> Block:
    """The one block of ``s``, as :func:`blocks` would yield it: vector 1 is
    its only choice."""
    if not s.vectors:
        raise ValueError("symbol must have at least one vector")
    return s.d, s.vectors[1:], s.vectors[:1]


def _upper_ranks(upper: tuple[PartitionPair, ...], k: int) -> tuple[int, ...]:
    """Ranks of the vectors 2..k of a block of :func:`blocks`."""
    return tuple([len(alpha) - len(beta) - (i < k) for i, (alpha, beta) in enumerate(upper, 2)])


def enumerate_kmarked(
    n: int, k: int, flavor: Flavor = Flavor.ORDINARY
) -> Iterator[KMarkedSymbol]:
    """All valid k-marked symbols of weight ``n``, each exactly once.

    Canonical order: ascending subscript, then per vector from index k down
    to 1 the top row and bottom row each in decreasing lexicographic order
    across weights.  For k = 1 this agrees element-wise with
    :func:`durfee.symbols.enumerate_durfee`.  Within one subscript each pair
    object is built once per (index, weight left, bound) and shared by the
    symbols that hold it.  A weight outside the enumeration guard raises
    before the first symbol.
    """
    for d, upper, lows in blocks(n, k, flavor):
        for pair in lows:
            yield KMarkedSymbol((pair, *upper), d, flavor)


@lru_cache(maxsize=None)
def kmarked_rank_distribution(
    n: int, k: int, flavor: Flavor = Flavor.ORDINARY
) -> Mapping[tuple[int, ...], int]:
    """Map from rank vector to the number of k-marked symbols of ``n`` attaining it.

    This is the enumeration oracle that :func:`kmarked_rank_counts` is checked
    against.  It builds no symbol: each block of the walk that
    :func:`enumerate_kmarked` flattens adds its table's {vector-1 rank: count}
    under the ranks of its vectors 2..k.  The returned mapping is read-only
    because it is cached.
    """
    # The rank of vector i is len(alpha) - len(beta), less 1 for i < k.
    tally = lambda pairs: Counter(len(alpha) - len(beta) - (k > 1) for alpha, beta in pairs)
    counts: dict[tuple[int, ...], int] = {}
    for _, upper, lows in blocks(n, k, flavor, tally):
        high = _upper_ranks(upper, k)
        for r, c in lows.items():
            ranks = (r, *high)
            counts[ranks] = counts.get(ranks, 0) + c
    return MappingProxyType(counts)


# A two-variable series in the counting DP below: index w of the list holds
# {rank contribution: count} for weight w, where top-row parts count +1 and
# bottom-row parts -1.
_Series = list[dict[int, int]]


def _times_pairs_of(x: _Series, v: int) -> _Series:
    """``x`` times 1 / ((1 - z q^v)(1 - q^v / z)): any number of parts ``v``
    added to the top row and to the bottom row."""
    y = [dict(row) for row in x]
    for shift in (1, -1):
        for w in range(v, len(y)):
            row = y[w]
            for r, c in y[w - v].items():
                row[r + shift] = row.get(r + shift, 0) + c
    return y


def _pair_columns(parts: list[int], top: int, needed: Sequence[int]) -> dict[int, list[_Series]]:
    """Column t = [H(0, t), ..., H(t, t), 1] up to weight ``top`` for each t in
    ``needed``, where H(j, t) counts the pairs of partitions with entries in
    parts[j..t] (``parts`` ascending).  Each column is built from parts[t]
    down: large parts first keep the rows sparse."""
    one = [{0: 1}] + [{} for _ in range(top)]
    columns = {}
    for t in needed:
        column = [one]  # column[-1] is H(j + 1, t) while building H(j, t)
        for j in range(t, -1, -1):
            column.append(_times_pairs_of(column[-1], parts[j]))
        columns[t] = column[::-1]
    return columns


def _subscript_counts(
    rem: int, k: int, parts: list[int], pack: Callable, result: dict[tuple, int]
) -> None:
    """Add to ``result`` the symbols of one subscript whose vectors weigh
    ``rem`` in total, by rank vector with the last rank packed by ``pack``.

    The walk places vectors 1, 2, ... in turn over the state (j, used):
    parts[j] is the largest top part of the vector just placed, and weight
    ``used`` is spent.  The next vector, if it is not vector k and its top
    row has largest entry parts[t], is a pair with entries in parts[j..t]
    plus that forced top part: q^parts[t] H(j, t), the forced part standing
    for the rank's -1 shift.  Vector k is H(j, last), each row packed once.
    Vectors k - 1 and k use up the weight left: one multiply-add of a packed
    row per (state, t, weight, rank of vector k - 1) counts them.
    """
    last = len(parts) - 1
    columns = _pair_columns(parts, rem, range(last + 1) if k > 2 else (last,))
    tops = columns[last]  # tops[j] = H(j, last), the series of vector k
    if k == 1:
        result[()] = result.get((), 0) + pack(tops[0][rem])
        return
    if k == 2:  # the one state (0, 0) reads H(0, t): one running product
        heads = accumulate(parts[:last], _times_pairs_of, initial=tops[-1])
        columns.update(enumerate([head] for head in islice(heads, 1, None)))
    packed = [[pack(row) for row in series] for series in tops]
    # states[(j, used)]: ranks of vectors 1..i -> count.  Vectors i + 1..k - 1
    # each hold a top part of at least parts[t], so that weight stays reserved.
    states = {(0, 0): {(): 1}}
    for i in range(1, k - 1):
        nxt: dict[tuple[int, int], dict[tuple[int, ...], int]] = {}
        while states:  # consume the states so their memory can be reused
            (j, used), table = states.popitem()
            for t in range(j, last + 1):
                series = columns[t][j]
                spent = used + parts[t]
                for w in range(rem - spent - (k - 1 - i) * parts[t] + 1):
                    if series[w]:
                        target = nxt.setdefault((t, spent + w), {})
                        for r, c in series[w].items():
                            for ranks, v in table.items():
                                ranks = ranks + (r,)
                                target[ranks] = target.get(ranks, 0) + c * v
        states = nxt
    while states:  # the k - 1 and k fold
        (j, used), table = states.popitem()
        highs: dict[int, int] = {}  # rank of vector k - 1 -> packed counts of vector k
        for t in range(j, last + 1):
            series, rest = columns[t][j], packed[t]
            left = rem - used - parts[t]
            for w in range(left + 1):
                if series[w] and (x := rest[left - w]):
                    for r, c in series[w].items():
                        highs[r] = highs.get(r, 0) + c * x
        for r, x in highs.items():
            for ranks, v in table.items():
                ranks += (r,)
                result[ranks] = result.get(ranks, 0) + v * x


def _packed_counts(n: int, k: int, flavor: Flavor) -> tuple[dict[tuple[int, ...], int], int]:
    """Run the DP of :func:`kmarked_rank_counts`: ({ranks of vectors 1..k-1:
    packed counts of vector k}, slot width B)."""
    if n < 0 or k < 1:
        raise ValueError("weight must be nonnegative" if n < 0 else "k must be >= 1")
    step = 2 if flavor is Flavor.ODD else 1
    frames = [(n - frame_weight(d, flavor), list(range(1, part_cap(d, flavor) + 1, step)))
              for d in subscript_range(n, flavor)]
    durfee = 0  # the Durfee symbols of n: two partitions into a subscript's parts
    for rem, parts in frames:
        pairs = [1] + [0] * rem
        for v in parts * 2:
            for w in range(v, rem + 1):
                pairs[w] += pairs[w - v]
        durfee += pairs[rem]
    width = (durfee * (n + 1) ** (k - 1)).bit_length()
    base = width * n
    pack = lambda row: sum(c << width * r + base for r, c in row.items())
    packed: dict[tuple[int, ...], int] = {}
    for rem, parts in frames:
        if rem >= k - 1:
            _subscript_counts(rem, k, parts, pack, packed)
    return packed, width


def rank_rows(
    n: int, k: int, flavor: Flavor
) -> Iterator[tuple[tuple[int, ...], list[int], list[int]]]:
    """Run the DP of :func:`kmarked_rank_counts` and return its table one
    prefix at a time, in ascending order: ``(prefix, ranks, counts)``, where
    ``prefix`` holds the ranks of vectors 1..k-1, ``ranks`` the ascending
    ranks of vector k whose count is nonzero and ``counts`` those counts.
    Each prefix's packed int is decoded once, from its lowest occupied slot,
    into two lists of ints rather than a tuple per row."""
    packed, width = _packed_counts(n, k, flavor)
    mask = (1 << width) - 1

    def rows():  # a generator of its own, so that bad input raises at the call
        for prefix, x in sorted(packed.items()):
            skip = ((x & -x).bit_length() - 1) // width  # the empty slots below the first count
            x >>= width * skip
            r = skip - n
            ranks, counts = [], []
            while x:
                if c := x & mask:
                    ranks.append(r)
                    counts.append(c)
                x >>= width
                r += 1
            yield prefix, ranks, counts
    return rows()


@lru_cache(maxsize=None)
def kmarked_rank_counts(
    n: int, k: int, flavor: Flavor = Flavor.ORDINARY
) -> Mapping[tuple[int, ...], int]:
    """Map from rank vector to the number of k-marked symbols of ``n``
    attaining it, counted without building any symbol.

    Equal to :func:`kmarked_rank_distribution`.  For each subscript a
    transfer DP walks the vectors from 1 up over the state (position of the
    largest top part of the vector just placed, weight used, ranks so far);
    that top part bounds every entry of the next vector from below.  The
    last two vectors are counted together into one int per rank vector of
    vectors 1..k - 1, whose B-bit slot r + n holds the count at rank r of
    vector k.  No slot carries: an int the fold reads enters the result
    times a positive count, and with its ranks fixed a symbol is fixed by
    its merged rows (a Durfee symbol of n) and the top-row lengths of
    vectors 1..k - 1, each at most n, so no count reaches 2^B.  Time is
    polynomial in ``n``, with no weight guard; the mapping is read-only
    because it is cached.
    """
    return MappingProxyType({
        (*prefix, r): c
        for prefix, ranks, counts in rank_rows(n, k, flavor) for r, c in zip(ranks, counts)
    })


def count_kmarked(m: Sequence[int], n: int, flavor: Flavor = Flavor.ORDINARY) -> int:
    """Number of k-marked symbols of ``n`` whose rank vector equals ``m``:
    one run of the DP of :func:`kmarked_rank_counts` that reads the slot of
    ``m`` alone.  For many vectors of one weight, read that cached table."""
    m = tuple(m)
    if len(m) < 1:
        raise ValueError("rank vector must have length k >= 1")
    if any(type(x) is not int for x in m):  # a dict key takes 1.0 and True for 1
        raise ValueError("rank vector entries must be ints")
    packed, width = _packed_counts(n, len(m), flavor)
    slot = m[-1] + n
    return packed.get(m[:-1], 0) >> width * slot & (1 << width) - 1 if slot >= 0 else 0


def total_kmarked(n: int, k: int, flavor: Flavor = Flavor.ORDINARY) -> int:
    """Number of k-marked symbols of ``n`` over all rank vectors: the sum of
    the counts of :func:`rank_rows`, with no table built or cached."""
    return sum(sum(counts) for _, _, counts in rank_rows(n, k, flavor))


def balanced_parts(pair: PartitionPair) -> frozenset[int]:
    """1-based indices of the balanced bottom-row parts.

    Bottom part j is balanced when alpha_{j+1} <= beta_j (top row padded with
    zeros) and the number of top parts after the first that strictly exceed
    beta_j equals the number of unbalanced parts before position j.  The scan
    runs left to right because each verdict depends on the earlier ones.
    Both rows are non-increasing, so the top parts above beta_j are a prefix
    of alpha[1:] that only grows with j: one pointer walk counts them all.
    """
    alpha, beta = pair
    balanced: set[int] = set()
    unbalanced_seen = 0
    larger = 0  # top parts after the first that strictly exceed beta_j
    for j, bj in enumerate(beta, start=1):
        while larger + 1 < len(alpha) and alpha[larger + 1] > bj:
            larger += 1
        fits = j >= len(alpha) or alpha[j] <= bj
        if fits and larger == unbalanced_seen:
            balanced.add(j)
        else:
            unbalanced_seen += 1
    return frozenset(balanced)


def deficiencies(pair: PartitionPair) -> tuple[int, ...]:
    """Per bottom part: excess of later-top-parts strictly above it over the
    unbalanced parts before it.  Nonnegative whenever the pair's bottom does
    not exceed its top."""
    alpha, beta = pair
    out: list[int] = []
    unbalanced_seen = 0
    for j, bj in enumerate(beta, start=1):
        larger = sum(1 for a in alpha[1:] if a > bj)
        out.append(larger - unbalanced_seen)
        fits = j >= len(alpha) or alpha[j] <= bj
        if not (fits and larger == unbalanced_seen):
            unbalanced_seen += 1
    return tuple(out)


def balanced_numbers(s: KMarkedSymbol) -> tuple[int, ...]:
    """Count of balanced parts per vector; the k-th entry is 0 by definition."""
    nb = [len(balanced_parts(v)) for v in s.vectors[: s.k - 1]]
    nb.append(0)
    return tuple(nb)


def is_strict_shifted_pair(pair: PartitionPair) -> bool:
    """True when the top row is strictly longer and alpha_{i+1} > beta_i throughout."""
    alpha, beta = pair
    return len(alpha) > len(beta) and all(map(gt, alpha[1:], beta))


def is_strict_shifted_symbol(s: KMarkedSymbol) -> bool:
    """True when every vector below the k-th is strict shifted."""
    return all(is_strict_shifted_pair(v) for v in s.vectors[: s.k - 1])
