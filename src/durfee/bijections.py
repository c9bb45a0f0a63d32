"""Constructive maps between marked symbols, strict shifted symbols, and
plain symbols.

Four families of maps live here, each with its inverse:

* :func:`merge_marks` / :func:`split_marks` - erase the marking of a strict
  shifted k-marked symbol into one plain symbol, and rebuild the marking for
  any prescribed nonnegative rank targets;
* :func:`to_strict_shifted` / :func:`from_strict_shifted` - transfer the
  balanced bottom parts of a pair into its top row, and put them back;
* :func:`symbol_to_strict_shifted` / :func:`symbol_from_strict_shifted` - the
  vector-wise lift of the previous pair of maps (vector k untouched);
* :func:`flip_rank` - negate one coordinate of the rank vector.

Each stage is one private core (flip, raise, lower, merge, cut, and the
one-pass top-part labels).  The vector-wise maps and the composite that
permutes the rank vector each take one block ``(d, upper, lows)`` of
:func:`durfee.marked.blocks`, in which only vector 1 varies, and do the work
for vectors 2..k once per block and vector 1's per member:
:func:`flip_block` and :func:`lift_block` return the image block, and
:func:`permute_block` yields per member.  Each vector-wise symbol map but
:func:`symbol_from_strict_shifted` is its block map's one-block case, as
:func:`durfee.serialize.format_symbol` is for the corpus writers, and checks
its arguments; a block map that yields raises in the turn of the first
member whose map raises, with that member's message.

:func:`rank_permuter` checks its perms once and returns the map from a
symbol to its images, which :func:`permute_block` reads: it lifts each
member once (flip each negative rank, raise, merge) and reads each image
from one flat row of cut and lowered vectors, each beside its flip, through
the permuter's getter for the member's sign pattern;
:func:`permute_ranks` is its one-permutation case.  Every stage preserves
validity: rank flips and balanced transfers rearrange entries within one
vector, so the whole-vector interlacing bounds never move.

The stages are pure functions of immutable tuples, and a corpus holds few
distinct vectors, so the four per-vector stages (flip, raise, lower, a
vector's facts) are memoized, each in a least-recently-used cache of
``_MEMO_SIZE`` entries.  The image rows, keyed by merged rows, are too many
for such a cache: they go in a table that lives as long as its caller needs
it, one per call of :func:`permute_block` unless the caller passes its own
(verify's permute-corpus keeps one per subscript, so each row is made once
there).  Every guard raises on every call, since an exception is neither
cached nor stored, and every kept value is a tuple, so no caller can change
what a later call returns.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from . import marked
from .marked import Block, KMarkedSymbol, PartitionPair, _new
from .symbols import DurfeeSymbol, Flavor

#: Entries of each stage memo: above the keys the verify corpora reuse, and bounded.
_MEMO_SIZE = 512


def _require_ints(values: Iterable, message: str) -> None:
    """Raise ``message`` unless each value's type is int: memo keys take 1.0 and True for 1."""
    for v in values:
        if type(v) is not int:
            raise ValueError(message)


@lru_cache(maxsize=_MEMO_SIZE)
def _flip_pair(pair: PartitionPair) -> PartitionPair:
    """Flip of a vector below k with a top part: the bottom row joins the
    largest top part as the new top, the rest of the old top is the bottom."""
    alpha, beta = pair
    return _new(PartitionPair, (tuple(sorted(beta + alpha[:1], reverse=True)), alpha[1:]))


@lru_cache(maxsize=_MEMO_SIZE)
def _raise(pair: PartitionPair, negated: bool) -> tuple[PartitionPair, int]:
    """Flip a vector below k when ``negated`` (its top row is nonempty), then
    move its balanced bottom parts into the top row; return the lifted pair
    and the number of parts moved.  A flipped pair always passes the guard."""
    alpha, beta = pair = _flip_pair(pair) if negated else pair
    if beta and (not alpha or beta[0] > alpha[0]):
        raise ValueError("largest bottom part exceeds largest top part")
    bal = marked.balanced_parts(pair)
    moved = tuple(beta[j - 1] for j in bal)
    kept = tuple(b for j, b in enumerate(beta, 1) if j not in bal)
    return _new(PartitionPair, (tuple(sorted(alpha + moved, reverse=True)), kept)), len(bal)


def _split_point(gamma: tuple, delta: tuple, m: int, extra: int) -> int:
    """Largest j with delta_j >= gamma_{m + j + 1 + extra} (1-based, gamma
    zero-padded); j = 0 is always admissible."""
    for j in range(len(delta), 0, -1):
        gi = m + j + extra  # 0-based index of gamma_{m + j + 1 + extra}
        g = gamma[gi] if gi < len(gamma) else 0
        if delta[j - 1] >= g:
            return j
    return 0


def _cut(gamma: tuple, delta: tuple, m: tuple[int, ...]) -> tuple[PartitionPair, ...]:
    """Cut vectors k, k-1, ..., 2 off the front of the merged rows for the
    checked rank targets ``m``; what is left is vector 1."""
    k = len(m)
    vecs = []  # vectors k, k-1, ..., 1
    for i in range(k, 1, -1):
        extra = 0 if i == k else 1
        j = _split_point(gamma, delta, m[i - 1], extra)
        take = m[i - 1] + j + extra
        vecs.append(_new(PartitionPair, (gamma[:take], delta[:j])))
        gamma, delta = gamma[take:], delta[j:]
    vecs.append(_new(PartitionPair, (gamma, delta)))
    return tuple(reversed(vecs))


def _labels(alpha: tuple, beta: tuple) -> list[int]:
    """Label of every top part: 0 for the first, and for the i-th (i >= 2) the
    top parts before it after the first, minus the bottom parts >= it.  Both
    rows are non-increasing, so the bottom parts >= alpha_i are a prefix that
    only grows with i."""
    out = [0]
    ge = 0
    for i in range(1, len(alpha)):
        a = alpha[i]
        while ge < len(beta) and beta[ge] >= a:
            ge += 1
        out.append(i - 1 - ge)
    return out


def _label_min_indices(pair: PartitionPair) -> list[int]:
    """0-based index of the smallest top part per label value 0, 1, ....

    The top row is non-increasing, so the smallest part with a label is its
    last one; among equal smallest values that keeps the latest index, which
    is only a determinism tie-break since equal parts carry distinct labels.
    """
    alpha, beta = pair
    last = {lab: idx for idx, lab in enumerate(_labels(alpha, beta))}
    return [last[i] for i in range(len(alpha) - len(beta) - 1)]


def _require_strict_shifted(pair: PartitionPair) -> None:
    if not marked.is_strict_shifted_pair(pair):
        raise ValueError("not strict shifted")


@lru_cache(maxsize=_MEMO_SIZE)
def _lower(pair: PartitionPair, r: int) -> PartitionPair:
    """Move ``r`` top parts back down, the smallest with each label 0 .. r-1.
    The drop leaves more top parts than bottom parts, so a flip after it
    always finds a top part."""
    _require_strict_shifted(pair)
    if r < 0:
        raise ValueError("r must be nonnegative")
    alpha, beta = pair
    if r > 0 and len(alpha) - len(beta) - 1 < r:
        raise ValueError("insufficient length difference")
    if r > 0:
        moved_idx = set(_label_min_indices(pair)[:r])
        new_alpha = tuple(a for i, a in enumerate(alpha) if i not in moved_idx)
        new_beta = tuple(sorted(beta + tuple(alpha[i] for i in moved_idx), reverse=True))
        return _new(PartitionPair, (new_alpha, new_beta))
    return pair


def _drop(pairs: Sequence[PartitionPair], t: Iterable[int]) -> list[PartitionPair]:
    """Lower each of ``pairs``, vectors 1, 2, ..., by its balanced number in
    ``t``; a guard's error names the vector."""
    out: list[PartitionPair] = []
    try:
        for pair, r in zip(pairs, t):
            out.append(_lower(pair, r))
    except ValueError as exc:
        raise ValueError(f"vector {len(out) + 1}: {exc}") from None
    return out


def _images(gamma: tuple, delta: tuple, mags: tuple, t: tuple) -> tuple[PartitionPair, ...]:
    """Cut the merged rows for the magnitudes ``mags`` plus twice the balanced
    numbers ``t`` (t_k = 0), lower vectors below k by ``t`` (a guard raises as
    :func:`_drop` names it), and return one flat row: each vector's image,
    then its flip."""
    *low, top = _cut(gamma, delta, tuple(map(add, mags, map(add, t, t))))
    low = _drop(low, t)
    return (*chain(*zip(low, map(_flip_pair, low))), top, _new(PartitionPair, top[::-1]))


def _join(high: tuple, low: tuple) -> tuple:
    """The entries of two non-increasing rows in one non-increasing row:
    ``low`` after ``high`` when none of its entries is larger, as the
    marking conditions keep vector 1 below vector 2."""
    if high and low and low[0] > high[-1]:
        return tuple(sorted(high + low, reverse=True))
    return high + low


def merge_marks(s: KMarkedSymbol) -> DurfeeSymbol:
    """Merge all top rows and all bottom rows of a strict shifted symbol.

    The result has the same weight, subscript, and flavor, and its rank is
    the sum of the input ranks plus k - 1.
    """
    vecs = s.vectors
    if not all(map(marked.is_strict_shifted_pair, vecs[:-1])):
        raise ValueError("not strict shifted")
    gamma = tuple(sorted([x for v in vecs for x in v.alpha], reverse=True))
    delta = tuple(sorted([x for v in vecs for x in v.beta], reverse=True))
    return DurfeeSymbol(gamma, delta, s.d, s.flavor)


def split_marks(ds: DurfeeSymbol, targets: Sequence[int]) -> KMarkedSymbol:
    """Rebuild a strict shifted k-marked symbol with the given rank targets.

    ``targets`` must be nonnegative and sum with k - 1 to the rank of ``ds``.
    Vectors are cut off the front of the merged rows from index k downward;
    each cut takes the longest admissible bottom prefix, which makes the map
    inverse to :func:`merge_marks`.
    """
    m = tuple(targets)
    _require_ints(m, "rank targets must be ints")
    k = len(m)
    if k < 1:
        raise ValueError("need at least one rank target")
    if k > 1 and any(x < 0 for x in m):
        # one target is the identity map, which tolerates a negative rank
        raise ValueError("rank targets must be nonnegative")
    if ds.rank != sum(m) + k - 1:
        raise ValueError("rank != sum(m_i) + k - 1")
    return KMarkedSymbol(_cut(ds.alpha, ds.beta, m), ds.d, ds.flavor)


def subscripts(pair: PartitionPair) -> tuple[int, ...]:
    """Label each top part of a strict shifted pair.

    The label of the i-th top part (i >= 2) counts the top parts before it,
    excluding the first, minus the bottom parts >= it; the first part gets 0.
    Labels cover 0 .. (length difference - 2), which drives
    :func:`from_strict_shifted`.
    """
    _require_strict_shifted(pair)
    return tuple(_labels(pair.alpha, pair.beta))


def subscript_minima(pair: PartitionPair) -> tuple[int, ...]:
    """The smallest top part for each label 0 .. (length difference - 2);
    a non-increasing sequence."""
    _require_strict_shifted(pair)
    return tuple(pair.alpha[i] for i in _label_min_indices(pair))


def to_strict_shifted(pair: PartitionPair) -> PartitionPair:
    """Move the balanced bottom parts into the top row.

    Requires the bottom's largest part not to exceed the top's.  The image is
    strict shifted and its length difference grows by twice the number of
    balanced parts.
    """
    return _raise(pair, False)[0]


def from_strict_shifted(pair: PartitionPair, r: int) -> PartitionPair:
    """Move ``r`` top parts back down, one per label value 0 .. r-1.

    The parts moved are the smallest with each label; the result has exactly
    ``r`` balanced parts and its length difference shrinks by 2r.  Labels up
    to r-1 must exist, which needs the length difference to exceed ``r``;
    the resulting difference may well be negative (a pair whose bottom row
    is entirely balanced inverts through here).
    """
    _require_ints((r,), "r must be an int")
    return _lower(pair, r)


def symbol_to_strict_shifted(s: KMarkedSymbol) -> KMarkedSymbol:
    """Apply :func:`to_strict_shifted` to vectors 1 .. k-1, keeping vector k.

    The i-th rank grows by twice the i-th balanced number for i < k.
    """
    d, upper, lows = lift_block(marked._block(s))
    return KMarkedSymbol((*lows, *upper), d, s.flavor)


def lift_block(block: Block) -> Block:
    """The image block of ``block`` under :func:`symbol_to_strict_shifted`:
    vectors 2..k-1 raised once, each vector 1 raised, vector k kept."""
    d, upper, lows = block
    if not upper:  # k = 1: vector 1 is vector k, which stays
        return block
    raised = [_raise(pair, False)[0] for pair in upper[:-1]]
    return d, (*raised, upper[-1]), [_raise(pair, False)[0] for pair in lows]


def symbol_from_strict_shifted(s: KMarkedSymbol, t: Sequence[int]) -> KMarkedSymbol:
    """Vector-wise inverse of :func:`symbol_to_strict_shifted` for the given
    balanced-number targets ``t`` (t_k must be 0): vectors 1 .. k-1 lowered."""
    t, vecs = tuple(t), s.vectors
    _require_ints(t, "balanced numbers must be ints")
    if not vecs:
        raise ValueError("symbol must have at least one vector")
    if len(t) != len(vecs):
        raise ValueError("balanced-number vector must have length k")
    if t[-1] != 0:
        raise ValueError("the k-th balanced number is 0 by definition")
    return KMarkedSymbol((*_drop(vecs[:-1], t), vecs[-1]), s.d, s.flavor)


def flip_rank(s: KMarkedSymbol, p: int) -> KMarkedSymbol:
    """Negate the p-th rank.

    For p = k the two rows of vector k swap; for p < k the bottom row joins
    the top row's largest part as the new top, and the rest of the old top
    becomes the new bottom.  Applying the map twice restores the symbol.
    """
    d, upper, lows = flip_block(marked._block(s), p)
    return KMarkedSymbol((*lows, *upper), d, s.flavor)


def flip_block(block: Block, p: int) -> Block:
    """The image block of ``block`` under :func:`flip_rank` at ``p``: for
    p >= 2 vector p flips once, for p = 1 each vector 1 flips."""
    d, upper, lows = block
    if type(p) is not int:  # a memo key takes 1.0 and True for 1
        raise ValueError("vector index must be an int")
    k = len(upper) + 1
    if not 1 <= p <= k:
        raise ValueError(f"vector index {p} out of range 1..{k}")
    if p == 1 and k == 1:
        return d, upper, [_new(PartitionPair, pair[::-1]) for pair in lows]
    if p == 1:
        if not all(map(itemgetter(0), lows)):
            raise ValueError("vector 1 has no top part")
        return d, upper, list(map(_flip_pair, lows))
    pair = upper[p - 2]
    if p == k:
        pair = _new(PartitionPair, pair[::-1])
    elif not pair[0]:
        raise ValueError(f"vector {p} has no top part")
    else:
        pair = _flip_pair(pair)
    return d, (*upper[:p - 2], pair, *upper[p - 1:]), lows


def _picks(getters: Sequence[Callable], neg: tuple[bool, ...]) -> tuple[tuple[Callable, ...], ...]:
    """Per perm getter, that getter beside the getter of an image's vectors
    from a flat row of :func:`_images`: the flip at each position that a
    negative rank moves to (a slice keeps the one vector of k = 1 in a tuple)."""
    if len(neg) == 1:
        return tuple((get, itemgetter(slice(neg[0], neg[0] + 1))) for get in getters)
    return tuple((get, itemgetter(*[2 * i + f for i, f in enumerate(get(neg))])) for get in getters)


@lru_cache(maxsize=_MEMO_SIZE)
def _vector_facts(pair: PartitionPair, top: bool) -> tuple:
    """Sign and magnitude of the rank of a vector, its balanced number, its
    rows once flipped to a nonnegative rank and raised, and whether those
    are strict shifted.  Vector k (``top``) swaps its rows to flip and is not
    raised; a vector below k has a top part."""
    alpha, beta = pair
    if top:
        x = len(alpha) - len(beta)
        return x < 0, abs(x), 0, *(pair[::-1] if x < 0 else pair), True
    x = len(alpha) - len(beta) - 1
    lifted, r = _raise(pair, x < 0)
    return x < 0, abs(x), r, *lifted, marked.is_strict_shifted_pair(lifted)


def _upper_facts(upper: tuple[PartitionPair, ...]) -> tuple:
    """The :func:`_vector_facts` of vectors 2..k joined: the tuples of their
    signs, magnitudes and balanced numbers, their merged rows, and whether
    they are all strict shifted.  Every flip guard comes before every raise."""
    for i, (alpha, _) in enumerate(upper[:-1], 2):
        if not alpha:
            raise ValueError(f"vector {i} has no top part")
    if not upper:  # k = 1: vector 1 is vector k
        return (), (), (), (), (), True
    last = len(upper) - 1
    facts = [_vector_facts(v, i == last) for i, v in enumerate(upper)]
    neg, mags, t, alphas, betas, oks = zip(*facts)
    gamma, delta = alphas[-1], betas[-1]
    for alpha, beta in zip(alphas[-2::-1], betas[-2::-1]):
        gamma, delta = _join(gamma, alpha), _join(delta, beta)
    return neg, mags, t, gamma, delta, all(oks)


class _Permuter:
    """The checked perms of :func:`rank_permuter`: per perm a getter of a
    length-k sequence in perm order, and per sign pattern of the ranks met,
    the getters of :func:`_picks`.  Called on a symbol, it returns the
    symbol's images: the one-block case of :func:`permute_block`."""

    __slots__ = ("k", "getters", "picks")

    def __init__(self, k: int, getters: list[Callable]) -> None:
        self.k, self.getters, self.picks = k, getters, {}

    def __call__(self, s: KMarkedSymbol) -> tuple[KMarkedSymbol, ...]:
        d, flavor, images = next(permute_block(self, marked._block(s), s.flavor))
        return tuple(KMarkedSymbol(vectors, d, flavor) for vectors in images)


def rank_permuter(
    perms: Iterable[Sequence[int]], k: int
) -> Callable[[KMarkedSymbol], tuple[KMarkedSymbol, ...]]:
    """Return the map from a k-marked symbol to its images, one per perm: the
    i-th rank of an image is the perm(i)-th rank of the symbol.

    Each ``perm`` lists perm(1) .. perm(k) as a permutation of 1..k, in ints;
    the perms are checked here, once.  The composite route: flip every
    negative rank to its absolute value, lift to the strict shifted world and
    merge the marks, all once per symbol; then per permutation split the
    marks again with the permuted magnitudes (the balanced-number budget
    stays attached to positions, so the k-th stays 0), drop back, and restore
    the signs at their new positions.  :func:`permute_block` maps a whole
    block with the returned permuter.
    """
    perms = tuple(map(tuple, perms))
    _require_ints(chain.from_iterable(perms), "perm must be a permutation of 1..k")
    ids = list(range(1, k + 1))
    for perm in perms:
        if sorted(perm) != ids:
            raise ValueError("perm must be a permutation of 1..k")
    if k < 1:
        raise ValueError("need at least one rank target")
    # an itemgetter of one index returns a bare item; the one perm of 1..1 is the identity
    return _Permuter(k, [itemgetter(*[p - 1 for p in perm]) if k > 1 else tuple for perm in perms])


def permute_block(
    permuter: _Permuter, block: Block, flavor: Flavor, rows: dict | None = None
) -> Iterator[tuple[int, Flavor, list[tuple[PartitionPair, ...]]]]:
    """Yield, per member of ``block`` in order, the subscript and flavor of
    its images under ``permuter`` (of :func:`rank_permuter`) and the vectors
    of each image, one per perm.

    The signs, magnitudes, raises and merged rows of vectors 2..k are made
    once per block, in the first member's turn after its own flip guard;
    each member adds vector 1's and reads each image from one flat row of
    :func:`_images`, keyed without signs, through the getter of its sign
    pattern.  ``rows`` is the table of flat rows by key, read and filled in
    the member's turn, a fresh one per call by default: a row depends on
    neither the subscript nor the signs, so a caller that maps many blocks
    may pass one table to them all and drop it when it is done.
    """
    if rows is None:
        rows = {}
    d, upper, lows = block
    k, getters, picks = permuter.k, permuter.getters, permuter.picks
    if len(upper) + 1 != k:
        raise ValueError(f"symbol has {len(upper) + 1} vectors, not k = {k}")
    shared = None
    for pair in lows:
        if k > 1 and not pair[0]:
            raise ValueError("vector 1 has no top part")
        if shared is None:  # in the first member's turn, after its own flip guard
            neg_up, mags_up, t_up, gamma_up, delta_up, shifted = shared = _upper_facts(upper)
        neg, mag, r, alpha, beta, ok = _vector_facts(pair, k == 1)
        if not (ok and shifted):
            raise ValueError("not strict shifted")
        neg, mags, t = (neg,) + neg_up, (mag,) + mags_up, (r,) + t_up
        gamma, delta = _join(gamma_up, alpha), _join(delta_up, beta)
        pick = picks.get(neg)
        if pick is None:
            pick = picks[neg] = _picks(getters, neg)
        yield d, flavor, [  # a row is a nonempty tuple, made only when the table lacks it
            select(rows.get(key := (gamma, delta, get(mags), t))
                   or rows.setdefault(key, _images(*key)))
            for get, select in pick
        ]


def permute_ranks(s: KMarkedSymbol, perm: Sequence[int]) -> KMarkedSymbol:
    """Return a symbol whose i-th rank is the perm(i)-th rank of ``s``: the
    one-permutation case of :func:`rank_permuter`."""
    return rank_permuter((perm,), s.k)(s)[0]
