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
one-pass top-part labels); the public maps are thin wrappers that check
their arguments and build the symbol.  :func:`rank_permuter` composes the
cores to realize arbitrary permutations of the rank vector: it checks its
perms once and returns a map that lifts a symbol once (flip each negative
rank, raise, merge) and reads each image from one row of cut and lowered
vectors, each beside its flip, picking the flips that the permuted signs
need; :func:`permute_ranks` is its one-permutation case.  Every stage
preserves validity: rank flips and balanced transfers rearrange entries
within one vector, so the whole-vector interlacing bounds never move.

The stages are pure functions of immutable tuples, and a corpus holds few
distinct keys, so each is memoized in a small least-recently-used cache.
Every guard raises on every call, since an exception is not cached, and
every cached value is a tuple, so no caller can change what a later call
returns.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import add, getitem, itemgetter
from typing import Callable, Iterable, Sequence

from .marked import KMarkedSymbol, PartitionPair, balanced_parts, is_strict_shifted_pair
from .marked import _set_d, _set_flavor, _set_vectors
from .symbols import DurfeeSymbol

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
    return PartitionPair(tuple(sorted(beta + alpha[:1], reverse=True)), alpha[1:])


@lru_cache(maxsize=_MEMO_SIZE)
def _raise(pair: PartitionPair, negated: bool) -> tuple[PartitionPair, int]:
    """Flip a vector below k when ``negated`` (its top row is nonempty), then
    move its balanced bottom parts into the top row; return the lifted pair
    and the number of parts moved.  A flipped pair always passes the guard."""
    alpha, beta = pair = _flip_pair(pair) if negated else pair
    if beta and (not alpha or beta[0] > alpha[0]):
        raise ValueError("largest bottom part exceeds largest top part")
    bal = balanced_parts(pair)
    moved = tuple(beta[j - 1] for j in bal)
    kept = tuple(b for j, b in enumerate(beta, 1) if j not in bal)
    return PartitionPair(tuple(sorted(alpha + moved, reverse=True)), kept), len(bal)


@lru_cache(maxsize=_MEMO_SIZE)
def _merge(vecs: tuple[PartitionPair, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """All top rows and all bottom rows of a strict shifted vector tuple."""
    if not all(is_strict_shifted_pair(v) for v in vecs[:-1]):
        raise ValueError("not strict shifted")
    gamma = tuple(sorted((x for v in vecs for x in v.alpha), reverse=True))
    delta = tuple(sorted((x for v in vecs for x in v.beta), reverse=True))
    return gamma, delta


def _split_point(gamma: tuple, delta: tuple, m: int, extra: int) -> int:
    """Largest j with delta_j >= gamma_{m + j + 1 + extra} (1-based, gamma
    zero-padded); j = 0 is always admissible."""
    for j in range(len(delta), 0, -1):
        gi = m + j + extra  # 0-based index of gamma_{m + j + 1 + extra}
        g = gamma[gi] if gi < len(gamma) else 0
        if delta[j - 1] >= g:
            return j
    return 0


@lru_cache(maxsize=_MEMO_SIZE // 2)  # behind the images memo, half the entries keep most hits
def _cut(gamma: tuple, delta: tuple, m: tuple[int, ...]) -> tuple[PartitionPair, ...]:
    """Cut vectors k, k-1, ..., 2 off the front of the merged rows for the
    checked rank targets ``m``; what is left is vector 1."""
    k = len(m)
    vecs = [PartitionPair((), ())] * k
    for i in range(k, 1, -1):
        extra = 0 if i == k else 1
        j = _split_point(gamma, delta, m[i - 1], extra)
        take = m[i - 1] + j + extra
        vecs[i - 1] = PartitionPair(gamma[:take], delta[:j])
        gamma, delta = gamma[take:], delta[j:]
    vecs[0] = PartitionPair(gamma, delta)
    return tuple(vecs)


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
    if not is_strict_shifted_pair(pair):
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
        return PartitionPair(new_alpha, new_beta)
    return pair


def _drop(vecs: tuple, t: Sequence[int]) -> tuple[PartitionPair, ...]:
    """Lower vectors 1 .. k-1 by the balanced numbers ``t``; vector k stays."""
    out: list[PartitionPair] = []
    try:
        for pair, r in zip(vecs[:-1], t):
            out.append(_lower(pair, r))
    except ValueError as exc:
        raise ValueError(f"vector {len(out) + 1}: {exc}") from None
    return (*out, *vecs[-1:])


@lru_cache(maxsize=_MEMO_SIZE)
def _images(gamma: tuple, delta: tuple, mags: tuple, t: tuple) -> tuple[tuple, ...]:
    """Cut the merged rows for the magnitudes ``mags`` plus twice the balanced
    numbers ``t`` (t_k = 0), lower vectors below k by ``t`` (a guard raises as
    :func:`_drop` names it), and return per vector its image beside its flip."""
    rebuilt = _cut(gamma, delta, tuple(map(add, mags, map(add, t, t))))
    *low, top = _drop(rebuilt, t)
    return (*zip(low, map(_flip_pair, low)), (top, PartitionPair._make(top[::-1])))


def merge_marks(s: KMarkedSymbol) -> DurfeeSymbol:
    """Merge all top rows and all bottom rows of a strict shifted symbol.

    The result has the same weight, subscript, and flavor, and its rank is
    the sum of the input ranks plus k - 1.
    """
    gamma, delta = _merge(s.vectors)
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
    vecs = s.vectors
    return KMarkedSymbol((*(_raise(v, False)[0] for v in vecs[:-1]), *vecs[-1:]), s.d, s.flavor)


def symbol_from_strict_shifted(s: KMarkedSymbol, t: Sequence[int]) -> KMarkedSymbol:
    """Vector-wise inverse of :func:`symbol_to_strict_shifted` for the given
    balanced-number targets ``t`` (t_k must be 0)."""
    t = tuple(t)
    _require_ints(t, "balanced numbers must be ints")
    if len(t) != s.k:
        raise ValueError("balanced-number vector must have length k")
    if t[-1] != 0:
        raise ValueError("the k-th balanced number is 0 by definition")
    return KMarkedSymbol(_drop(s.vectors, t), s.d, s.flavor)


def flip_rank(s: KMarkedSymbol, p: int) -> KMarkedSymbol:
    """Negate the p-th rank.

    For p = k the two rows of vector k swap; for p < k the bottom row joins
    the top row's largest part as the new top, and the rest of the old top
    becomes the new bottom.  Applying the map twice restores the symbol.
    """
    _require_ints((p,), "vector index must be an int")
    vecs = list(s.vectors)
    if not 1 <= p <= len(vecs):
        raise ValueError(f"vector index {p} out of range 1..{len(vecs)}")
    if p == len(vecs):
        vecs[-1] = PartitionPair._make(vecs[-1][::-1])
    elif not vecs[p - 1][0]:
        raise ValueError(f"vector {p} has no top part")
    else:
        vecs[p - 1] = _flip_pair(vecs[p - 1])
    return KMarkedSymbol(tuple(vecs), s.d, s.flavor)


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
    the signs at their new positions.
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
    getters = [itemgetter(*[p - 1 for p in perm]) if k > 1 else tuple for perm in perms]

    def images(s: KMarkedSymbol) -> tuple[KMarkedSymbol, ...]:
        vectors, d, flavor = s.vectors, s.d, s.flavor
        if len(vectors) != k:
            raise ValueError(f"symbol has {len(vectors)} vectors, not k = {k}")
        *low, top = vectors
        xs = [len(alpha) - len(beta) - 1 for alpha, beta in low]
        xs.append(len(top[0]) - len(top[1]))
        neg = [x < 0 for x in xs]
        if not all(alpha for alpha, _ in low):  # every flip guard before every raise
            i = next(i for i, (alpha, _) in enumerate(low, 1) if not alpha)
            raise ValueError(f"vector {i} has no top part")
        last = (PartitionPair._make(top[::-1]) if neg[-1] else top, 0)  # vector k: swap its rows
        lifted, t = zip(*map(_raise, low, neg), last)
        gamma, delta = _merge(lifted)
        mags = tuple(map(abs, xs))
        out = []
        for get in getters:  # t stays at its positions; each sign picks from its vector's pair
            image = object.__new__(KMarkedSymbol)  # set through its slots, without __init__
            _set_vectors(image, tuple(map(getitem, _images(gamma, delta, get(mags), t), get(neg))))
            _set_d(image, d)
            _set_flavor(image, flavor)
            out.append(image)
        return tuple(out)

    return images


def permute_ranks(s: KMarkedSymbol, perm: Sequence[int]) -> KMarkedSymbol:
    """Return a symbol whose i-th rank is the perm(i)-th rank of ``s``: the
    one-permutation case of :func:`rank_permuter`."""
    return rank_permuter((perm,), s.k)(s)[0]
