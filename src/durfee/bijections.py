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

:func:`permute_ranks` composes all of the above to realize an arbitrary
permutation of the rank vector.  Every stage preserves validity: rank flips
and balanced transfers rearrange entries within one vector, so the
whole-vector interlacing bounds never move.
"""

from __future__ import annotations

from typing import Sequence

from .marked import (
    KMarkedSymbol,
    PartitionPair,
    balanced_numbers,
    balanced_parts,
    is_strict_shifted_pair,
    is_strict_shifted_symbol,
)
from .symbols import DurfeeSymbol


def merge_marks(s: KMarkedSymbol) -> DurfeeSymbol:
    """Merge all top rows and all bottom rows of a strict shifted symbol.

    The result has the same weight, subscript, and flavor, and its rank is
    the sum of the input ranks plus k - 1.
    """
    if not is_strict_shifted_symbol(s):
        raise ValueError("not strict shifted")
    gamma = tuple(sorted((x for v in s.vectors for x in v.alpha), reverse=True))
    delta = tuple(sorted((x for v in s.vectors for x in v.beta), reverse=True))
    return DurfeeSymbol(gamma, delta, s.d, s.flavor)


def _split_point(gamma: tuple, delta: tuple, m: int, extra: int) -> int:
    """Largest j with delta_j >= gamma_{m + j + 1 + extra} (1-based, gamma
    zero-padded); j = 0 is always admissible."""
    for j in range(len(delta), 0, -1):
        gi = m + j + extra  # 0-based index of gamma_{m + j + 1 + extra}
        g = gamma[gi] if gi < len(gamma) else 0
        if delta[j - 1] >= g:
            return j
    return 0


def split_marks(ds: DurfeeSymbol, targets: Sequence[int]) -> KMarkedSymbol:
    """Rebuild a strict shifted k-marked symbol with the given rank targets.

    ``targets`` must be nonnegative and sum with k - 1 to the rank of ``ds``.
    Vectors are cut off the front of the merged rows from index k downward;
    each cut takes the longest admissible bottom prefix, which makes the map
    inverse to :func:`merge_marks`.
    """
    m = tuple(targets)
    k = len(m)
    if k < 1:
        raise ValueError("need at least one rank target")
    if k > 1 and any(x < 0 for x in m):
        # one target is the identity map, which tolerates a negative rank
        raise ValueError("rank targets must be nonnegative")
    if ds.rank != sum(m) + k - 1:
        raise ValueError("rank != sum(m_i) + k - 1")
    gamma, delta = ds.alpha, ds.beta
    vectors_rev: list[PartitionPair] = []
    for i in range(k, 1, -1):
        extra = 0 if i == k else 1
        j = _split_point(gamma, delta, m[i - 1], extra)
        take = m[i - 1] + j + extra
        vectors_rev.append(PartitionPair(gamma[:take], delta[:j]))
        gamma, delta = gamma[take:], delta[j:]
    vectors_rev.append(PartitionPair(gamma, delta))
    return KMarkedSymbol(tuple(reversed(vectors_rev)), ds.d, ds.flavor)


def subscripts(pair: PartitionPair) -> tuple[int, ...]:
    """Label each top part of a strict shifted pair.

    The label of the i-th top part (i >= 2) counts the top parts before it,
    excluding the first, minus the bottom parts >= it; the first part gets 0.
    Labels cover 0 .. (length difference - 2), which drives
    :func:`from_strict_shifted`.
    """
    if not is_strict_shifted_pair(pair):
        raise ValueError("not strict shifted")
    alpha, beta = pair
    out = [0]
    for i in range(2, len(alpha) + 1):
        ge = sum(1 for b in beta if b >= alpha[i - 1])
        out.append((i - 2) - ge)
    return tuple(out)


def _label_min_indices(pair: PartitionPair) -> tuple[int, ...]:
    """0-based index of the smallest top part per label value 0, 1, ....

    Among equal smallest values the latest index is kept; since equal parts
    carry distinct labels this is only a determinism tie-break.
    """
    labels = subscripts(pair)
    alpha = pair.alpha
    best: dict[int, int] = {}
    for idx, (part, lab) in enumerate(zip(alpha, labels)):
        cur = best.get(lab)
        if cur is None or part <= alpha[cur]:
            best[lab] = idx
    span = len(pair.alpha) - len(pair.beta) - 1
    return tuple(best[i] for i in range(span))


def subscript_minima(pair: PartitionPair) -> tuple[int, ...]:
    """The smallest top part for each label 0 .. (length difference - 2);
    a non-increasing sequence."""
    return tuple(pair.alpha[i] for i in _label_min_indices(pair))


def to_strict_shifted(pair: PartitionPair) -> PartitionPair:
    """Move the balanced bottom parts into the top row.

    Requires the bottom's largest part not to exceed the top's.  The image is
    strict shifted and its length difference grows by twice the number of
    balanced parts.
    """
    alpha, beta = pair
    if beta and (not alpha or beta[0] > alpha[0]):
        raise ValueError("largest bottom part exceeds largest top part")
    bal = balanced_parts(pair)
    moved = [beta[j - 1] for j in bal]
    new_alpha = tuple(sorted(list(alpha) + moved, reverse=True))
    new_beta = tuple(b for j, b in enumerate(beta, 1) if j not in bal)
    return PartitionPair(new_alpha, new_beta)


def from_strict_shifted(pair: PartitionPair, r: int) -> PartitionPair:
    """Move ``r`` top parts back down, one per label value 0 .. r-1.

    The parts moved are the smallest with each label; the result has exactly
    ``r`` balanced parts and its length difference shrinks by 2r.  Labels up
    to r-1 must exist, which needs the length difference to exceed ``r``;
    the resulting difference may well be negative (a pair whose bottom row
    is entirely balanced inverts through here).
    """
    if not is_strict_shifted_pair(pair):
        raise ValueError("not strict shifted")
    if r < 0:
        raise ValueError("r must be nonnegative")
    alpha, beta = pair
    if r > 0 and len(alpha) - len(beta) - 1 < r:
        raise ValueError("insufficient length difference")
    if r == 0:
        return pair
    moved_idx = set(_label_min_indices(pair)[:r])
    new_alpha = tuple(a for i, a in enumerate(alpha) if i not in moved_idx)
    new_beta = tuple(sorted(list(beta) + [alpha[i] for i in moved_idx], reverse=True))
    return PartitionPair(new_alpha, new_beta)


def symbol_to_strict_shifted(s: KMarkedSymbol) -> KMarkedSymbol:
    """Apply :func:`to_strict_shifted` to vectors 1 .. k-1, keeping vector k.

    The i-th rank grows by twice the i-th balanced number for i < k.
    """
    new_vectors = tuple(
        to_strict_shifted(v) if i < s.k else v for i, v in enumerate(s.vectors, 1)
    )
    return KMarkedSymbol(new_vectors, s.d, s.flavor)


def symbol_from_strict_shifted(s: KMarkedSymbol, t: Sequence[int]) -> KMarkedSymbol:
    """Vector-wise inverse of :func:`symbol_to_strict_shifted` for the given
    balanced-number targets ``t`` (t_k must be 0)."""
    t = tuple(t)
    if len(t) != s.k:
        raise ValueError("balanced-number vector must have length k")
    if t[-1] != 0:
        raise ValueError("the k-th balanced number is 0 by definition")
    new_vectors: list[PartitionPair] = []
    for i, (vec, ti) in enumerate(zip(s.vectors, t), 1):
        if i == s.k:
            new_vectors.append(vec)
            continue
        try:
            new_vectors.append(from_strict_shifted(vec, ti))
        except ValueError as exc:
            raise ValueError(f"vector {i}: {exc}") from None
    return KMarkedSymbol(tuple(new_vectors), s.d, s.flavor)


def flip_rank(s: KMarkedSymbol, p: int) -> KMarkedSymbol:
    """Negate the p-th rank.

    For p = k the two rows of vector k swap; for p < k the bottom row joins
    the top row's largest part as the new top, and the rest of the old top
    becomes the new bottom.  Applying the map twice restores the symbol.
    """
    k = s.k
    if not 1 <= p <= k:
        raise ValueError(f"vector index {p} out of range 1..{k}")
    alpha, beta = s.vectors[p - 1]
    if p == k:
        new = PartitionPair(beta, alpha)
    else:
        if not alpha:
            raise ValueError(f"vector {p} has no top part")
        top = tuple(sorted(beta + (alpha[0],), reverse=True))
        new = PartitionPair(top, alpha[1:])
    vectors = s.vectors[: p - 1] + (new,) + s.vectors[p:]
    return KMarkedSymbol(vectors, s.d, s.flavor)


def permute_ranks(s: KMarkedSymbol, perm: Sequence[int]) -> KMarkedSymbol:
    """Return a symbol whose i-th rank is the perm(i)-th rank of ``s``.

    ``perm`` lists perm(1) .. perm(k) as a permutation of 1..k.  The composite
    route: flip every negative rank to its absolute value, lift to the strict
    shifted world, merge the marks, split them again with the permuted
    magnitudes (the balanced-number budget stays attached to positions, so
    the k-th stays 0), unlift, then restore the signs at their new positions.
    """
    k = s.k
    perm = tuple(perm)
    if sorted(perm) != list(range(1, k + 1)):
        raise ValueError("perm must be a permutation of 1..k")
    m = s.ranks
    cur = s
    for i in range(1, k + 1):
        if m[i - 1] < 0:
            cur = flip_rank(cur, i)
    t = balanced_numbers(cur)
    merged = merge_marks(symbol_to_strict_shifted(cur))
    targets = [abs(m[perm[i - 1] - 1]) + 2 * t[i - 1] for i in range(1, k)]
    targets.append(abs(m[perm[k - 1] - 1]))
    rebuilt = symbol_from_strict_shifted(split_marks(merged, targets), t)
    for i in range(1, k + 1):
        if m[perm[i - 1] - 1] < 0:
            rebuilt = flip_rank(rebuilt, i)
    return rebuilt
