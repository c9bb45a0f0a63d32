"""Integer partitions and their elementary statistics.

A partition is represented as a plain tuple of positive integers in
non-increasing order; the empty tuple is the unique partition of 0.  All
functions here are pure and exact, and the exhaustive enumerations double as
the counting oracles for every other module in the package.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from operator import ge
from types import MappingProxyType
from typing import Mapping

Partition = tuple[int, ...]

#: Exhaustive enumeration is meant for desk-scale weights; counts stay far
#: inside 64-bit range up to here, and the guard turns an accidental huge
#: request into an error instead of an apparent hang.
MAX_WEIGHT = 40


def is_partition(parts: tuple) -> bool:
    """True when ``parts`` is non-increasing with every entry a positive int."""
    for x in parts:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            return False
    return all(map(ge, parts, parts[1:]))


def _check_weight(n: int) -> None:
    if n < 0:
        raise ValueError("weight must be nonnegative")
    if n > MAX_WEIGHT:
        raise ValueError(f"weight {n} exceeds the supported bound {MAX_WEIGHT}")


def _descending(n: int, max_part: int, odd_only: bool):
    """Yield partitions of ``n`` with parts <= ``max_part`` in decreasing
    lexicographic order, optionally restricted to odd parts."""
    if n == 0:
        yield ()
        return
    start = min(n, max_part)
    if odd_only and start % 2 == 0:
        start -= 1
    step = 2 if odd_only else 1
    for first in range(start, 0, -step):
        for rest in _descending(n - first, first, odd_only):
            yield (first,) + rest


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """Every partition of ``n`` exactly once, in decreasing lexicographic order."""
    _check_weight(n)
    return tuple(_descending(n, n, False))


@lru_cache(maxsize=None)
def bounded_partitions(n: int, max_part: int, odd_only: bool = False) -> tuple[Partition, ...]:
    """Partitions of ``n`` with all parts <= ``max_part``, decreasing lexicographic.

    They are the suffix of those with parts <= ``n`` from the first whose
    largest part is at most ``max_part``, so every bound shares one tuple per
    partition."""
    _check_weight(n)
    if n == 0 or max_part == n:  # the one partition of 0 has no part to bound
        return tuple(_descending(n, n, odd_only))
    every = bounded_partitions(n, n, odd_only)
    return every[bisect_left(every, -max_part, key=lambda p: -p[0]):]


@lru_cache(maxsize=None)
def bounded_partitions_upto(
    limit: int, max_part: int, odd_only: bool = False
) -> tuple[Partition, ...]:
    """Partitions of every weight <= ``limit`` with parts <= ``max_part``,
    merged across weights and sorted in decreasing lexicographic order, so
    the empty partition comes last.  A negative ``limit`` yields nothing.
    """
    rows: list[Partition] = []
    for w in range(max(limit, -1) + 1):
        rows.extend(bounded_partitions(w, max_part, odd_only))
    rows.sort(reverse=True)
    return tuple(rows)


def rank(p: Partition) -> int:
    """Dyson's rank: largest part minus number of parts (0 for the empty partition)."""
    return p[0] - len(p) if p else 0


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram; an involution that negates the rank."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > c) for c in range(p[0]))


def durfee_side(p: Partition) -> int:
    """Side of the largest square fitting in the diagram's upper-left corner."""
    d = 0
    while d < len(p) and p[d] >= d + 1:
        d += 1
    return d


@lru_cache(maxsize=None)
def rank_distribution(n: int) -> Mapping[int, int]:
    """Map from rank value to the number of partitions of ``n`` attaining it;
    read-only because it is cached."""
    return MappingProxyType(dict(Counter(rank(p) for p in enumerate_partitions(n))))


def count_rank(m: int, n: int) -> int:
    """Number of partitions of ``n`` with rank ``m``, by exhaustive enumeration."""
    return rank_distribution(n).get(m, 0)
