"""Rank moments, symmetrized moments, and the counting identities that tie
them to marked symbols.

Everything here is exact integer arithmetic.  The polynomial binomial
coefficient (negative upper argument allowed) is the only primitive; the
identities are finite sums over the rank counts N(m, n), read from the
numerators of the rank series :func:`durfee.qseries.rank_gf` (``odd_rank_gf``
for the odd flavor), while the marked totals come from the counting DP
:func:`durfee.marked.rank_rows`.  The closed count formula reads a memoised
table per (n, k, flavor), indexed by sum_i |m_i|.  Nothing here enumerates.
Routines of other modules are looked up on their modules as they run, so a
patched routine is the one that every route calls.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from . import marked, qseries
from .symbols import Flavor


def binom(a: int, b: int) -> int:
    """Falling-factorial binomial a(a-1)...(a-b+1)/b!, valid for negative a.

    Satisfies binom(-m + j - 1, 2j) == binom(m + j, 2j), the reflection used
    to fold negative ranks onto positive ones.
    """
    if b < 0:
        raise ValueError("lower index must be nonnegative")
    num = 1
    for i in range(b):
        num *= a - i
    return num // factorial(b)


@lru_cache(maxsize=None)
def _flavor_distribution(n: int, flavor: Flavor) -> Mapping[int, int]:
    """N(m, n) by rank m: plain partition ranks for ordinary moments, odd-symbol
    ranks for odd ones; read-only because cached.  Coefficient n of a rank
    series is the sum over e of numerator[e] * p(n - e), one list p for all m."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    p = [1] + [0] * n
    qseries._divide_euler(p, 1 if flavor is Flavor.ORDINARY else 2, 1)
    counts = {
        m: sum(c * p[n - e] for e, c in enumerate(qseries._rank_numerator(m, n, flavor)) if c)
        for m in range(-n, n + 1)
    }
    if n == 0 and flavor is Flavor.ORDINARY:
        counts[0] += 1  # the empty partition: rank_gf's weight-0 patch
    return MappingProxyType({m: c for m, c in counts.items() if c})


def rank_moment(k: int, n: int) -> int:
    """Sum of m^k over the ranks of all partitions of ``n``; zero for odd k."""
    if k < 1:
        raise ValueError("moment order must be positive")
    return sum(m**k * c for m, c in _flavor_distribution(n, Flavor.ORDINARY).items())


def symmetrized_moment(k: int, n: int, flavor: Flavor = Flavor.ORDINARY) -> int:
    """Sum of binom(m + floor((k-1)/2), k) over the rank distribution."""
    if k < 1:
        raise ValueError("moment order must be positive")
    shift = (k - 1) // 2
    return sum(binom(m + shift, k) * c for m, c in _flavor_distribution(n, flavor).items())


def marked_count_formula(
    m: Sequence[int], n: int, flavor: Flavor = Flavor.ORDINARY
) -> int:
    """Number of k-marked symbols of ``n`` with rank vector ``m`` (k >= 2),
    computed from singly-marked rank counts:

        sum_j binom(j + k - 2, k - 2) * count(sum_i |m_i| + 2j + k - 1; n).

    The sum depends on ``m`` only through sum_i |m_i|, so it is read from
    :func:`_formula_table`; it vanishes past the table's end.
    """
    m = tuple(m)
    k = len(m)
    if k < 2:
        raise ValueError("rank vector must have length k >= 2")
    if n < 0:
        raise ValueError("weight must be nonnegative")
    s = sum(map(abs, m))
    table = _formula_table(n, k, flavor)
    return table[int(s)] if s < len(table) and s == int(s) else 0  # as the sum read 2.0 as 2


@lru_cache(maxsize=512)
def _formula_table(n: int, k: int, flavor: Flavor) -> tuple[int, ...]:
    """The sum of :func:`marked_count_formula` at each s = sum_i |m_i| <= n - k + 1;
    it stops once the rank argument exceeds ``n``, where the counts vanish."""
    dist = _flavor_distribution(n, flavor)
    return tuple(sum(binom(j + k - 2, k - 2) * dist.get(s + 2 * j + k - 1, 0)
                     for j in range((n - s - k + 1) // 2 + 1)) for s in range(n - k + 2))


class MomentCountCheck(NamedTuple):
    equal: bool
    marked_total: int
    moment: int


def check_moment_identity(
    k: int, n: int, flavor: Flavor = Flavor.ORDINARY
) -> MomentCountCheck:
    """Compare the number of (k+1)-marked symbols of ``n`` with the 2k-th
    symmetrized moment; the two agree for every k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = marked.total_kmarked(n, k + 1, flavor)
    moment = symmetrized_moment(2 * k, n, flavor)
    return MomentCountCheck(total == moment, total, moment)


def solution_count(n: int, k: int) -> int:
    """Number of ways to write n = |m_1| + ... + |m_{k+1}| + 2(t_1 + ... + t_k)
    with integer m_i and nonnegative t_j, in closed form."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    return binom(2 * k + n, 2 * k) + binom(2 * k + n - 1, 2 * k)


def solution_count_brute(n: int, k: int) -> int:
    """Direct enumeration companion to :func:`solution_count`."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")

    def signed(slots: int, left: int) -> int:
        # integer vectors of given length by absolute-value budget
        if slots == 0:
            return 1 if left == 0 else 0
        total = 0
        for v in range(left + 1):
            total += (1 if v == 0 else 2) * signed(slots - 1, left - v)
        return total

    def doubled(slots: int, left: int) -> int:
        # nonnegative vectors contributing twice their sum
        if slots == 0:
            return 1 if left == 0 else 0
        total = 0
        for v in range(0, left + 1, 2):
            total += doubled(slots - 1, left - v)
        return total

    return sum(signed(k + 1, s) * doubled(k, n - s) for s in range(n + 1))
