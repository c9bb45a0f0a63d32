"""Two-row symbols under a square subscript, in ordinary and odd flavors.

An ordinary symbol of weight n is a pair of partitions (top row alpha, bottom
row beta) whose parts are bounded by a subscript d >= 1, accounting for
n = |alpha| + |beta| + d^2.  The odd flavor restricts every entry to odd
values at most 2d + 1 (d >= 0 allowed) and the frame contributes
2d^2 + 2d + 1 instead of d^2.  The rank of a symbol is the length of its top
row minus the length of its bottom row; for weight n >= 1 the ordinary
symbols of n are equinumerous with the partitions of n rank-by-rank, via the
square dissection implemented by :func:`to_durfee` / :func:`from_durfee`.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from types import MappingProxyType
from typing import Iterator, Mapping

from . import partitions
from .partitions import Partition


class Flavor(str, Enum):
    ORDINARY = "ordinary"
    ODD = "odd"


def part_cap(d: int, flavor: Flavor) -> int:
    """Largest entry allowed under subscript ``d``."""
    return d if flavor is Flavor.ORDINARY else 2 * d + 1


def frame_weight(d: int, flavor: Flavor) -> int:
    """Weight contributed by the subscript frame itself."""
    return d * d if flavor is Flavor.ORDINARY else 2 * d * d + 2 * d + 1


def min_subscript(flavor: Flavor) -> int:
    # The ordinary corpus keeps d >= 1: weight 0 has no symbol.  The odd
    # frame already weighs 1 at d = 0, so d = 0 stays legal there.
    return 1 if flavor is Flavor.ORDINARY else 0


def subscript_range(n: int, flavor: Flavor) -> Iterator[int]:
    """Subscripts whose frame weight fits inside ``n``, ascending."""
    d = min_subscript(flavor)
    while frame_weight(d, flavor) <= n:
        yield d
        d += 1


class Record:
    """Base of the package's immutable records (symbols, validation and
    verify results): the fields are the ``__slots__``, set once in
    ``__init__`` and never assigned or deleted after.  A record equals only a
    record of its own class with equal fields, hashes as its field tuple,
    names every field in its repr, and pickles and copies through
    ``__reduce__``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # Called as ``self._values(self)``; two or more fields make it a tuple.
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


#: Sets a field of a record; ``Record.__setattr__`` refuses every assignment.
set_field = object.__setattr__


class DurfeeSymbol(Record):
    __slots__ = __match_args__ = ("alpha", "beta", "d", "flavor")

    def __init__(
        self, alpha: Partition, beta: Partition, d: int, flavor: Flavor = Flavor.ORDINARY
    ) -> None:
        set_field(self, "alpha", alpha)
        set_field(self, "beta", beta)
        set_field(self, "d", d)
        set_field(self, "flavor", flavor)

    @property
    def weight(self) -> int:
        return sum(self.alpha) + sum(self.beta) + frame_weight(self.d, self.flavor)

    @property
    def rank(self) -> int:
        return len(self.alpha) - len(self.beta)


def to_durfee(p: Partition) -> DurfeeSymbol:
    """Dissect a nonempty partition along its largest square.

    The columns to the right of the square become the top row, the rows below
    it the bottom row.  Weight and rank are both preserved.
    """
    if not p:
        raise ValueError("no Durfee square")
    d = partitions.durfee_side(p)
    strip = tuple(x - d for x in p[:d] if x > d)
    return DurfeeSymbol(partitions.conjugate(strip), p[d:], d)


def from_durfee(s: DurfeeSymbol) -> Partition:
    """Inverse of :func:`to_durfee` on valid ordinary symbols."""
    if s.flavor is not Flavor.ORDINARY:
        raise ValueError("no partition preimage defined")
    if s.d < 1:
        raise ValueError("no Durfee square")
    strip = partitions.conjugate(s.alpha)
    head = tuple(strip[i] + s.d if i < len(strip) else s.d for i in range(s.d))
    return head + s.beta


def enumerate_durfee(n: int, flavor: Flavor = Flavor.ORDINARY) -> Iterator[DurfeeSymbol]:
    """All symbols of weight ``n``, each exactly once.

    Canonical order: ascending subscript, then top rows in decreasing
    lexicographic order across all admissible weights, then bottom rows
    likewise.  A weight outside the enumeration guard raises before the
    first symbol.
    """
    partitions._check_weight(n)
    for d in subscript_range(n, flavor):
        rem = n - frame_weight(d, flavor)
        cap = part_cap(d, flavor)
        odd = flavor is Flavor.ODD
        for alpha in partitions.bounded_partitions_upto(rem, cap, odd):
            for beta in partitions.bounded_partitions(rem - sum(alpha), cap, odd):
                yield DurfeeSymbol(alpha, beta, d, flavor)


@lru_cache(maxsize=None)
def durfee_rank_distribution(n: int, flavor: Flavor = Flavor.ORDINARY) -> Mapping[int, int]:
    """Map from rank value to the number of symbols of weight ``n`` attaining
    it; read-only because it is cached."""
    return MappingProxyType(dict(Counter(s.rank for s in enumerate_durfee(n, flavor))))


def count_durfee_rank(m: int, n: int, flavor: Flavor = Flavor.ORDINARY) -> int:
    """Number of symbols of weight ``n`` with rank ``m``."""
    return durfee_rank_distribution(n, flavor).get(m, 0)
