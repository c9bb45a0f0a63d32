"""Truncated power series in q with exact rational coefficients, plus the
generating functions used to cross-check the enumeration modules.

A :class:`QSeries` holds a truncation order and the coefficients c_0 ..
c_order as an immutable tuple of fractions; two series are equal when every
retained coefficient agrees.  Every series is built and summed on a list and
wrapped once, when it is returned.  The series product and reciprocal remain
only for the traced benchmark's rows (``perfbench/traced.py``) that time them.

The partition, rank and product-form series run on one list of Python ints,
updated in place by two kernels that multiply or divide it by a sparse factor
(1 - c q^a) in O(order) steps.  Where a factor has a rational coefficient,
the list is held scaled: entry e is L^e times the true coefficient of q^e,
with L the least common multiple of the factors' denominators.  That is the
substitution q -> q/L, under which the factor (1 - c q^a) becomes
(1 - c L^a q^a) with an integer coefficient, so the kernels never touch a
``Fraction``.  :func:`_unscaled` divides once, entry e by L^e, when the
series is wrapped.  The partial-fraction form sums its k scaled singly-marked
product forms on one list of fractions.  Nothing is cached, so every call
returns a fresh series.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import lcm
from typing import Sequence

from . import marked
from .symbols import Flavor

Rational = Fraction | int


class QSeries:
    """c_0 .. c_order of a series truncated after q^order, as a tuple of fractions."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[Rational]):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order + 1 coefficients")
        self.order = order
        self.coeffs = tuple(map(Fraction, coeffs))

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __mul__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        if other.order != self.order:
            raise ValueError("truncation orders differ")
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs[: self.order - i + 1]):
                    if b:
                        out[i + j] += a * b
        return QSeries(self.order, out)

    def reciprocal(self) -> "QSeries":
        """Multiplicative inverse; defined only when the constant term is nonzero."""
        a = self.coeffs
        if not a[0]:
            raise ValueError("constant term is zero")
        inv0 = 1 / a[0]
        out = [inv0]
        for n in range(1, self.order + 1):
            out.append(-inv0 * sum(a[i] * out[n - i] for i in range(1, n + 1) if a[i]))
        return QSeries(self.order, out)

    def __repr__(self) -> str:
        terms = [f"{c}*q^{n}" for n, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"QSeries({body} + O(q^{self.order + 1}))"


def _times_factor(coeffs: list[int], c: int, a: int) -> None:
    """Multiply ``coeffs`` in place by (1 - c q^a), a >= 1, for an integer c
    (a scaled list passes c L^a); the loop runs downward so each
    ``coeffs[e - a]`` it reads is still the old value."""
    for e in range(len(coeffs) - 1, a - 1, -1):
        coeffs[e] -= c * coeffs[e - a]


def _divide_factor(coeffs: list[int], c: int, a: int) -> None:
    """Divide ``coeffs`` in place by (1 - c q^a), a >= 1, for an integer c
    (a scaled list passes c L^a); the loop runs upward so each
    ``coeffs[e - a]`` it reads is already the new value."""
    for e in range(a, len(coeffs)):
        coeffs[e] += c * coeffs[e - a]


def _divide_euler(coeffs: list[int], step: int, scale: int) -> None:
    """Divide ``coeffs``, scaled by ``scale``, in place by the product of
    (1 - q^j), j a multiple of ``step``: each factor is (1 - scale^j q^j)."""
    for j in range(step, len(coeffs), step):
        _divide_factor(coeffs, scale**j, j)


def _unscaled(coeffs: list[int], scale: int) -> QSeries:
    """The series whose coefficient of q^e is ``coeffs[e] / scale**e``: the
    one division of a scaled build, one gcd per coefficient."""
    return QSeries(len(coeffs) - 1, [Fraction(c, scale**e) for e, c in enumerate(coeffs)])


def partition_gf(order: int) -> QSeries:
    """Generating series of partition counts: coefficient of q^n is p(n)."""
    coeffs = [1] + [0] * order
    _divide_euler(coeffs, 1, 1)
    return QSeries(order, coeffs)


def _rank_numerator(m: int, order: int, flavor: Flavor) -> list[int]:
    """Coefficients up to q^order of the numerator of the rank series of rank
    ``m``: the sum over n >= 1 of (-1)^(n+1) q^(n(3n-1)/2 + |m|n) (1 - q^n)
    over (q)_inf, or for the odd flavor of (-1)^(n+1) q^(3n(n-1) + 1 + |m|(2n-1))
    over (q^2; q^2)_inf; without rank_gf's weight-0 patch."""
    odd = flavor is Flavor.ODD
    m = abs(m)
    coeffs = [0] * (order + 1)
    for n in count(1):
        e = 3 * n * (n - 1) + 1 + m * (2 * n - 1) if odd else n * (3 * n - 1) // 2 + m * n
        if e > order:
            return coeffs
        sign = 1 if n % 2 == 1 else -1
        coeffs[e] += sign
        if not odd and e + n <= order:
            coeffs[e + n] -= sign


def rank_gf(m: int, order: int) -> QSeries:
    """Generating series of partition counts by rank: coefficient of q^n is
    the number of partitions of n with rank ``m``.

    Built from the alternating theta-style sum with exponents
    n(3n-1)/2 + |m|n over the inverse Euler product.  The displayed sum
    starts at weight 1; the weight-0 coefficient is patched to 1 for m = 0
    because the empty partition has rank 0.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    coeffs = _rank_numerator(m, order, Flavor.ORDINARY)
    _divide_euler(coeffs, 1, 1)
    if m == 0:
        coeffs[0] += 1
    return QSeries(order, coeffs)


def odd_rank_gf(m: int, order: int) -> QSeries:
    """Generating series of odd-flavor symbol counts by rank: coefficient of
    q^n counts the odd symbols of weight n with rank ``m``."""
    coeffs = _rank_numerator(m, order, Flavor.ODD)
    _divide_euler(coeffs, 2, 1)
    return QSeries(order, coeffs)


def _checked_point(x: Sequence[Rational], k: int) -> tuple[Fraction, ...]:
    if k < 1:
        raise ValueError("k must be >= 1")
    xs = tuple(Fraction(v) for v in x)
    if len(xs) != k:
        raise ValueError(f"need {k} evaluation values, got {len(xs)}")
    if any(v == 0 for v in xs):
        raise ValueError("evaluation values must be nonzero")
    return xs


def marked_rank_gf(
    x: Sequence[Rational], k: int, order: int, flavor: Flavor = Flavor.ORDINARY
) -> QSeries:
    """The k-marked rank generating series evaluated at the point ``x``:
    coefficient of q^n is sum over rank vectors m of
    count(m; n) * x_1^{m_1} ... x_k^{m_k}, with the counts taken from the
    counting DP :func:`durfee.marked.kmarked_rank_counts` (no symbol is
    built), so the series is independent of the product and partial-fraction
    forms below."""
    xs = _checked_point(x, k)
    coeffs = []
    for n in range(order + 1):
        acc = Fraction(0)
        for m, c in marked.kmarked_rank_counts(n, k, flavor).items():
            term = Fraction(c)
            for xi, mi in zip(xs, m):
                term *= xi**mi
            acc += term
        coeffs.append(acc)
    return QSeries(order, coeffs)


def marked_rank_gf_product(
    x: Sequence[Rational], k: int, order: int, flavor: Flavor = Flavor.ORDINARY
) -> QSeries:
    """Closed product form of the k-marked rank generating series at ``x``.

    Ordinary flavor: inverse Euler product times the alternating sum over
    n >= 1 of q^{3n(n-1)/2 + kn} (1 + q^n)(1 - q^n)^2 divided by the product
    of (1 - x_j q^n)(1 - q^n / x_j).

    Odd flavor: inverse even Euler product times the alternating sum over
    n >= 0 of q^{3n^2 + (2k+1)n + k} (1 - q^{4n+2}) with denominator factors
    in q^{2n+1}.  (Stating the denominator in q^n instead does not reproduce
    the odd rank series; the 2n+1 powers are forced by the term-by-term
    expansion.)

    The sum and the Euler division run on ints scaled by L^e, where L is the
    lcm of the denominators and |numerators| of the x_j: it clears the
    denominators of x_j and 1 / x_j, the denominator factors' coefficients.
    The only division is the one by L^e in :func:`_unscaled`.
    """
    xs = _checked_point(x, k)
    factors = [v for xj in xs for v in (xj, 1 / xj)]
    scale = lcm(*(v.denominator for v in factors))
    ordinary = flavor is Flavor.ORDINARY
    first = 1 if ordinary else 0
    acc = [0] * (order + 1)
    for n in count(first):
        # term n: sign * q^e times (1 - c q^a) for each (c, a) in numerator,
        # over (1 - x_j q^step)(1 - q^step / x_j) for each j
        if ordinary:
            e, step, numerator = 3 * n * (n - 1) // 2 + k * n, n, ((-1, n), (1, n), (1, n))
        else:
            e, step, numerator = 3 * n * n + (2 * k + 1) * n + k, 2 * n + 1, ((1, 4 * n + 2),)
        if e > order:
            break
        term = [0] * (order + 1)
        term[e] = (1 if (n - first) % 2 == 0 else -1) * scale**e
        for c, a in numerator:
            _times_factor(term, c * scale**a, a)
        lift = scale**step
        for v in factors:
            _divide_factor(term, v.numerator * (lift // v.denominator), step)
        acc = [s + t for s, t in zip(acc, term)]
    _divide_euler(acc, 1 if ordinary else 2, scale)
    return _unscaled(acc, scale)


def marked_rank_gf_partial_fractions(
    x: Sequence[Rational], k: int, order: int, flavor: Flavor = Flavor.ORDINARY
) -> QSeries:
    """Partial-fraction form: the singly-marked product form at each x_i,
    scaled by the product over j != i of 1 / ((x_i - x_j)(1 - 1/(x_i x_j))).

    Requires the x_i pairwise distinct with x_i * x_j != 1.
    """
    xs = _checked_point(x, k)
    for i in range(k):
        for j in range(k):
            if i != j and (xs[i] == xs[j] or xs[i] * xs[j] == 1):
                raise ValueError("pole at evaluation point")
    out = [0] * (order + 1)
    for i, xi in enumerate(xs):
        scale = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            scale /= (xi - xj) * (1 - Fraction(1) / (xi * xj))
        series = marked_rank_gf_product((xi,), 1, order, flavor)
        out = [a + scale * c for a, c in zip(out, series.coeffs)]
    return QSeries(order, out)
