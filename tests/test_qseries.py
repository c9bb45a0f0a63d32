import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from durfee.marked import kmarked_rank_distribution
from durfee.partitions import count_rank
from durfee.qseries import (
    QSeries,
    marked_rank_gf,
    marked_rank_gf_partial_fractions,
    marked_rank_gf_product,
    odd_rank_gf,
    partition_gf,
    rank_gf,
)
from durfee.symbols import Flavor, count_durfee_rank


def identity(order):
    """The series 1, truncated after q^order."""
    return QSeries(order, [1] + [0] * order)


def test_arithmetic_basics():
    q = QSeries(5, [0, 1, 0, 0, 0, 0])
    assert QSeries(5, [1, -1, 0, 0, 0, 0]) * QSeries(5, [1] * 6) == identity(5)
    assert (q * q).coeffs == (0, 0, 1, 0, 0, 0)
    # a series multiplies only a series; there is no scalar product or sum
    for bad in (lambda: q * 2, lambda: 2 * q, lambda: q + q, lambda: -q):
        with pytest.raises(TypeError):
            bad()


def test_reciprocal():
    s = QSeries(6, [1, -1, 0, 0, 0, 0, 0])
    assert s.reciprocal() == QSeries(6, [1] * 7)
    with pytest.raises(ValueError):
        QSeries(4, [0, 1, 0, 0, 0]).reciprocal()


# fractions in [-4, 4] with denominator <= 6, drawn as n/d: st.fractions draws the same
# set about three times slower, which made the ring laws the slowest test
coeff_st = st.integers(1, 6).flatmap(
    lambda d: st.integers(-4 * d, 4 * d).map(lambda n: Fraction(n, d))
)
series_st = st.lists(coeff_st, min_size=7, max_size=7).map(lambda cs: QSeries(6, cs))


@given(series_st, series_st, series_st)
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * identity(6) == a


@given(series_st)
def test_reciprocal_inverts(a):
    if not a.coeffs[0]:
        a = QSeries(6, (1, *a.coeffs[1:]))
    assert a * a.reciprocal() == identity(6)


def test_coefficient_count_must_match_the_order():
    with pytest.raises(ValueError, match=r"^need exactly order \+ 1 coefficients$"):
        QSeries(2, [1])


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError, match="truncation orders differ"):
        identity(3) * identity(4)


def test_partition_gf():
    assert [int(c) for c in partition_gf(4).coeffs] == [1, 1, 2, 3, 5]
    assert partition_gf(0) == identity(0)
    assert int(partition_gf(10)[10]) == 42
    # the inverse Euler product really is inverse to the Euler product
    for order in (0, 1, 7, 12):
        assert euler_product(order) * partition_gf(order) == identity(order)


def test_rank_gf_examples():
    assert rank_gf(0, 4)[4] == 1
    assert rank_gf(3, 4)[4] == 1
    assert all(rank_gf(5, 4)[n] == 0 for n in range(1, 5))
    assert rank_gf(0, 0)[0] == 1  # the empty partition has rank 0


def test_rank_gf_matches_counts():
    for m in range(-6, 7):
        series = rank_gf(m, 16)
        for n in range(17):
            assert series[n] == count_rank(m, n), (m, n)


def test_odd_rank_gf_examples():
    assert odd_rank_gf(1, 2)[2] == 1
    assert odd_rank_gf(0, 1)[1] == 1
    assert [int(c) for c in odd_rank_gf(2, 4).coeffs] == [0, 0, 0, 1, 0]


def test_odd_rank_gf_matches_counts():
    for m in range(-5, 6):
        series = odd_rank_gf(m, 14)
        for n in range(15):
            assert series[n] == count_durfee_rank(m, n, Flavor.ODD), (m, n)


def test_marked_rank_gf_single_variable():
    # at k = 1 the coefficient of q^4 is the rank polynomial at x
    x = Fraction(2)
    series = marked_rank_gf((x,), 1, 4)
    assert series[4] == x**3 + x + 1 + x**-1 + x**-3
    assert series[0] == 0


def test_marked_rank_gf_at_ones_totals():
    series = marked_rank_gf((1, 1), 2, 6)
    for n in range(7):
        assert series[n] == sum(kmarked_rank_distribution(n, 2).values())


def test_triple_equality_ordinary():
    lhs = marked_rank_gf((2, 3), 2, 9)
    assert lhs == marked_rank_gf_product((2, 3), 2, 9)
    assert lhs == marked_rank_gf_partial_fractions((2, 3), 2, 9)


def test_triple_equality_odd():
    lhs = marked_rank_gf((2, 3), 2, 9, Flavor.ODD)
    assert lhs == marked_rank_gf_product((2, 3), 2, 9, Flavor.ODD)
    assert lhs == marked_rank_gf_partial_fractions((2, 3), 2, 9, Flavor.ODD)


def test_product_form_matches_at_one_mark():
    for flavor in Flavor:
        assert marked_rank_gf((2,), 1, 8, flavor) == marked_rank_gf_product((2,), 1, 8, flavor)


def test_product_form_at_all_ones_gives_totals_and_moments():
    # three routes to the same numbers: closed product series at x = 1,
    # exhaustive enumeration totals, and symmetrized moments
    from durfee.marked import total_kmarked
    from durfee.moments import symmetrized_moment

    series = marked_rank_gf_product((1, 1), 2, 14)
    for n in range(15):
        assert series[n] == total_kmarked(n, 2) == symmetrized_moment(2, n)
    series_odd = marked_rank_gf_product((1, 1), 2, 14, Flavor.ODD)
    for n in range(15):
        assert series_odd[n] == total_kmarked(n, 2, Flavor.ODD) == symmetrized_moment(
            2, n, Flavor.ODD
        )
    three = marked_rank_gf_product((1, 1, 1), 3, 12)
    for n in range(13):
        assert three[n] == total_kmarked(n, 3) == symmetrized_moment(4, n)


def test_zero_order_series():
    assert marked_rank_gf((2, 3), 2, 0)[0] == 0
    assert marked_rank_gf_product((2, 3), 2, 0) == QSeries(0, [0])
    assert marked_rank_gf_product((2, 3), 2, 0, Flavor.ODD) == QSeries(0, [0])


NEGATIVE_ORDER_BUILDERS = {
    "QSeries": lambda order: QSeries(order, []),
    "partition_gf": partition_gf,
    "rank_gf m=0": lambda order: rank_gf(0, order),
    "rank_gf m=2": lambda order: rank_gf(2, order),
    "odd_rank_gf": lambda order: odd_rank_gf(0, order),
    "marked_rank_gf": lambda order: marked_rank_gf((2, 3), 2, order),
    "marked_rank_gf_product": lambda order: marked_rank_gf_product((2, 3), 2, order),
    "marked_rank_gf_partial_fractions": lambda order: marked_rank_gf_partial_fractions(
        (2, 3), 2, order
    ),
}


@pytest.mark.parametrize("name", list(NEGATIVE_ORDER_BUILDERS))
def test_negative_order_is_rejected(name):
    with pytest.raises(ValueError, match="truncation order must be nonnegative"):
        NEGATIVE_ORDER_BUILDERS[name](-1)


def test_partial_fraction_pole_detection():
    with pytest.raises(ValueError, match="pole"):
        marked_rank_gf_partial_fractions((2, Fraction(1, 2)), 2, 5)
    with pytest.raises(ValueError, match="pole"):
        marked_rank_gf_partial_fractions((3, 3), 2, 5)


def test_evaluation_point_validation():
    with pytest.raises(ValueError, match="nonzero"):
        marked_rank_gf((0, 2), 2, 4)
    with pytest.raises(ValueError, match="2 evaluation"):
        marked_rank_gf((2, 3, 5), 2, 4)
    for build in (marked_rank_gf, marked_rank_gf_product, marked_rank_gf_partial_fractions):
        with pytest.raises(ValueError, match="k must be >= 1"):
            build((), 0, 3)


def test_series_coefficients_are_immutable():
    assert type(partition_gf(4).coeffs) is tuple
    with pytest.raises(TypeError):
        partition_gf(6).coeffs[3] += 100


def test_series_is_unhashable():
    # a series compares by value but its fields can be rebound, so it defines no hash
    with pytest.raises(TypeError):
        hash(partition_gf(3))


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("xs, order", [((2, 3), 30), ((2, 3, 5), 24)])
def test_three_routes_agree_past_the_acceptance_orders(xs, order, flavor):
    k = len(xs)
    lhs = marked_rank_gf(xs, k, order, flavor)
    assert lhs == marked_rank_gf_product(xs, k, order, flavor)
    assert lhs == marked_rank_gf_partial_fractions(xs, k, order, flavor)



# The Fraction kernels and product-form loop that the integer-scaled kernels
# replaced, kept here only as the reference for them, and the Euler product
# that partition_gf inverts.
def _fraction_times_factor(coeffs, c, a):
    for e in range(len(coeffs) - 1, a - 1, -1):
        coeffs[e] -= c * coeffs[e - a]


def _fraction_divide_factor(coeffs, c, a):
    for e in range(a, len(coeffs)):
        coeffs[e] += c * coeffs[e - a]


def euler_product(order):
    """The finite product of (1 - q^j) for j <= order."""
    coeffs = [1] + [0] * order
    for j in range(1, order + 1):
        _fraction_times_factor(coeffs, 1, j)
    return QSeries(order, coeffs)


def _fraction_product(xs, k, order, flavor):
    ordinary = flavor is Flavor.ORDINARY
    first = 1 if ordinary else 0
    acc = [Fraction(0)] * (order + 1)
    for n in itertools.count(first):
        if ordinary:
            e, step, numerator = 3 * n * (n - 1) // 2 + k * n, n, ((-1, n), (1, n), (1, n))
        else:
            e, step, numerator = 3 * n * n + (2 * k + 1) * n + k, 2 * n + 1, ((1, 4 * n + 2),)
        if e > order:
            break
        term = [Fraction(0)] * (order + 1)
        term[e] = Fraction(1 if (n - first) % 2 == 0 else -1)
        for c, a in numerator:
            _fraction_times_factor(term, c, a)
        for xj in xs:
            _fraction_divide_factor(term, xj, step)
            _fraction_divide_factor(term, 1 / xj, step)
        acc = [s + t for s, t in zip(acc, term)]
    for j in range(1 if ordinary else 2, order + 1, 1 if ordinary else 2):
        _fraction_divide_factor(acc, 1, j)
    return QSeries(order, acc)


# nonzero rationals with |numerator|, denominator <= 12, +-1 among them
nonzero_st = st.sampled_from([Fraction(1), Fraction(-1)]) | st.builds(
    Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12)
)


@st.composite
def points(draw):
    xs = draw(st.lists(nonzero_st, min_size=1, max_size=3))
    if len(xs) > 1 and draw(st.booleans()):
        # x_1 x_2 = 1 is a pole of the partial fractions, not of the product
        xs[1] = 1 / xs[0]
    return tuple(xs)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(points(), st.sampled_from(list(Flavor)), st.integers(0, 40))
@example((Fraction(2), Fraction(1, 2)), Flavor.ORDINARY, 40)
@example((Fraction(-3), Fraction(-1, 3), Fraction(5, 7)), Flavor.ODD, 40)
def test_product_form_matches_fraction_kernels(xs, flavor, order):
    k = len(xs)
    series = marked_rank_gf_product(xs, k, order, flavor)
    assert series == _fraction_product(xs, k, order, flavor)
    assert all(type(c) is Fraction for c in series.coeffs)


GOLDEN_SERIES = {
    "partition": partition_gf,
    "rank m=-3": lambda order: rank_gf(-3, order),
    "rank m=0": lambda order: rank_gf(0, order),
    "rank m=2": lambda order: rank_gf(2, order),
    "odd-rank m=0": lambda order: odd_rank_gf(0, order),
    "odd-rank m=1": lambda order: odd_rank_gf(1, order),
    "product x=2,3 ordinary": lambda order: marked_rank_gf_product((2, 3), 2, order),
    "partial x=2,3 ordinary": lambda order: marked_rank_gf_partial_fractions((2, 3), 2, order),
    "product x=2,3 odd": lambda order: marked_rank_gf_product((2, 3), 2, order, Flavor.ODD),
    "partial x=2,3 odd": lambda order: marked_rank_gf_partial_fractions(
        (2, 3), 2, order, Flavor.ODD
    ),
    "product x=2,3,5 ordinary": lambda order: marked_rank_gf_product((2, 3, 5), 3, order),
    "partial x=2,3,5 ordinary": lambda order: marked_rank_gf_partial_fractions(
        (2, 3, 5), 3, order
    ),
    "product x=2,3,5 odd": lambda order: marked_rank_gf_product(
        (2, 3, 5), 3, order, Flavor.ODD
    ),
    "partial x=2,3,5 odd": lambda order: marked_rank_gf_partial_fractions(
        (2, 3, 5), 3, order, Flavor.ODD
    ),
}

# sha256 of the coefficients, one str(c) per line, recorded from the dense
# series products that the in-place sparse-factor kernels replaced.  The
# partial-fraction form stops at order 60: at order 200 it reruns the k = 1
# counting DP for every weight, and x = (2, 3) took 17.1 s ordinary and 5.3 s
# odd (Python 3.11, 2 vCPUs), against 0.01 s for the product form.
GOLDEN_DIGESTS = {
    ("partition", 8): "4a2b1064fb4fcfb15a494453841d9423da36776ab620fde17bb2a37c55705c23",
    ("partition", 60): "63252b634e674c2eb3bc82d7b41c9f268e04f61900206aa1dd656b65603e19f5",
    ("partition", 200): "21d4b35eb5ea22fd9aae39b1b1ed7d11df77949c336b355baffa53fa3b4424ac",
    ("rank m=-3", 8): "161a82f9bfc236629210edbc5ba923270bb11a50e2bc52882f5b03a3f8a321af",
    ("rank m=-3", 60): "7b93833e522c34b0c59462c110055cb70d3cbf15a509cf928631eb6a33252192",
    ("rank m=-3", 200): "dbbcdc25e804c19e480d6fe7c03acf8d05e98f037c20edbdea43abf50198fc86",
    ("rank m=0", 8): "bab9497b348cedccdb2d48ebc7274196a79e2c41d300538cbbf364ac077888b2",
    ("rank m=0", 60): "dd978e52cd93dcae1a1785f2bc6c5660829de82238d68ae73b44be48e5875e8e",
    ("rank m=0", 200): "cbfacefa894d353f3a1a7b9e3ab79473a548f82b4953cc2ed7109ba54de1362f",
    ("rank m=2", 8): "6c6c2fdf8ed0c0a829a63e8b2092e15c35c5499bc6de5a6d6ecaecc3403410f8",
    ("rank m=2", 60): "87f8ac4cb772b1530a2da9cfcb2c85d018c7cb22325348741a74df77240e26bd",
    ("rank m=2", 200): "a480f866559dcb52fdf8833a7cfb34b395cd167dfaead0ebbf5ddcf99f74479a",
    ("odd-rank m=0", 8): "130c822cafc76b78a07d6261a6081bcc9c85431ae0f5914d831b14add80ee2ba",
    ("odd-rank m=0", 60): "5bc563b030b9cf8fd1e367334f8812af1bee7126b7c8a60520fe3e070e79cb48",
    ("odd-rank m=0", 200): "bf7788d65ebee920dcb6d0c7cfedf98e55ddd046021e23479c71addce46b6045",
    ("odd-rank m=1", 8): "837a42296de105f48af85948437e9de0ada37a66fe5fbad0ea330a838a4911d6",
    ("odd-rank m=1", 60): "8cd81ca7a87ef8227afba46d63409867dd9bebde8d1bcba3061532947f62b688",
    ("odd-rank m=1", 200): "5cf5f3cf60a39755752b40cc88addd8a936a75e6b151f378b2155b8ee51f94bc",
    ("product x=2,3 ordinary", 8): "bb6e509ac7525f340956e3fa315141ff9969d3f45d32d230ffe73e70dd0912c7",
    ("product x=2,3 ordinary", 60): "b03eb9e4c7a08fedd8e4bc020c9021030d7a08b84e8226d8a836b5e73047c700",
    ("product x=2,3 ordinary", 200): "f347da298c64adda0e6dad6665bf550af29de1ae21dbe68cca933f17a097dee2",
    ("partial x=2,3 ordinary", 8): "bb6e509ac7525f340956e3fa315141ff9969d3f45d32d230ffe73e70dd0912c7",
    ("partial x=2,3 ordinary", 60): "b03eb9e4c7a08fedd8e4bc020c9021030d7a08b84e8226d8a836b5e73047c700",
    ("product x=2,3 odd", 8): "a1c833b02309ec4df9a6b3c3447571933f179d53738c6c245713573df736c248",
    ("product x=2,3 odd", 60): "58a386020dde854175393a89b01091facbcbe616230aaafd7f016cdf26f7becc",
    ("product x=2,3 odd", 200): "48fa9725f3b7585c71bd66ab78ef7e08d0ac1d0e31fa990bc0a84ff26bbb37de",
    ("partial x=2,3 odd", 8): "a1c833b02309ec4df9a6b3c3447571933f179d53738c6c245713573df736c248",
    ("partial x=2,3 odd", 60): "58a386020dde854175393a89b01091facbcbe616230aaafd7f016cdf26f7becc",
    ("product x=2,3,5 ordinary", 8): "19dd82c76f7933fce33503d7eb42226b10f89c807354fe2b545224d66cac061d",
    ("product x=2,3,5 ordinary", 60): "aab3044d31946d2a8b6f9b1011e04f1b18de36d71cb7d6ae1dc0138f6c7851ea",
    ("product x=2,3,5 ordinary", 200): "288f6f379ab97260f58aafb4212fa98cf8f6d7da244b5b32185db0e0cdc5bcfa",
    ("partial x=2,3,5 ordinary", 8): "19dd82c76f7933fce33503d7eb42226b10f89c807354fe2b545224d66cac061d",
    ("partial x=2,3,5 ordinary", 60): "aab3044d31946d2a8b6f9b1011e04f1b18de36d71cb7d6ae1dc0138f6c7851ea",
    ("product x=2,3,5 odd", 8): "6de7268ada1913ef69aec40c8608612d1bf03d6c973b9ed811a0a0c73656b4d6",
    ("product x=2,3,5 odd", 60): "9725cdd68d1c8e0a20746c31667b966bde840e123790b917744321079d4bc81c",
    ("product x=2,3,5 odd", 200): "30971d3451ec08e0c348de2df29076dd0603748878b202b75053b4ed62e706b4",
    ("partial x=2,3,5 odd", 8): "6de7268ada1913ef69aec40c8608612d1bf03d6c973b9ed811a0a0c73656b4d6",
    ("partial x=2,3,5 odd", 60): "9725cdd68d1c8e0a20746c31667b966bde840e123790b917744321079d4bc81c",
}


@pytest.mark.parametrize("name, order", list(GOLDEN_DIGESTS))
def test_series_coefficients_are_pinned(name, order):
    text = "\n".join(str(c) for c in GOLDEN_SERIES[name](order).coeffs)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[name, order]
