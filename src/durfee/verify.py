"""Identity-verification suites over exhaustive corpora.

Every check compares quantities computed along independent routes (direct
enumeration against closed formulas, forward maps against their inverses,
series built three different ways).  A check is a generator that yields one
detail string per counterexample of one case, such as a (k, n).  ``_check``
registers it in :data:`CHECKS` under a name, with a bound description, its
``cases(bounds)`` (argument tuples in run order; by default one empty case)
and data parameters (a flavor, a route name), so one generator can serve
several names.  The one driver that ``_check`` builds calls the check once
per case and makes the report row from the chained details: PASS when there
are none, else FAIL with ``counterexample: `` and the first, or ``raised
ValueError: `` and its message if a case raised one first.  A check that
rejects its bounds raises when called instead: a usage error.  Checks look
library routines up on their modules as they run, and so do the library
routines that they call, so a routine patched or traced on its module is
the one that every verify route calls.  This holds on the verify routes
only: :mod:`durfee.serialize` binds ``_block`` by name and :mod:`durfee.cli`
binds ``blocks``, ``count_kmarked`` and ``rank_rows``, so a patch of those
on :mod:`durfee.marked` misses the corpus writers and the CLI.  The corpus checks
read the block walk of :mod:`durfee.marked` with each member's ranks.
permute-corpus, flip-involution and lift-roundtrip give each block to the
block maps of :mod:`durfee.bijections`, whose work for vectors 2..k is done
once per block, and still meet the members, and each member's failures, in
enumeration order; permute-corpus passes one table of image rows to all the
blocks of a subscript, so each row is made once there, in the turn of the
first member that reads it.  lift-roundtrip drops each member back through
its symbol map, and merge-split-roundtrips calls its maps once per member.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, groupby, permutations, product
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from . import bijections, marked, moments, partitions, qseries, symbols
from .marked import KMarkedSymbol, PartitionPair
from .partitions import MAX_WEIGHT
from .symbols import Flavor, Record, set_field


class Bounds(Record):
    __slots__ = __match_args__ = ("max_n", "max_k", "order", "x")

    def __init__(
        self,
        max_n: int = 10,
        max_k: int = 3,
        order: int = 8,
        x: tuple[Fraction, ...] = (Fraction(2), Fraction(3), Fraction(5)),
    ) -> None:
        if not 0 <= max_n <= MAX_WEIGHT:
            raise ValueError(f"max_n must be in 0..{MAX_WEIGHT}, got {max_n}")
        if max_k not in (2, 3):
            raise ValueError(f"max_k must be 2 or 3, got {max_k}")
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        set_field(self, "max_n", max_n)
        set_field(self, "max_k", max_k)
        set_field(self, "order", order)
        set_field(self, "x", x)

    def ks(self) -> tuple[int, ...]:
        return tuple(k for k in (2, 3) if k <= self.max_k)


class CheckResult(Record):
    __slots__ = __match_args__ = ("name", "bound", "ok", "detail")

    def __init__(self, name: str, bound: str, ok: bool, detail: str = "") -> None:
        set_field(self, "name", name)
        set_field(self, "bound", bound)
        set_field(self, "ok", ok)
        set_field(self, "detail", detail)


CHECKS: dict[str, Callable[[Bounds], CheckResult]] = {}


def _check(name: str, bound: Callable[[Bounds], str], cases: Callable = lambda b: [()], **params):
    """Register the decorated generator as check ``name``, run per case with ``params``;
    stacked registrations apply bottom-up, so the lowest enters CHECKS first."""
    def register(gen: Callable[..., Iterator[str]]):
        def run(b: Bounds) -> CheckResult:
            # every call made up front: a check that rejects its bounds raises here
            details = chain.from_iterable([gen(b, *case, **params) for case in cases(b)])
            try:
                detail = next(details, None)
            except ValueError as exc:
                detail = f"raised ValueError: {exc}"
            if detail is None:
                return CheckResult(name, bound(b), True)
            return CheckResult(name, bound(b), False, "counterexample: " + detail)

        CHECKS[name] = run
        return gen

    return register


def _k_and_n(b: Bounds) -> str:
    return f"k in {b.ks()}, n <= {b.max_n}"


def _grid(ks: tuple[int, ...] = (), cap: int = MAX_WEIGHT):
    """Cases (k, n), k outer: k in ``ks`` or else the bounds' ks, n <= min(max_n, ``cap``)."""
    return lambda b: [(k, n) for k in ks or b.ks() for n in range(min(b.max_n, cap) + 1)]


def _series_bound(b: Bounds) -> str:
    return f"k in {b.ks()}, order {b.order}, x = {tuple(str(v) for v in b.x)}"


def _rank_vectors(n: int, k: int, dist: dict, signed: bool = True) -> set[tuple[int, ...]]:
    """All vectors (nonnegative ones unless ``signed``) that could conceivably
    have a nonzero count, the l1 ball of radius n - k + 1 built in the cube's
    lexicographic order, plus every vector actually observed."""
    ball = [((), max(0, n - k + 1))]  # (prefix, radius left)
    for _ in range(k):
        ball = [(m + (x,), left - abs(x))
                for m, left in ball for x in range(-left if signed else 0, left + 1)]
    return set(dist).union(m for m, _ in ball)


@_check("theorem-main-odd", lambda b: f"k = 2, n <= {b.max_n}", _grid((2,)), flavor=Flavor.ODD)
@_check("theorem-main-ordinary", _k_and_n, _grid(), flavor=Flavor.ORDINARY)
def _theorem_main(b: Bounds, k: int, n: int, flavor: Flavor):
    """Enumerated counts by rank vector against the closed formula."""
    dist = marked.kmarked_rank_distribution(n, k, flavor)
    for m in _rank_vectors(n, k, dist):
        expect = moments.marked_count_formula(m, n, flavor)
        got = dist.get(m, 0)
        if got != expect:
            yield f"n={n} k={k} m={m} enumerated={got} formula={expect}"


def _rank_orbit(m: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All images of ``m`` under coordinate permutations and sign flips: each
    distinct arrangement of the magnitudes, with each sign of each nonzero
    entry, so that no image is built twice."""
    return {
        image
        for perm in set(permutations(map(abs, m)))
        for image in product(*[(x, -x) if x else (0,) for x in perm])
    }


@_check("rank-symmetry-tables", _k_and_n, _grid())
def _rank_symmetry_tables(b: Bounds, k: int, n: int):
    """Count tables invariant under coordinate permutations and sign flips.

    Every observed vector must share its count with its orbit representative
    (the magnitudes in descending order), and the whole orbit is walked once,
    from the representative.  That is the same verdict as walking the orbit
    of every observed vector: a missing representative fails, and a
    representative's walk covers every member of its orbit.
    """
    dist = marked.kmarked_rank_distribution(n, k, Flavor.ORDINARY)
    for m, c in dist.items():
        rep = tuple(sorted(map(abs, m), reverse=True))
        images = _rank_orbit(m) if m == rep else (rep,)
        for image in images:
            if dist.get(image, 0) != c:
                yield f"n={n} k={k} count {c} at {m} but {dist.get(image, 0)} at {image}"


def _blocks(n: int, k: int, strict: bool = False) -> Iterator[tuple]:
    """``(block, ranks, high)`` for each block ``(d, upper, lows)`` of the walk
    of the k-marked symbols of ``n``, k >= 2, in enumeration order: ``ranks``
    holds the rank of each vector 1 in ``lows``, and ``high`` the ranks of
    vectors 2..k.  Given ``strict``, of the strict shifted symbols with
    nonnegative ranks: the walk tests each pair of its tables once and prunes
    at every vector."""
    shifted = marked.is_strict_shifted_pair

    def ranked(pairs):  # vector 1 with its rank, once per pair of the walk's table
        lows, ranks = [], []
        for p in pairs:
            r = len(p[0]) - len(p[1]) - 1
            if not strict or r >= 0 and shifted(p):
                lows.append(p)
                ranks.append(r)
        return lows, ranks

    keep = (lambda i, p: shifted(p) if i < k else len(p.alpha) >= len(p.beta)) if strict else None
    for d, upper, (lows, ranks) in marked.blocks(n, k, Flavor.ORDINARY, ranked, keep):
        yield (d, upper, lows), ranks, marked._upper_ranks(upper, k)


@_check("permute-corpus", lambda b: f"{_k_and_n(b)}, transpositions", _grid())
def _permute_corpus(b: Bounds, k: int, n: int):
    """The composite rank-permuting map is a bijection of each corpus onto
    itself, realizing every transposition.  The map keeps the subscript, so
    the corpus is read from the block walk a subscript at a time: its vector
    tuples mapped to their positions, with a rank vector each.  One byte per
    member and transposition records the images met so far; the map takes a
    block at a time."""
    transpositions = tuple(
        tuple({i: j, j: i}.get(p, p) for p in range(1, k + 1))
        for i, j in combinations(range(1, k + 1), 2)
    )
    permuted = [itemgetter(*(p - 1 for p in perm)) for perm in transpositions]
    permuter = bijections.rank_permuter(transpositions, k)
    ordinary = Flavor.ORDINARY
    for d, walk in groupby(_blocks(n, k), lambda found: found[0][0]):
        walk = list(walk)
        index: dict[tuple[PartitionPair, ...], int] = {}
        rank_of, shared = [], {}  # equal rank vectors are one tuple
        for (_, upper, lows), ranks, high in walk:
            for pair, r in zip(lows, ranks):
                index[(pair, *upper)] = len(rank_of)
                ranks = (r, *high)
                rank_of.append(shared.setdefault(ranks, ranks))
        checks = tuple(zip(transpositions, permuted, [bytearray(len(index)) for _ in permuted]))
        member = iter(rank_of)
        rows: dict = {}  # the image rows of this subscript, each made once
        for block, _, _ in walk:
            _, upper, lows = block
            images = bijections.permute_block(permuter, block, ordinary, rows)
            for pair, ranks, (image_d, flavor, vectors) in zip(lows, member, images):
                for (perm, want, hit), im in zip(checks, vectors):
                    j = index.get(im)
                    got = KMarkedSymbol(im, image_d).ranks if j is None else rank_of[j]
                    if got != want(ranks):
                        yield f"n={n} k={k} perm={perm} ranks {ranks} -> {got}"
                    if j is None or image_d != d or flavor is not ordinary or hit[j]:
                        s = KMarkedSymbol((pair, *upper), d)
                        yield f"n={n} k={k} perm={perm} image not fresh member for {s}"
                    else:
                        hit[j] = 1


@_check("moment-identity-odd", lambda b: f"k = 1, n <= {b.max_n}", _grid((1,)), flavor=Flavor.ODD)
@_check(
    "moment-identity-ordinary", lambda b: f"k in (1, 2), n <= {b.max_n}", _grid((1, 2)),
    flavor=Flavor.ORDINARY,
)
def _moment_identity(b: Bounds, k: int, n: int, flavor: Flavor):
    res = moments.check_moment_identity(k, n, flavor)
    if not res.equal:
        yield f"k={k} n={n} marked={res.marked_total} moment={res.moment}"


@_check("solution-count", lambda b: f"n <= {min(b.max_n, 12)}, k <= 3", _grid((1, 2, 3), 12))
def _solution_count(b: Bounds, k: int, n: int):
    closed = moments.solution_count(n, k)
    brute = moments.solution_count_brute(n, k)
    if closed != brute:
        yield f"n={n} k={k} closed={closed} brute={brute}"


@_check("partial-fractions-odd", _series_bound, flavor=Flavor.ODD, route="partial_fractions")
@_check(
    "partial-fractions-ordinary", _series_bound, flavor=Flavor.ORDINARY, route="partial_fractions"
)
@_check("product-form-odd", _series_bound, flavor=Flavor.ODD, route="product")
@_check("product-form-ordinary", _series_bound, flavor=Flavor.ORDINARY, route="product")
def _marked_series(b: Bounds, flavor: Flavor, route: str):
    """The marked rank series against its product or partial-fraction form,
    which runs at order 0 first: a point it cannot take is a usage error."""
    form = getattr(qseries, f"marked_rank_gf_{route}")
    for k in reversed(b.ks()):  # the largest k first, so a short --x names the count it needs
        form(b.x[:k], k, 0, flavor)
    return (
        f"k={k} coefficient of q^{n}: {lhs[n]} vs {rhs[n]}"
        for k in b.ks()
        for lhs, rhs in [(qseries.marked_rank_gf(b.x[:k], k, b.order, flavor),
                          form(b.x[:k], k, b.order, flavor))]
        for n in range(b.order + 1)
        if lhs[n] != rhs[n]
    )


_RANKS = lambda b: [(m,) for m in range(-6, 7)]


@_check("odd-rank-gf", lambda b: f"|m| <= 6, n <= {b.max_n}", _RANKS, flavor=Flavor.ODD)
@_check("rank-gf", lambda b: f"|m| <= 6, n <= {b.max_n}", _RANKS, flavor=Flavor.ORDINARY)
def _rank_gf(b: Bounds, m: int, flavor: Flavor):
    """Rank series coefficients against enumerated rank counts: partitions
    for the ordinary flavor, odd symbols for the odd one."""
    ordinary = flavor is Flavor.ORDINARY
    series = (qseries.rank_gf if ordinary else qseries.odd_rank_gf)(m, b.max_n)
    for n in range(b.max_n + 1):
        got = partitions.count_rank(m, n) if ordinary else symbols.count_durfee_rank(m, n, flavor)
        if series[n] != got:
            yield f"m={m} n={n} series={series[n]} count={got}"


@_check("durfee-bijection", lambda b: f"1 <= n <= {b.max_n}",
        lambda b: [(n,) for n in range(1, b.max_n + 1)])
def _durfee_bijection(b: Bounds, n: int):
    """to_durfee keeps each partition's rank, from_durfee undoes it, and the
    images of the partitions of n are the symbols of n, each once."""
    images = set()
    for p in partitions.enumerate_partitions(n):
        image = symbols.to_durfee(p)
        if image.rank != partitions.rank(p):
            yield f"{p} -> {image} changes the rank"
        if symbols.from_durfee(image) != p:
            yield f"{p} fails the round trip"
        if image in images:
            yield f"{image} is the image of two partitions"
        images.add(image)
    if images != set(symbols.enumerate_durfee(n)):
        yield f"n={n} images are not the symbols of n"


def _pairs_upto(total: int) -> Iterator[PartitionPair]:
    """Every pair of weight <= ``total`` whose bottom row does not exceed its top row."""
    upto = partitions.bounded_partitions_upto
    for alpha in upto(total, total):
        for beta in upto(total - sum(alpha), alpha[0] if alpha else 0):
            yield PartitionPair(alpha, beta)


@_check("pair-roundtrips", lambda b: f"|alpha| + |beta| <= {b.max_n}")
def _pair_roundtrips(b: Bounds):
    """psi in one pass: each pair with a top part maps to a strict shifted
    image and back at its balanced count r (so no two share an (image, r)),
    setting bit r of ``hits[image]``; each strict shifted pair must be hit at
    exactly the r below its length difference, the bits of ``targets[pair]``."""
    targets: dict[PartitionPair, int] = {}
    hits: dict[PartitionPair, int] = {}
    for pair in _pairs_upto(b.max_n):
        if marked.is_strict_shifted_pair(pair):
            targets[pair] = (1 << len(pair.alpha) - len(pair.beta)) - 1
        if pair.alpha:
            image = bijections.to_strict_shifted(pair)
            r = len(marked.balanced_parts(pair))
            if not marked.is_strict_shifted_pair(image):
                yield f"image of {pair} not strict shifted"
            if bijections.from_strict_shifted(image, r) != pair:
                yield f"{pair} fails the round trip"
            hits[image] = hits.get(image, 0) | 1 << r
    for pair in {**targets, **hits}:
        got, want = hits.get(pair, 0), targets.get(pair, 0)
        if got != want:
            yield f"{pair} an image at r-mask {got:#b}, not {want:#b}"


@_check("deficiency-nonnegative", lambda b: f"|alpha| + |beta| <= {b.max_n}")
def _deficiencies(b: Bounds):
    for pair in _pairs_upto(b.max_n):
        defs = marked.deficiencies(pair)
        if any(d < 0 for d in defs):
            yield f"{pair} -> {defs}"
        bal = marked.balanced_parts(pair)
        for j, d in enumerate(defs, 1):
            fits = j >= len(pair.alpha) or pair.alpha[j] <= pair.beta[j - 1]
            if (j in bal) != (d == 0 and fits):
                yield f"{pair} index {j} balance/deficiency disagree"
            if not fits and d < 1:
                yield f"{pair} index {j} oversized part with deficiency {d}"


@_check("lift-roundtrip", lambda b: f"k = 2, n <= {b.max_n}", _grid((2,)))
def _lift_roundtrip(b: Bounds, k: int, n: int):
    """The lift is strict shifted, shifts each rank below k by twice its
    balanced number, and drops back; a block at a time, each member's drop
    through the symbol map after its own lift's details.  Each vector of a
    case is counted once."""
    shifted, balanced = marked.is_strict_shifted_pair, marked.balanced_parts
    counts: dict[PartitionPair, int] = {}

    def count(v: PartitionPair) -> int:
        if v not in counts:
            counts[v] = len(balanced(v))
        return counts[v]

    for (d, upper, lows), ranks, high in _blocks(n, k):
        _, lifted_upper, lifted = bijections.lift_block((d, upper, lows))
        upper_t = (*map(count, upper[:-1]), 0)
        upper_ok = all(map(shifted, lifted_upper[:-1]))
        shifts = tuple(x + 2 * t for x, t in zip(high, upper_t))
        high_ok = marked._upper_ranks(lifted_upper, k) == shifts
        for pair, r, v in zip(lows, ranks, lifted):
            t = count(pair)
            if not (upper_ok and shifted(v)):
                yield f"lift of {KMarkedSymbol((pair, *upper), d)} not strict shifted"
            if not high_ok or len(v[0]) - len(v[1]) - 1 != r + 2 * t:
                yield f"rank shift wrong for {KMarkedSymbol((pair, *upper), d)}"
            lift = KMarkedSymbol((v, *lifted_upper), d)
            if bijections.symbol_from_strict_shifted(lift, (t, *upper_t)).vectors != (pair, *upper):
                yield f"{KMarkedSymbol((pair, *upper), d)} fails the round trip"


@_check("flip-involution", lambda b: f"k = 2, n <= {b.max_n}, both positions", _grid((2,)))
def _flip_involution(b: Bounds, k: int, n: int):
    """The flip at each position negates that rank and undoes itself; a
    block maps to a block, whose vectors 2..k are checked once."""
    for block, ranks, high in _blocks(n, k):
        d, upper, lows = block
        flips = []
        for p in range(1, k + 1):
            _, image_upper, image_lows = image = bijections.flip_block(block, p)
            back_d, back_upper, back_lows = bijections.flip_block(image, p)
            flipped = tuple(-x if i == p else x for i, x in enumerate(high, 2))
            high_ok = marked._upper_ranks(image_upper, k) == flipped
            back_ok = (back_d, back_upper) == (d, upper)
            flips.append((p, image_upper, image_lows, high_ok, back_lows, back_ok))
        for j, (pair, r) in enumerate(zip(lows, ranks)):
            for p, image_upper, image_lows, high_ok, back_lows, back_ok in flips:
                v = image_lows[j]
                if not high_ok or len(v[0]) - len(v[1]) - 1 != (-r if p == 1 else r):
                    got = KMarkedSymbol((v, *image_upper), d).ranks
                    yield f"{KMarkedSymbol((pair, *upper), d)} position {p} flips to {got}"
                if not back_ok or back_lows[j] != pair:
                    yield f"{KMarkedSymbol((pair, *upper), d)} position {p} not an involution"


@_check("merge-split-roundtrips", _k_and_n, _grid())
def _merge_split_roundtrips(b: Bounds, k: int, n: int):
    for (d, upper, lows), ranks, high in _blocks(n, k, strict=True):
        for pair, r in zip(lows, ranks):
            s, targets = KMarkedSymbol((pair, *upper), d), (r, *high)
            ds = bijections.merge_marks(s)
            if ds.rank != sum(targets) + k - 1:
                yield f"merged rank wrong for {s}"
            if bijections.split_marks(ds, targets) != s:
                yield f"{s} fails merge-then-split"
    for ds in symbols.enumerate_durfee(n):
        r = ds.rank - (k - 1)
        if r < 0:
            continue
        for head in product(range(r + 1), repeat=k - 1):
            if sum(head) > r:
                continue
            targets = head + (r - sum(head),)
            s = bijections.split_marks(ds, targets)
            if s.ranks != targets or not marked.is_valid(s):
                yield f"split of {ds} at {targets} invalid"
            if bijections.merge_marks(s) != ds:
                yield f"{ds} at {targets} fails split-then-merge"


@_check("strict-shifted-counts", _k_and_n, _grid())
def _ss_count_identity(b: Bounds, k: int, n: int):
    """Strict shifted symbols with prescribed nonnegative ranks are counted
    by a single plain rank count."""
    tally: dict[tuple[int, ...], int] = {}
    for _, ranks, high in _blocks(n, k, strict=True):
        for r in ranks:
            key = (r, *high)
            tally[key] = tally.get(key, 0) + 1
    for m in _rank_vectors(n, k, tally, signed=False):
        expect = partitions.count_rank(sum(m) + k - 1, n)
        if tally.get(m, 0) != expect:
            yield f"n={n} k={k} m={m} counted={tally.get(m, 0)} expected={expect}"


@_check("subscript-labels", lambda b: f"strict shifted pairs, |alpha| + |beta| <= {b.max_n}")
def _subscript_labels(b: Bounds):
    for pair in _pairs_upto(b.max_n):
        if not marked.is_strict_shifted_pair(pair):
            continue
        labels = bijections.subscripts(pair)
        span = len(pair.alpha) - len(pair.beta)
        if labels[0] != 0 or (len(labels) > 1 and labels[1] != 0) or any(g < 0 for g in labels):
            yield f"{pair} labels {labels}"
        if not set(range(span - 1)) <= set(labels):
            yield f"{pair} labels {labels} miss a value below {span - 1}"
        minima = bijections.subscript_minima(pair)
        if any(minima[i] < minima[i + 1] for i in range(len(minima) - 1)):
            yield f"{pair} minima {minima} not non-increasing"


SUITES: dict[str, tuple[str, ...]] = {
    "main": ("theorem-main-ordinary", "theorem-main-odd", "rank-symmetry-tables"),
    "cor13": ("moment-identity-ordinary", "moment-identity-odd", "solution-count"),
    "cor11": ("product-form-ordinary", "product-form-odd", "rank-gf", "odd-rank-gf"),
    "thm7": ("partial-fractions-ordinary", "partial-fractions-odd"),
    "phi": (
        "merge-split-roundtrips",
        "strict-shifted-counts",
        "flip-involution",
        "permute-corpus",
        "durfee-bijection",
    ),
    "psi": ("pair-roundtrips", "deficiency-nonnegative", "lift-roundtrip"),
    "subscripts": ("subscript-labels",),
}
SUITES["all"] = tuple(dict.fromkeys(name for s in SUITES.values() for name in s))


def run_checks(names: Sequence[str], bounds: Bounds) -> list[CheckResult]:
    """Run the named checks once each, in the order first named."""
    return [CHECKS[name](bounds) for name in dict.fromkeys(names)]


def run_suite(suite: str, bounds: Bounds) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return run_checks(SUITES[suite], bounds)
