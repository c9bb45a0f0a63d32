"""JSON documents and display strings for symbols.

A symbol document lists vectors from index 1 upward::

    {"flavor": "ordinary", "d": 5,
     "vectors": [{"alpha": [2], "beta": [2]}, ...],
     "derived": {"weight": 55, "ranks": [-1, 0, 1], "balanced_numbers": [1, 2, 0]}}

The ``derived`` block is recomputed on output and ignored (but each of its
fields cross-checked when present) on input, so documents round-trip
losslessly.  Input must satisfy the marking conditions of
:func:`durfee.marked.validate`.  Plain two-row symbols are carried as
one-vector documents.

A stream of symbols is written by one line writer per output form:
:func:`document_lines` yields each symbol's one-line JSON document (the text
of ``json.dumps(symbol_to_document(s))``, built without a dict) and
:func:`display_lines` its one-line display.  Consecutive symbols of an
enumeration share most of their vectors, so each writer remembers the
previous symbol's vectors with their facts (JSON fragment, rank term,
balanced count and weight, or display fragments) and rebuilds the facts of a
position only when its vector changes.  Vector 1 changes at almost every
line, but an enumeration repeats a few vectors over and over, so each writer
also keeps, for the length of one call, the facts of every distinct vector
below k it has seen and looks them up instead of rebuilding them.  Memory is
one entry per distinct vector below k in the stream, per index for the
display.  The 61,768 symbols of n = 19, k = 3 hold 475 distinct vectors at
index 1 and 856 at index 2, those at index 1 among them: 856 JSON entries
and 1,331 display entries.  Vector k's facts differ (no -1 in its rank, a
balanced count of 0) and it rarely changes, so it is rebuilt, not kept.
:func:`render` without indent and :func:`format_symbol` of a k-marked symbol
are the writers' one-symbol cases.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterable, Iterator

from .marked import KMarkedSymbol, PartitionPair, balanced_numbers, balanced_parts, validate
from .symbols import DurfeeSymbol, Flavor, frame_weight

_SUBSCRIPT_DIGITS = "₀₁₂₃₄₅₆₇₈₉"


def _subscript(n: int) -> str:
    return "".join(_SUBSCRIPT_DIGITS[int(ch)] for ch in str(n))


def _marked(s: KMarkedSymbol | DurfeeSymbol) -> KMarkedSymbol:
    if isinstance(s, DurfeeSymbol):
        return KMarkedSymbol((PartitionPair(s.alpha, s.beta),), s.d, s.flavor)
    return s


def symbol_to_document(s: KMarkedSymbol | DurfeeSymbol) -> dict[str, Any]:
    s = _marked(s)
    return {
        "flavor": s.flavor.value,
        "d": s.d,
        "vectors": [{"alpha": list(v.alpha), "beta": list(v.beta)} for v in s.vectors],
        "derived": _derived(s),
    }


def _derived(s: KMarkedSymbol) -> dict[str, Any]:
    return {
        "weight": s.weight,
        "ranks": list(s.ranks),
        "balanced_numbers": list(balanced_numbers(s)),
    }


def _integer(x: Any) -> int:
    """``x`` itself when it is a JSON integer; a bool, float or string is not."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def document_to_symbol(doc: dict[str, Any]) -> KMarkedSymbol:
    try:
        flavor = Flavor(doc["flavor"])
        d = _integer(doc["d"])
        vectors = tuple(
            PartitionPair(tuple(map(_integer, v["alpha"])), tuple(map(_integer, v["beta"])))
            for v in doc["vectors"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed symbol document: {exc}") from None
    s = KMarkedSymbol(vectors, d, flavor)
    verdict = validate(s)
    if not verdict:
        raise ValueError(f"invalid symbol document: {verdict.reason}")
    derived = doc.get("derived")
    if derived is None:
        return s
    if not isinstance(derived, dict):
        raise ValueError("malformed symbol document: derived must be an object")
    for key, value in _derived(s).items():
        if key in derived and derived[key] != value:
            raise ValueError(f"document {key} {derived[key]} disagrees with rows ({value})")
    return s


def render(s: KMarkedSymbol | DurfeeSymbol, indent: int | None = 2) -> str:
    if indent is None:
        return next(document_lines((s,)))
    return json.dumps(symbol_to_document(s), indent=indent)


def parse(text: str) -> KMarkedSymbol:
    return document_to_symbol(json.loads(text))


def _document_facts(v: PartitionPair, top: bool) -> tuple[str, int, str, str]:
    """JSON fragment, weight, rank term and balanced count of one vector,
    ``top`` when it is vector k."""
    alpha, beta = v
    fragment = f'{{"alpha": {list(alpha)}, "beta": {list(beta)}}}'
    weight = sum(alpha) + sum(beta)
    if top:
        return fragment, weight, str(len(alpha) - len(beta)), "0"
    # Interned: a few dozen distinct numbers recur across all kept vectors.
    rank, balanced = len(alpha) - len(beta) - 1, len(balanced_parts(v))
    return fragment, weight, sys.intern(str(rank)), sys.intern(str(balanced))


def document_lines(symbols: Iterable[KMarkedSymbol | DurfeeSymbol]) -> Iterator[str]:
    """``json.dumps(symbol_to_document(s))`` for each symbol, built as text.

    Per position the writer keeps the previous symbol's vector with its JSON
    fragment, weight, rank term and balanced count, and replaces them only
    when the vector there changes: from the call's table of vectors below k
    already seen, or built afresh.  The table holds one entry per distinct
    vector below k in the stream.
    """
    below: dict[PartitionPair, tuple[str, int, str, str]] = {}
    last: tuple[PartitionPair | None, ...] = ()
    flavor = d = None
    for s in symbols:
        s = _marked(s)
        if s.d != d or s.flavor is not flavor:
            flavor, d = s.flavor, s.d
            head = f'{{"flavor": "{flavor.value}", "d": {d}, "vectors": ['
            frame = frame_weight(d, flavor)
        vectors = s.vectors
        k = len(vectors)
        if k != len(last):
            last = (None,) * k
            fragments, weights, ranks, balanced = [""] * k, [0] * k, [""] * k, [""] * k
        for i, v in enumerate(vectors):
            if v != last[i]:
                if i < k - 1:
                    facts = below.get(v)
                    if facts is None:
                        facts = below[v] = _document_facts(v, False)
                else:
                    facts = _document_facts(v, True)
                fragments[i], weights[i], ranks[i], balanced[i] = facts
        last = vectors
        yield (
            f'{head}{", ".join(fragments)}], "derived": {{"weight": {frame + sum(weights)}, '
            f'"ranks": [{", ".join(ranks)}], "balanced_numbers": [{", ".join(balanced)}]}}}}'
        )


def _display_facts(v: PartitionPair, mark: str) -> tuple[str, str]:
    """Display fragments of one vector's top and bottom rows, each entry
    followed by the vector's subscript ``mark``."""
    return " ".join(f"{x}{mark}" for x in v.alpha), " ".join(f"{x}{mark}" for x in v.beta)


def display_lines(symbols: Iterable[KMarkedSymbol]) -> Iterator[str]:
    """One-line display of each symbol in the traditional orientation (vector
    k leftmost), entries carrying their vector index as a subscript.

    Per position the writer keeps the previous symbol's vector with its two
    display fragments, and replaces them only when the vector there changes:
    from the call's tables of vectors below k already seen, one table per
    index since the subscript mark depends on the index, or built afresh
    from one subscript string per vector index.
    """
    below: list[dict[PartitionPair, tuple[str, str]]] = []  # one table per index
    last: tuple[PartitionPair | None, ...] = ()
    d = None
    for s in symbols:
        if s.d != d:
            d = s.d
            d_mark = _subscript(d)
        vectors = s.vectors
        k = len(vectors)
        if k != len(last):
            last = (None,) * k
            marks = [_subscript(i) for i in range(1, k + 1)]
            # Display order: vector k first, so vector i sits at index k - i.
            tops, bottoms = [""] * k, [""] * k
            below += [{} for _ in range(len(below), k - 1)]
        for i, v in enumerate(vectors):
            if v != last[i]:
                if i < k - 1:
                    facts = below[i].get(v)
                    if facts is None:
                        facts = below[i][v] = _display_facts(v, marks[i])
                else:
                    facts = _display_facts(v, marks[i])
                tops[k - 1 - i], bottoms[k - 1 - i] = facts
        last = vectors
        yield f"( {' '.join(filter(None, tops))} / {' '.join(filter(None, bottoms))} ){d_mark}"


def format_symbol(s: KMarkedSymbol | DurfeeSymbol) -> str:
    """One-line display in the traditional orientation (vector k leftmost),
    entries carrying their vector index as a subscript; a plain symbol's
    entries carry none."""
    if isinstance(s, DurfeeSymbol):
        top = " ".join(str(x) for x in s.alpha)
        bottom = " ".join(str(x) for x in s.beta)
        return f"( {top} / {bottom} ){_subscript(s.d)}"
    return next(display_lines((s,)))
