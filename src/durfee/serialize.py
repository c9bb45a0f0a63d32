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
"""

from __future__ import annotations

import json
from typing import Any

from .marked import KMarkedSymbol, PartitionPair, balanced_numbers, validate
from .symbols import DurfeeSymbol, Flavor

_SUBSCRIPT_DIGITS = "₀₁₂₃₄₅₆₇₈₉"


def _subscript(n: int) -> str:
    return "".join(_SUBSCRIPT_DIGITS[int(ch)] for ch in str(n))


def symbol_to_document(s: KMarkedSymbol | DurfeeSymbol) -> dict[str, Any]:
    if isinstance(s, DurfeeSymbol):
        s = KMarkedSymbol((PartitionPair(s.alpha, s.beta),), s.d, s.flavor)
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


def document_to_symbol(doc: dict[str, Any]) -> KMarkedSymbol:
    try:
        flavor = Flavor(doc["flavor"])
        d = int(doc["d"])
        vectors = tuple(
            PartitionPair(tuple(int(x) for x in v["alpha"]), tuple(int(x) for x in v["beta"]))
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
    return json.dumps(symbol_to_document(s), indent=indent)


def parse(text: str) -> KMarkedSymbol:
    return document_to_symbol(json.loads(text))


def format_symbol(s: KMarkedSymbol | DurfeeSymbol) -> str:
    """One-line display in the traditional orientation (vector k leftmost),
    entries carrying their vector index as a subscript."""
    if isinstance(s, DurfeeSymbol):
        top = " ".join(str(x) for x in s.alpha)
        bottom = " ".join(str(x) for x in s.beta)
        return f"( {top} / {bottom} ){_subscript(s.d)}"
    tops: list[str] = []
    bottoms: list[str] = []
    for i in range(s.k, 0, -1):
        alpha, beta = s.vectors[i - 1]
        tops.extend(f"{x}{_subscript(i)}" for x in alpha)
        bottoms.extend(f"{x}{_subscript(i)}" for x in beta)
    return f"( {' '.join(tops)} / {' '.join(bottoms)} ){_subscript(s.d)}"
