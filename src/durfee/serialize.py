"""JSON documents and display strings for symbols.

A symbol document lists vectors from index 1 upward::

    {"flavor": "ordinary", "d": 5,
     "vectors": [{"alpha": [2], "beta": [2]}, ...],
     "derived": {"weight": 55, "ranks": [-1, 0, 1], "balanced_numbers": [1, 2, 0]}}

The ``derived`` block is recomputed on output and ignored (but each field
present cross-checked, as JSON integers) on input, so documents round-trip
losslessly.  Input must satisfy the marking conditions of
:func:`durfee.marked.validate`, and an object at any level that holds a key
not shown above is rejected.  Plain two-row symbols are carried as
one-vector documents.

A corpus is written from the blocks ``(d, upper, lows)`` of
:func:`durfee.marked.blocks`, in which only vector 1 varies:
:func:`document_lines` yields each symbol's one-line JSON document (the text
of ``json.dumps(symbol_to_document(s))``, built without a dict) and
:func:`display_lines` its one-line display.  Each writer formats a vector
once per call and a subscript's text once per call; per block it
concatenates the texts of vectors 2..k, and per line it adds vector 1 in
one f-string.  :func:`format_symbol` of a k-marked symbol is the display
writer's one-block case.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from typing import Any, Iterable, Iterator

from . import marked
from .marked import Block, KMarkedSymbol, PartitionPair, _block
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
        "balanced_numbers": list(marked.balanced_numbers(s)),
    }


#: The JSON name of each type that a document field must have.
_KINDS = {dict: "an object", list: "an array", int: "an integer"}


def _malformed(path: str, fault: str) -> ValueError:
    """The error of a document malformed at the field ``path``, which is
    empty for the whole document."""
    return ValueError(f"malformed symbol document: {path}{': ' if path else ''}{fault}")


def _of_kind(x: Any, kind: type, path: str) -> Any:
    """``x`` itself when its type is ``kind`` (a bool, float or string is no
    integer); else the error of a document malformed at ``path``."""
    if type(x) is not kind:
        got = _KINDS[type(x)] if type(x) in (dict, list) else json.dumps(x)
        raise _malformed(path, f"expected {_KINDS[kind]}, got {got}")
    return x


def _key(obj: dict, key: str, path: str = "") -> Any:
    """``obj[key]``, where ``path`` names ``obj`` as :func:`_of_kind` reads it."""
    if key not in obj:
        raise _malformed(path, f"missing key {key!r}")
    return obj[key]


#: The keys that the document, a vector and the derived block may hold.
_DOCUMENT_KEYS = frozenset(("flavor", "d", "vectors", "derived"))
_VECTOR_KEYS = frozenset(("alpha", "beta"))
_DERIVED_KEYS = frozenset(("weight", "ranks", "balanced_numbers"))


def _known(obj: dict, keys: frozenset, path: str = "") -> None:
    """Reject ``obj``, which ``path`` names, for its first key outside
    ``keys``: a misspelt field is an error, not ignored."""
    if not obj.keys() <= keys:
        raise _malformed(path, f"unknown key {next(key for key in obj if key not in keys)!r}")


def _pair(v: Any, path: str) -> PartitionPair:
    """The vector document ``v``, which ``path`` names."""
    _known(_of_kind(v, dict, path), _VECTOR_KEYS, path)
    rows = []
    for key in ("alpha", "beta"):
        row = _of_kind(_key(v, key, path), list, f"{path}.{key}")
        for j, x in enumerate(row):
            if type(x) is not int:
                _of_kind(x, int, f"{path}.{key}[{j}]")
        rows.append(tuple(row))
    return PartitionPair(*rows)


def _typed(x: Any) -> Any:
    """``x`` with each scalar paired with its type: 3.0 and True differ from 3 and 1."""
    return [_typed(v) for v in x] if type(x) is list else (type(x), x)


def document_to_symbol(doc: dict[str, Any]) -> KMarkedSymbol:
    """The symbol of a document; a malformed one raises an error that names
    the field at fault, as in ``vectors[0]: missing key 'beta'`` or
    ``vectors[0]: unknown key 'gamma'``."""
    _known(_of_kind(doc, dict, ""), _DOCUMENT_KEYS)
    name = _key(doc, "flavor")
    if name not in [f.value for f in Flavor]:
        raise _malformed("flavor", f"unknown flavor {json.dumps(name)}")
    d = _of_kind(_key(doc, "d"), int, "d")
    vectors = _of_kind(_key(doc, "vectors"), list, "vectors")
    vectors = tuple(_pair(v, f"vectors[{i}]") for i, v in enumerate(vectors))
    s = KMarkedSymbol(vectors, d, Flavor(name))
    verdict = marked.validate(s)
    if not verdict:
        raise ValueError(f"invalid symbol document: {verdict.reason}")
    derived = doc.get("derived")
    if derived is None:
        return s
    _known(_of_kind(derived, dict, "derived"), _DERIVED_KEYS, "derived")
    for key, value in _derived(s).items():
        if key in derived and _typed(derived[key]) != _typed(value):
            raise ValueError(f"document {key} {derived[key]} disagrees with rows ({value})")
    return s


def render(s: KMarkedSymbol | DurfeeSymbol, indent: int | None = 2) -> str:
    return json.dumps(symbol_to_document(s), indent=indent)


def parse(text: str) -> KMarkedSymbol:
    return document_to_symbol(json.loads(text))


def _document_facts(v: PartitionPair, top: bool) -> tuple[str, int, str, str]:
    """JSON fragment, weight, rank and balanced count of one vector, ``top``
    when it is vector k.  Below k each text is followed by the ``", "`` that
    separates it from the next vector's."""
    alpha, beta = v
    fragment = f'{{"alpha": {list(alpha)}, "beta": {list(beta)}}}'
    weight = sum(alpha) + sum(beta)
    if top:
        return fragment, weight, str(len(alpha) - len(beta)), "0"
    # Interned: a few dozen distinct numbers recur across all kept vectors.
    rank, balanced = len(alpha) - len(beta) - 1, len(marked.balanced_parts(v))
    return f"{fragment}, ", weight, sys.intern(f"{rank}, "), sys.intern(f"{balanced}, ")


def document_lines(blocks: Iterable[Block], flavor: Flavor) -> Iterator[str]:
    """``json.dumps(symbol_to_document(s))`` for each symbol of ``blocks``,
    built as text.  Per call, one cache keeps each vector's facts, keyed by
    the vector and whether it is vector k, and one dict keeps each
    subscript's document head and frame weight.  Per block the texts of
    vectors 2..k are concatenated and their weights added; per line one
    f-string adds vector 1."""
    facts = lru_cache(maxsize=None)(_document_facts)
    heads: dict[int, tuple[str, int]] = {}
    for d, upper, lows in blocks:
        if d not in heads:
            head = f'{{"flavor": "{flavor.value}", "d": {d}, "vectors": ['
            heads[d] = head, frame_weight(d, flavor)
        head, frame = heads[d]
        k = len(upper) + 1
        fragments = ranks = balanced = ""
        for i, v in enumerate(upper, 2):
            fragment, weight, rank, count = facts(v, i == k)
            fragments, ranks, balanced = fragments + fragment, ranks + rank, balanced + count
            frame += weight
        for v in lows:
            fragment, weight, rank, count = facts(v, k == 1)
            yield (
                f'{head}{fragment}{fragments}], "derived": {{"weight": {frame + weight}, '
                f'"ranks": [{rank}{ranks}], "balanced_numbers": [{count}{balanced}]}}}}'
            )


def _display_facts(v: PartitionPair, i: int) -> tuple[str, ...]:
    """The two rows of vector ``v`` at index ``i``, each entry followed by
    the subscript ``i`` and a space."""
    mark = _subscript(i)
    return tuple("".join(f"{x}{mark} " for x in row) for row in v)


def display_lines(blocks: Iterable[Block]) -> Iterator[str]:
    """One-line display of each symbol of ``blocks`` in the traditional
    orientation (vector k leftmost), entries carrying their vector index as
    a subscript.  Per call, one cache keeps each vector's rows, keyed by the
    vector and its index, and one dict keeps each subscript's mark.  Per
    block the rows of vectors k..2 are concatenated; per line one f-string
    adds vector 1."""
    facts = lru_cache(maxsize=None)(_display_facts)
    marks: dict[int, str] = {}
    for d, upper, lows in blocks:
        if d not in marks:
            marks[d] = _subscript(d)
        mark = marks[d]
        top = bottom = ""
        for i, v in enumerate(upper, 2):
            t, b = facts(v, i)
            top, bottom = t + top, b + bottom
        for v in lows:
            t, b = facts(v, 1)
            # An empty row shows as two spaces between its brackets and the slash.
            yield f"( {top + t or ' '}/ {bottom + b or ' '}){mark}"


def format_symbol(s: KMarkedSymbol | DurfeeSymbol) -> str:
    """One-line display in the traditional orientation (vector k leftmost),
    entries carrying their vector index as a subscript; a plain symbol's
    entries carry none."""
    if isinstance(s, DurfeeSymbol):
        top = " ".join(str(x) for x in s.alpha)
        bottom = " ".join(str(x) for x in s.beta)
        return f"( {top} / {bottom} ){_subscript(s.d)}"
    return next(display_lines([_block(s)]))
