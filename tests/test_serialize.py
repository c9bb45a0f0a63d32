import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from durfee import marked
from durfee.marked import KMarkedSymbol, PartitionPair, enumerate_kmarked
from durfee.serialize import (
    display_lines,
    document_lines,
    document_to_symbol,
    format_symbol,
    parse,
    render,
    symbol_to_document,
)
from durfee.symbols import DurfeeSymbol, Flavor, enumerate_durfee

SYM55 = KMarkedSymbol(
    (
        PartitionPair((2,), (2,)),
        PartitionPair((3, 3, 2), (3, 2)),
        PartitionPair((4, 4), (5,)),
    ),
    5,
)


def test_document_shape():
    doc = symbol_to_document(SYM55)
    assert doc["flavor"] == "ordinary" and doc["d"] == 5
    assert doc["vectors"][0] == {"alpha": [2], "beta": [2]}  # vector 1 first
    assert doc["derived"] == {
        "weight": 55,
        "ranks": [-1, 0, 1],
        "balanced_numbers": [1, 1, 0],
    }


def test_round_trip_corpora():
    for n in range(0, 11):
        for k in (1, 2):
            for s in enumerate_kmarked(n, k):
                assert parse(render(s)) == s
    for n in range(1, 10):
        for s in enumerate_kmarked(n, 2, Flavor.ODD):
            assert parse(render(s)) == s


def test_render_is_deterministic():
    assert render(SYM55) == render(parse(render(SYM55)))


def test_durfee_symbols_become_one_vector_documents():
    ds = DurfeeSymbol((2, 1), (1,), 2)
    doc = symbol_to_document(ds)
    assert len(doc["vectors"]) == 1
    assert parse(render(ds)).vectors == (PartitionPair((2, 1), (1,)),)


def test_weight_cross_check():
    doc = symbol_to_document(SYM55)
    doc["derived"]["weight"] = 54
    with pytest.raises(ValueError, match="weight"):
        document_to_symbol(doc)


@pytest.mark.parametrize(
    "key, value", [("ranks", [-1, 0, 2]), ("balanced_numbers", [0, 1, 0])]
)
def test_derived_cross_checks(key, value):
    doc = symbol_to_document(SYM55)
    doc["derived"][key] = value
    with pytest.raises(ValueError, match=key):
        document_to_symbol(doc)


def test_derived_block_must_be_an_object():
    doc = symbol_to_document(SYM55)
    doc["derived"] = [55]
    with pytest.raises(ValueError, match="^malformed symbol document: derived: expected an object"):
        document_to_symbol(doc)


def test_invalid_symbol_documents_rejected():
    # the top entry 9 exceeds the cap 1 of subscript 1
    doc = {"d": 1, "flavor": "ordinary", "vectors": [{"alpha": [9], "beta": []}]}
    with pytest.raises(ValueError, match="invalid symbol document: condition \\(3\\)"):
        document_to_symbol(doc)
    odd = symbol_to_document(SYM55)
    odd["flavor"] = "odd"
    del odd["derived"]
    with pytest.raises(ValueError, match="invalid symbol document"):
        document_to_symbol(odd)


def test_malformed_documents_rejected():
    with pytest.raises(ValueError, match="malformed"):
        document_to_symbol({"flavor": "ordinary", "d": 1})
    with pytest.raises(ValueError, match="malformed"):
        document_to_symbol({"flavor": "weird", "d": 1, "vectors": []})


# Each error names the field at fault, not the Python error that reading it raised.
@pytest.mark.parametrize("doc, message", [
    ([], "expected an object, got an array"),
    ({"d": 1, "vectors": []}, "missing key 'flavor'"),
    ({"flavor": 1, "d": 1, "vectors": []}, "flavor: unknown flavor 1"),
    ({"flavor": "weird", "d": 1, "vectors": []}, 'flavor: unknown flavor "weird"'),
    ({"flavor": "ordinary", "vectors": []}, "missing key 'd'"),
    ({"flavor": "ordinary", "d": 1}, "missing key 'vectors'"),
    ({"flavor": "ordinary", "d": 1, "vectors": 5}, "vectors: expected an array, got 5"),
    ({"flavor": "ordinary", "d": 1, "vectors": [None]}, "vectors[0]: expected an object, got null"),
    ({"flavor": "ordinary", "d": 1, "vectors": [{"alpha": [1]}]}, "vectors[0]: missing key 'beta'"),
    ({"flavor": "ordinary", "d": 1, "vectors": [{"alpha": {}, "beta": []}]},
     "vectors[0].alpha: expected an array, got an object"),
    ({"flavor": "ordinary", "d": 1, "vectors": [{"alpha": [1], "beta": []}, {"alpha": [2, None]}]},
     "vectors[1].alpha[1]: expected an integer, got null"),
])
def test_malformed_documents_name_the_field(doc, message):
    with pytest.raises(ValueError) as raised:
        document_to_symbol(doc)
    assert str(raised.value) == f"malformed symbol document: {message}"


# A key that no field of the document defines, at each level, is an error
# that names it: the symbol it sits in is valid and would otherwise be mapped.
@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(extra=1), "unknown key 'extra'"),
    (lambda doc: doc["vectors"][0].update(gamma=[1]), "vectors[0]: unknown key 'gamma'"),
    (lambda doc: doc["vectors"][2].update(Alpha=[4]), "vectors[2]: unknown key 'Alpha'"),
    (lambda doc: doc["derived"].update(junk=5), "derived: unknown key 'junk'"),
], ids=["top-level", "vector", "later-vector", "derived"])
def test_unknown_keys_rejected(edit, message):
    doc = json.loads(next(document_lines([marked._block(SYM55)], Flavor.ORDINARY)))
    assert document_to_symbol(doc) == SYM55
    edit(doc)
    with pytest.raises(ValueError) as raised:
        document_to_symbol(doc)
    assert str(raised.value) == f"malformed symbol document: {message}"


# Each would read as the valid one-vector symbol ((1) / ())_1 under int().
@pytest.mark.parametrize(
    "field, value", [("alpha", [1.9]), ("alpha", [True]), ("alpha", ["1"]), ("d", 1.5)]
)
def test_non_integer_entries_rejected(field, value):
    doc = {"flavor": "ordinary", "d": 1, "vectors": [{"alpha": [1], "beta": []}]}
    assert document_to_symbol(doc) == KMarkedSymbol((PartitionPair((1,), ()),), 1)
    if field == "d":
        doc["d"] = value
    else:
        doc["vectors"][0][field] = value
    where, got = ("d", value) if field == "d" else (f"vectors[0].{field}[0]", value[0])
    with pytest.raises(ValueError) as raised:
        document_to_symbol(doc)
    want = f"malformed symbol document: {where}: expected an integer, got {json.dumps(got)}"
    assert str(raised.value) == want


def test_derived_block_optional_on_input():
    doc = symbol_to_document(SYM55)
    del doc["derived"]
    assert document_to_symbol(doc) == SYM55


def test_format_symbol():
    assert (
        format_symbol(SYM55)
        == "( 4₃ 4₃ 3₂ 3₂ 2₂ 2₁ / 5₃ 3₂ 2₂ 2₁ )₅"
    )
    assert format_symbol(DurfeeSymbol((2, 2), (1,), 2)) == "( 2 2 / 1 )₂"
    with pytest.raises(ValueError, match="^symbol must have at least one vector$"):
        format_symbol(KMarkedSymbol((), 1))


def test_json_documents_are_valid_json():
    text = render(SYM55)
    assert json.loads(text)["d"] == 5


def _corpus_blocks(k, flavor, max_n=10):
    return [b for n in range(max_n + 1) for b in marked.blocks(n, k, flavor)]


def _symbols(blocks, flavor=Flavor.ORDINARY):
    return [KMarkedSymbol((v, *upper), d, flavor) for d, upper, lows in blocks for v in lows]


def _mark(i):
    return str(i).translate(str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉"))


def _display(s):
    """The display of a k-marked symbol, built entry by entry: vector k
    leftmost, each entry followed by its vector index as a subscript."""
    k = len(s.vectors)
    top, bottom = (
        " ".join(f"{x}{_mark(i)}" for i in range(k, 0, -1) for x in s.vectors[i - 1][row])
        for row in (0, 1)
    )
    return f"( {top} / {bottom} ){_mark(s.d)}"


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_document_lines_match_json_dumps(k, flavor):
    # One call over every block of weight <= 10 (<= 9 for k = 5, whose four
    # upper vectors are concatenated per block): subscript and weight change
    # between blocks.
    max_n = 10 if k < 5 else 9
    blocks = _corpus_blocks(k, flavor, max_n)
    corpus = _symbols(blocks, flavor)
    assert corpus == [s for n in range(max_n + 1) for s in enumerate_kmarked(n, k, flavor)]
    lines = list(document_lines(blocks, flavor))
    assert len(lines) == len(corpus)
    for s, line in zip(corpus, lines):
        assert line == json.dumps(symbol_to_document(s))
        assert parse(line) == s  # also cross-checks the derived block


def test_document_routes_read_balanced_parts_through_marked(monkeypatch):
    # Both document routes look balanced_parts up on ``marked`` as they run,
    # so a routine patched there reaches the corpus writer too.
    corpora = [(flavor, _corpus_blocks(k, flavor, 8)) for flavor in Flavor for k in (1, 2, 3)]
    before = [list(document_lines(blocks, flavor)) for flavor, blocks in corpora]
    original = marked.balanced_parts
    monkeypatch.setattr(
        marked, "balanced_parts", lambda pair: (parts := original(pair)) and parts - {min(parts)}
    )
    after = [list(document_lines(blocks, flavor)) for flavor, blocks in corpora]
    assert after != before  # the patch changes some balanced number
    for (flavor, blocks), lines in zip(corpora, after):
        assert lines == [json.dumps(symbol_to_document(s)) for s in _symbols(blocks, flavor)]


# sha256 of the display lines (one per line, newline-terminated) of every
# symbol of weight <= 10, recorded from format_symbol before the line writers
# existed: (flavor, k) -> (symbols, digest)
GOLDEN_DISPLAY = {
    ("ordinary", 1): (138, "21c832eb378f4f13ed397354a2c0bd3241929016d92b34411920619ff2ae09ee"),
    ("ordinary", 2): (756, "5cfa6547227b6e94be5b8a80bec2c0c7492813e7cc58ebe949af842b5dc3b010"),
    ("ordinary", 3): (2052, "37d23c30c0f4fc727e3deee3d11f7bcfcb9b577328a4fc5b65916b6eab949a93"),
    ("ordinary", 4): (3224, "91bc34ac39061ab302b54c123d672d665d92e09ab9b23faa946b64849e460a57"),
    ("odd", 1): (88, "b485c122cae0b1b09d5ec89f74e2b089a59f07834751a1052ac0f81708332b44"),
    ("odd", 2): (581, "860e24f7cfd00c2b33cb3db1c59c466af241b70146fd2cd3da98d423602f4c19"),
    ("odd", 3): (1807, "1d4506b642bca92b1b3bfa209dff17056913ef13f3ca77c993c2b531bd3386d9"),
    ("odd", 4): (3049, "7e574086cd806ce030eaba7c500c8adb646661fc016c1a3cc58b1555777e1486"),
}


@pytest.mark.parametrize("flavor, k", sorted(GOLDEN_DISPLAY))
def test_display_lines_are_pinned(flavor, k):
    blocks = _corpus_blocks(k, Flavor(flavor))
    lines = list(display_lines(blocks))
    assert lines == [_display(s) for s in _symbols(blocks)]
    digest = hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()
    assert (len(lines), digest) == GOLDEN_DISPLAY[flavor, k]


def _assert_writers_match_one_symbol_forms(blocks, flavor):
    symbols = _symbols(blocks, flavor)
    documents = [json.dumps(symbol_to_document(s)) for s in symbols]
    assert list(document_lines(blocks, flavor)) == documents
    assert list(display_lines(blocks)) == [_display(s) for s in symbols]


def test_line_writers_follow_a_change_of_subscript():
    # The same vectors under subscripts 5 and 6: the head, the frame weight
    # and the display mark follow the block, the vector facts stay.
    v1, *upper = SYM55.vectors
    blocks = [(5, tuple(upper), [v1]), (6, tuple(upper), [v1]), (5, tuple(upper), (v1,))]
    _assert_writers_match_one_symbol_forms(blocks, Flavor.ORDINARY)
    lines = document_lines(blocks, Flavor.ORDINARY)
    assert [json.loads(line)["derived"]["weight"] for line in lines] == [55, 66, 55]
    assert format_symbol(KMarkedSymbol((PartitionPair((), ()),), 1)) == "(  /  )₁"


def test_line_writers_follow_two_digit_subscripts():
    # Subscripts 10, 12 and 10 again in one call: each block takes its own
    # subscript's head, frame weight and mark, the second 10 the cached ones.
    v1, *upper = SYM55.vectors
    W = PartitionPair((9, 1), ())
    blocks = [(10, tuple(upper), [v1, W]), (12, (W, upper[1]), (v1,)), (10, (), [W])]
    _assert_writers_match_one_symbol_forms(blocks, Flavor.ORDINARY)
    lines = list(document_lines(blocks, Flavor.ORDINARY))
    assert [json.loads(line)["derived"]["weight"] for line in lines] == [130, 136, 171, 110]
    assert [line[-3:] for line in display_lines(blocks)] == [")₁₀", ")₁₀", ")₁₂", ")₁₀"]


def test_line_writers_keep_vector_facts_apart_by_index():
    # V has a balanced bottom part, so its rank and balanced count below k
    # (-1, 1) differ from those at index k (0, 0), and its display fragments
    # differ between indices.  V recurs below k and at k, within one call.
    V, W = PartitionPair((1,), (1,)), PartitionPair((1,), ())
    blocks = [(1, (W,), [V]), (1, (V,), [W, V]), (0, (V, V), [V, W]), (0, (W, V), [V])]
    for flavor in Flavor:
        _assert_writers_match_one_symbol_forms(blocks, flavor)
    derived = [json.loads(line)["derived"] for line in document_lines(blocks[:2], Flavor.ORDINARY)]
    assert [(x["ranks"], x["balanced_numbers"]) for x in derived] == [
        ([-1, 1], [1, 0]),
        ([0, 0], [0, 0]),
        ([-1, 0], [1, 0]),
    ]
    assert list(display_lines(blocks[2:3])) == [
        "( 1₃ 1₂ 1₁ / 1₃ 1₂ 1₁ )₀",
        "( 1₃ 1₂ 1₁ / 1₃ 1₂ )₀",
    ]


MIXED_CORPUS = [
    *(s for flavor in Flavor for n in range(10) for s in enumerate_durfee(n, flavor)),
    *(
        s
        for flavor in Flavor
        for k in (1, 2, 3)
        for n in range(10)
        for s in enumerate_kmarked(n, k, flavor)
    ),
]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(MIXED_CORPUS), min_size=1, max_size=80))
def test_line_writers_on_shuffled_mixed_streams(stream):
    # One-line render and the display writer's one-symbol form, over draws
    # that repeat symbols and mix flavors, k and plain symbols.
    for s in stream:
        assert render(s, indent=None) == json.dumps(symbol_to_document(s))
        if isinstance(s, KMarkedSymbol):
            assert format_symbol(s) == _display(s)
