import json

import pytest

from durfee.marked import KMarkedSymbol, PartitionPair, enumerate_kmarked
from durfee.serialize import (
    document_to_symbol,
    format_symbol,
    parse,
    render,
    symbol_to_document,
)
from durfee.symbols import DurfeeSymbol, Flavor

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
    with pytest.raises(ValueError, match="malformed"):
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


def test_json_documents_are_valid_json():
    text = render(SYM55)
    assert json.loads(text)["d"] == 5
