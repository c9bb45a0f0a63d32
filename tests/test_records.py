"""The immutable record classes: symbols, validation results and verify's
bounds and results behave as the frozen dataclasses they replace."""

import copy
import pickle
from fractions import Fraction

import pytest

from durfee.marked import KMarkedSymbol, PartitionPair, ValidationResult
from durfee.symbols import DurfeeSymbol, Flavor
from durfee.verify import Bounds, CheckResult

VECTORS = (PartitionPair((2,), (1,)), PartitionPair((), (2,)))

# (record, its field tuple, its repr as the frozen dataclasses printed it)
RECORDS = [
    (
        DurfeeSymbol((2, 1), (1,), 2),
        ((2, 1), (1,), 2, Flavor.ORDINARY),
        "DurfeeSymbol(alpha=(2, 1), beta=(1,), d=2, flavor=<Flavor.ORDINARY: 'ordinary'>)",
    ),
    (
        DurfeeSymbol((3,), (), 1, Flavor.ODD),
        ((3,), (), 1, Flavor.ODD),
        "DurfeeSymbol(alpha=(3,), beta=(), d=1, flavor=<Flavor.ODD: 'odd'>)",
    ),
    (
        KMarkedSymbol(VECTORS, 2),
        (VECTORS, 2, Flavor.ORDINARY),
        "KMarkedSymbol(vectors=(PartitionPair(alpha=(2,), beta=(1,)), "
        "PartitionPair(alpha=(), beta=(2,))), d=2, flavor=<Flavor.ORDINARY: 'ordinary'>)",
    ),
    (ValidationResult(False, "no"), (False, "no"), "ValidationResult(ok=False, reason='no')"),
    (ValidationResult(True), (True, None), "ValidationResult(ok=True, reason=None)"),
    (
        Bounds(),
        (10, 3, 8, (Fraction(2), Fraction(3), Fraction(5))),
        "Bounds(max_n=10, max_k=3, order=8, x=(Fraction(2, 1), Fraction(3, 1), Fraction(5, 1)))",
    ),
    (
        Bounds(max_n=6, max_k=2, order=5, x=(Fraction(1, 2),)),
        (6, 2, 5, (Fraction(1, 2),)),
        "Bounds(max_n=6, max_k=2, order=5, x=(Fraction(1, 2),))",
    ),
    (
        CheckResult("rank-gf", "k in (2,)", True),
        ("rank-gf", "k in (2,)", True, ""),
        "CheckResult(name='rank-gf', bound='k in (2,)', ok=True, detail='')",
    ),
    (
        CheckResult("a", "b", False, "counterexample: x"),
        ("a", "b", False, "counterexample: x"),
        "CheckResult(name='a', bound='b', ok=False, detail='counterexample: x')",
    ),
]
IDS = [f"{type(r).__name__}-{i}" for i, (r, _, _) in enumerate(RECORDS)]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_repr_is_pinned(record, fields, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_hash_and_equality_follow_the_field_tuple(record, fields, text):
    assert hash(record) == hash(fields)
    assert record != fields and fields != record
    twin = type(record)(*fields)
    assert twin == record and hash(twin) == hash(record)
    assert len({record, twin}) == 1


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
@pytest.mark.parametrize(
    "clone",
    [
        lambda x: pickle.loads(pickle.dumps(x)),
        lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-0", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(record, fields, text, clone):
    other = clone(record)
    assert type(other) is type(record)
    assert other == record and hash(other) == hash(record)


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, fields, text):
    name = type(record).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, n) for n in type(record).__match_args__) == fields


def test_records_of_different_classes_are_unequal():
    assert DurfeeSymbol((1,), (), 1) != KMarkedSymbol((PartitionPair((1,), ()),), 1)
    assert ValidationResult(True) != (True, None)


def test_symbols_take_keywords_and_default_flavor():
    s = DurfeeSymbol(alpha=(1,), beta=(), d=1)
    assert s.flavor is Flavor.ORDINARY and s.weight == 2 and s.rank == 1
    m = KMarkedSymbol(vectors=(PartitionPair((1,), ()),), d=1)
    assert m.flavor is Flavor.ORDINARY and m.ranks == (1,)


@pytest.mark.parametrize(
    "kwargs", [{"max_n": -1}, {"max_n": 41}, {"max_k": 1}, {"max_k": 4}, {"order": -1}]
)
def test_bad_bounds_still_raise(kwargs):
    with pytest.raises(ValueError):
        Bounds(**kwargs)
