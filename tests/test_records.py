"""The five record classes against the dataclasses they replaced
(``conftest.DATACLASS_RECORDS``): repr, ==, hash, assignment, constructors
and fresh default containers must all behave the same."""

import dataclasses
from itertools import product
from types import SimpleNamespace

import pytest

from conftest import DATACLASS_RECORDS
from sphtwist import ChainParams, ComparisonReport, DefinitenessReport, RelationReport
from sphtwist.twists import RelationCheck

RECORDS = SimpleNamespace(
    ChainParams=ChainParams,
    DefinitenessReport=DefinitenessReport,
    RelationCheck=RelationCheck,
    RelationReport=RelationReport,
    ComparisonReport=ComparisonReport,
)
FROZEN = ("ChainParams", "DefinitenessReport")

# each builder makes one record from either namespace; the builders of a
# class make records that are equal to some and unequal to others
SAMPLES = {
    "ChainParams": [
        lambda m: m.ChainParams(2, 2),
        lambda m: m.ChainParams(2, 2, (1,)),
        lambda m: m.ChainParams(n=3, N=4, edge_degrees=[1, 3]),
        lambda m: m.ChainParams(3, 4, (3, 1)),
        lambda m: m.ChainParams(1, 5),
    ],
    "DefinitenessReport": [
        lambda m: m.DefinitenessReport("negative_definite", (0, 8, 0), 0),
        lambda m: m.DefinitenessReport(
            verdict="negative_definite", signature=(0, 8, 0), kernel_rank=0),
        lambda m: m.DefinitenessReport("negative_semidefinite", (0, 7, 1), 1),
        lambda m: m.DefinitenessReport("indefinite", (1, 9, 0), 0),
    ],
    "RelationCheck": [
        lambda m: m.RelationCheck("T1 T'1 = id", 1, True),
        lambda m: m.RelationCheck(relation="T1 T'1 = id", object_vertex=1, passed=True),
        lambda m: m.RelationCheck("T1 T'1 = id", 2, True),
        lambda m: m.RelationCheck("T1 T2 T1 = T2 T1 T2", 1, False),
    ],
    "RelationReport": [
        lambda m: m.RelationReport(),
        lambda m: m.RelationReport([]),
        lambda m: m.RelationReport([m.RelationCheck("T1 T'1 = id", 1, True)]),
        lambda m: m.RelationReport(checks=[m.RelationCheck("T1 T'1 = id", 1, False)]),
    ],
    "ComparisonReport": [
        # keyword construction, as compare_words starts its report
        lambda m: m.ComparisonReport(word1=[1, 2, 1], word2=[2, 1, 2], distinct=False),
        lambda m: m.ComparisonReport([1, 2, 1], [2, 1, 2], False, None, None, {}, None),
        lambda m: m.ComparisonReport(
            [1, 2, 1], [2, 1, 2], False,
            per_vertex={1: "isomorphic", 2: "isomorphic"},
            hom_matrices=([[1, 0], [0, 1]], [[1, 0], [0, 1]])),
        lambda m: m.ComparisonReport(
            [1], [2], True, witness_vertex=1,
            witness_invariant="w1.P1 = x vs w2.P1 = y",
            per_vertex={1: "non-isomorphic", 2: "isomorphic"}),
    ],
}
NAMES = sorted(SAMPLES)


def pairs(name):
    """(plain record, dataclass record) from each builder of the class."""
    return [(build(RECORDS), build(DATACLASS_RECORDS)) for build in SAMPLES[name]]


def outcome(build):
    try:
        return repr(build())
    except TypeError:
        return TypeError


def field_values(ref):
    return tuple(getattr(ref, f.name) for f in dataclasses.fields(ref))


@pytest.mark.parametrize("name", NAMES)
def test_repr_matches_dataclass(name):
    for new, ref in pairs(name):
        assert repr(new) == repr(ref)


@pytest.mark.parametrize("name", NAMES)
def test_equality_matches_dataclass(name):
    records = pairs(name)
    for (a, ra), (b, rb) in product(records, repeat=2):
        assert (a == b) == (ra == rb)
        assert (a != b) == (ra != rb)
    assert any(ra == rb for (_, ra), (_, rb) in product(records, repeat=2)
               if ra is not rb)
    for new, ref in records:
        # across types: never equal to the dataclass, a subclass with the
        # same fields, a tuple or None
        values = field_values(ref)
        for record in (new, ref):
            subclass = type("Sub", (type(record),), {})
            for other in (new, ref, subclass(*values), values, None):
                if other is not record:
                    assert not record == other and record != other
        with pytest.raises(TypeError):
            iter(new)


@pytest.mark.parametrize("name", NAMES)
def test_hash_matches_dataclass(name):
    for new, ref in pairs(name):
        if name in FROZEN:
            assert hash(new) == hash(ref)
        else:
            with pytest.raises(TypeError):
                hash(ref)
            with pytest.raises(TypeError):
                hash(new)


@pytest.mark.parametrize("name", NAMES)
def test_assignment_matches_dataclass(name):
    # frozen records refuse assignment and deletion of every field; the
    # mutable reports are filled in place, as compare_words does
    for new, ref in pairs(name):
        for f in dataclasses.fields(ref):
            if name in FROZEN:
                for record in (new, ref):
                    with pytest.raises(AttributeError):
                        setattr(record, f.name, 0)
                    with pytest.raises(AttributeError):
                        delattr(record, f.name)
            else:
                setattr(new, f.name, 0)
                setattr(ref, f.name, 0)
        assert repr(new) == repr(ref)


@pytest.mark.parametrize("name", NAMES)
def test_constructors_match_dataclass(name):
    cls, ref_cls = getattr(RECORDS, name), getattr(DATACLASS_RECORDS, name)
    assert cls.__match_args__ == ref_cls.__match_args__
    for _, ref in pairs(name):
        values = field_values(ref)
        keywords = dict(zip(cls.__match_args__, values))
        assert repr(cls(*values)) == repr(cls(**keywords)) == repr(ref)
        for c in (cls, ref_cls):
            with pytest.raises(TypeError):
                c(*values, bogus=1)
    # no arguments: the defaults, or TypeError for a required field
    assert outcome(cls) == outcome(ref_cls)


def test_default_containers_are_fresh():
    a, b = RelationReport(), RelationReport()
    a.checks.append(RelationCheck("T1 T'1 = id", 1, True))
    assert b.checks == [] and a.checks is not b.checks
    c = ComparisonReport([1], [2], False)
    d = ComparisonReport(word1=[1], word2=[2], distinct=False)
    c.per_vertex[1] = "isomorphic"
    assert d.per_vertex == {} and c.per_vertex is not d.per_vertex
