"""The frozen records: what @dataclass(frozen=True) gave them, kept without it."""

import pytest

from hodge_asym import cmbuild, hodgecalc, pipeline, polygons
from hodge_asym.cyclochar import CharRep, PrimeContext
from hodge_asym.hodgecalc import DeltaExpr, DPoly, HodgePolynomial
from hodge_asym.pipeline import AuxCase
from hodge_asym.record import Record


class Pair(Record):
    a: int
    b: int


class OtherPair(Record):
    a: int
    b: int


def records():
    cert = pipeline.build_certificate(2, 3, 0)
    return [
        PrimeContext.create(2, 5),
        CharRep.from_text("l=5; 1:1,4:1"),
        HodgePolynomial.create({(0, 0): 1, (1, 0): 2}, 3, [(2, 2)]),
        DPoly((1, 6), 2),
        DeltaExpr(),
        hodgecalc.special_fiber_fix(-8),
        cert.cm.search,
        cert.cm,
        polygons.PolygonData.create(1, (1, 1), {1: 2}),
        cert.quotient,
        cert.aux_case,
        cert,
    ]


def test_every_package_record_lists_its_fields_in_order():
    assert [type(r)._fields for r in records()[:4]] == [
        ("p", "l", "ord"), ("l", "mult"), ("coeffs", "bound", "unknown"), ("nums", "den"),
    ]
    assert pipeline.ConstructionCertificate._fields[-2:] == ("checks", "embellishments")


def test_fields_cannot_be_assigned_or_deleted():
    for record in records():
        for name in type(record)._fields[:1] + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_records_of_different_classes_are_unequal_whatever_their_fields():
    assert Pair(1, 2) == Pair(1, 2) and Pair(1, 2) != Pair(1, 3)
    assert Pair(1, 2) != OtherPair(1, 2)
    assert OtherPair(1, 2) != Pair(1, 2)
    # nor does a record equal the tuple of its fields
    assert DPoly((1,), 1) != ((1,), 1)
    assert CharRep(5, (0, 1, 0, 0, 1)) != (5, (0, 1, 0, 0, 1))


def test_equal_records_hash_as_the_tuple_of_their_fields():
    # the hash @dataclass gave, so sets of records keep the same order
    for record in records()[:-1]:
        twin = type(record)(*type(record)._values(record))
        assert twin == record and twin is not record
        assert hash(twin) == hash(record) == hash(type(record)._values(record))
        assert hash(record) == hash(tuple(getattr(record, f) for f in type(record)._fields))
    assert hash(DPoly((1,), 2)) != hash(DPoly((1,), 3))
    with pytest.raises(TypeError):  # a certificate holds dicts
        hash(records()[-1])


def test_the_built_init_runs_the_checks():
    with pytest.raises(ValueError, match="length l"):
        CharRep(7, (0, 1, 0, 0, 1))
    cert = pipeline.build_certificate(2, 3, 0)
    fields = dict(zip(cert._fields, cert._values(cert)))
    fields["checks"] = (*cert.checks, ("planted", False))
    with pytest.raises(pipeline.CertificateFailure):
        pipeline.ConstructionCertificate(**fields)


def test_repr_is_the_dataclass_text():
    # perfbench's tables workload digests this text
    assert repr(hodgecalc.special_fiber_fix(-8)) == (
        "SpecialFiberFix(l_factor=7, composed_h30=64, composed_h03=64, "
        "composed_delta30=0, closed_forms_ok=True)"
    )
    assert repr(DeltaExpr()) == "DeltaExpr(exact=DPoly(nums=(), den=1), opaque=())"
    assert repr(cmbuild.build_cm(2).search) == (
        "TypicalSearchResult(U=CharRep('l=5; 1:1,2:1'), r0=0, r1=1, layer_count=1, "
        "candidate_index=0)"
    )
    assert repr(Pair(1, "x")) == "Pair(a=1, b='x')"


def test_cached_lookup_leaves_equality_alone():
    h = HodgePolynomial.create({(0, 0): 1, (1, 1): 3})
    twin = HodgePolynomial.create({(1, 1): 3, (0, 0): 1})
    assert h.coeff(1, 1) == 3  # fills h's cached lookup only
    assert h == twin and hash(h) == hash(twin)


def test_class_level_values_are_the_defaults():
    assert DPoly((1,)).den == 1 and DPoly((1,)) == DPoly((1,), 1)
    assert AuxCase("none").n is None and AuxCase("none").s is None
    assert DeltaExpr().exact == DPoly(()) and DeltaExpr().opaque == ()
    h = HodgePolynomial((((0, 0), 1),))
    assert h.bound is None and h.unknown == frozenset()


def test_the_built_init_takes_each_field_once_by_position_or_name():
    assert Pair(1, b=2) == Pair(a=1, b=2) == Pair(1, 2)
    with pytest.raises(TypeError):
        Pair(1)  # a missing field
    with pytest.raises(TypeError):
        Pair(1, 2, c=3)  # an unknown keyword
    with pytest.raises(TypeError):
        Pair(1, 2, a=3)  # a repeated argument
    with pytest.raises(TypeError):
        Pair(1, 2, 3)
    with pytest.raises(TypeError):
        DPoly()  # only the defaulted fields may be left out


def test_a_record_class_may_not_write_its_own_init():
    with pytest.raises(TypeError, match="built from its fields"):
        class Written(Record):
            a: int
            b: int

            def __init__(self, a, b):
                pass
    with pytest.raises(TypeError, match="follows one with a default"):
        class Misordered(Record):
            a: int = 0
            b: int
