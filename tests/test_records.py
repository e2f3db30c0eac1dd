"""The result and parameter records are plain classes: the values their
constructors set, the checks they run, and the value equality that only
RootSystemType keeps, as the key of the group_datum cache."""

from __future__ import annotations

import pytest

from superbrauer import (
    REAL_CLOSED,
    CoefficientModule,
    CohomologyGroup,
    FieldDescriptor,
    ParseError,
    RootSystemType,
    SupergroupAlgebra,
    VerifyReport,
    build_en,
    cyclic_group,
    field_from_name,
    group_datum,
)


def test_equal_root_types_are_one_cache_key():
    a, b = RootSystemType.parse("b3"), RootSystemType("B", 3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != RootSystemType.parse("B2") and a != "B3"
    assert group_datum(RootSystemType.parse("B3")) is group_datum(RootSystemType.parse("B3"))


def test_field_names_give_the_two_descriptors():
    assert field_from_name("R") is REAL_CLOSED
    assert field_from_name("realclosed") is field_from_name("real")
    assert (REAL_CLOSED.square_class_order, REAL_CLOSED.brauer_order) == (2, 2)


@pytest.mark.parametrize("build", [lambda: CoefficientModule(0), lambda: CoefficientModule(2**62),
                                   lambda: FieldDescriptor("p"), lambda: RootSystemType("B", 1)],
                         ids=["modulus-0", "modulus-2^62", "field-p", "type-B1"])
def test_constructors_refuse_bad_values(build):
    with pytest.raises(ParseError):
        build()


def test_verify_report_defaults():
    r = VerifyReport("x", False)
    assert (r.check, r.passed, r.detail, r.counterexample, r.sampled) == ("x", False, "", None, False)
    assert not r
    assert VerifyReport("lazy", True, sampled=True).sampled


def test_derived_attributes_are_set():
    """SupergroupAlgebra sets nv and dim, FiniteGroup its tree and memo, and
    each CohomologyGroup gets its own list of prime pieces."""
    e2 = build_en(2)
    h = SupergroupAlgebra(e2.group, e2.inv, e2.rep)
    assert (h.nv, h.dim) == (2, 8)
    g = cyclic_group(3)
    assert g.tree == [(0, 0, 1), (1, 0, 2)] and g._memo == {}
    a, b = (CohomologyGroup(g, CoefficientModule(3), "muN", ()) for _ in range(2))
    assert a._pieces == [] and a._pieces is not b._pieces and a._sys is None
