"""Weyl group construction, longest elements and the final table rows."""

from __future__ import annotations

import itertools
import math

import pytest

from superbrauer import (
    CapExceeded,
    E8Refused,
    RootSystemType,
    build_weyl,
    h2_closed_field,
    splitting_character,
    table_row,
)
from superbrauer.errors import ParseError
from superbrauer.weyl import (
    classical_order,
    datum_size,
    literature_bm,
    literature_h2l,
    literature_schur_multiplier,
    w0_acts_as_minus_one,
)


def test_root_type_validation():
    for bad in ("A0", "B1", "D3", "E5", "E9", "F5", "G3", "H2", "X1"):
        with pytest.raises(ParseError):
            RootSystemType.parse(bad)
    assert RootSystemType.parse("b3").name == "B3"


def test_classical_orders_match_construction(datum_a3, datum_b2, datum_b3, datum_d4, datum_g2):
    for d in (datum_a3, datum_b2, datum_b3, datum_d4, datum_g2):
        assert d.weyl.group.order == classical_order(d.type)
    f4 = build_weyl(RootSystemType.parse("F4"))
    assert f4.group.order == 1152
    assert math.factorial(5) == classical_order(RootSystemType.parse("A4"))


def test_coxeter_numbers(datum_a2, datum_b2, datum_b3, datum_d4, datum_g2):
    expected = {"A2": 3, "B2": 4, "B3": 6, "D4": 6, "G2": 6}
    for d in (datum_a2, datum_b2, datum_b3, datum_d4, datum_g2):
        assert d.weyl.coxeter_number == expected[d.type.name]


def test_w0_is_minus_one_list(datum_a1, datum_a2, datum_a3, datum_b2, datum_b3, datum_d4, datum_g2):
    for d in (datum_a1, datum_b2, datum_b3, datum_d4, datum_g2):
        assert d.weyl.w0_is_minus_one and not d.extended
    for d in (datum_a2, datum_a3):
        assert not d.weyl.w0_is_minus_one and d.extended
        assert d.group.order == 2 * d.weyl.group.order


def test_w0_from_coxeter_element_all_orderings(datum_b2, datum_g2, datum_b3):
    """w0 = (s_{i1} ... s_{in})^(h/2) for every generator ordering when w0 = -1."""
    for d in (datum_b2, datum_g2, datum_b3):
        wd = d.weyl
        g = wd.group
        h = wd.coxeter_number
        assert h % 2 == 0
        for perm in itertools.permutations(wd.simple_reflections):
            cox = g.identity
            for s in perm:
                cox = int(g.mul[cox, s])
            assert g.power(cox, h // 2) == wd.w0


def test_e8_refused():
    with pytest.raises(E8Refused):
        build_weyl(RootSystemType.parse("E8"))
    # the table row never attempts the build, even at an absurd budget
    assert table_row(RootSystemType.parse("E8"), group_budget=10**9).mode == "literature"


def test_e7_needs_opt_in():
    """W(E7) is refused before its closure, naming the table limit."""
    with pytest.raises(CapExceeded, match="multiplication table limit") as exc:
        build_weyl(RootSystemType.parse("E7"))
    assert "allow_e7" not in str(exc.value)


def test_split_branch_agrees_with_paper_list(datum_a1, datum_a2, datum_a3, datum_b2, datum_b3, datum_d4, datum_g2):
    """Splitting characters exist exactly for A1, B_odd, G2 (and every W x U)."""
    expected_split = {"A1": True, "A2": True, "A3": True, "B2": False, "B3": True, "D4": False, "G2": True}
    for d in (datum_a1, datum_a2, datum_a3, datum_b2, datum_b3, datum_d4, datum_g2):
        got = splitting_character(d.inv) is not None
        assert got == expected_split[d.type.name]


def test_table_row_a1():
    row = table_row(RootSystemType.parse("A1"))
    assert row.mode == "computed"
    assert row.h2l_invariants == () and row.h2l_linear_dim == 1
    assert row.bm_invariants == (2,) and row.bm_linear_dim == 1


def test_table_row_e8_literature():
    row = table_row(RootSystemType.parse("E8"))
    assert row.mode == "literature"
    assert row.h2l_invariants == (2,)
    assert row.bm_invariants == (2,)


def test_literature_tables_frozen():
    """The printed tables, quoted as data for the out-of-budget rows."""
    cases_h2l = {
        "A1": (), "A2": (), "G2": (),
        "A3": (2,), "A5": (2,), "B2": (2,), "B3": (2,), "E6": (2,), "E7": (2,), "E8": (2,),
        "B5": (2, 2), "B7": (2, 2), "D5": (2, 2), "D6": (2, 2), "F4": (2, 2),
        "B4": (2, 2, 2), "B6": (2, 2, 2), "D4": (2, 2, 2),
    }
    for name, want in cases_h2l.items():
        assert literature_h2l(RootSystemType.parse(name)) == want, name
    cases_bm = {
        "A1": (2,), "A2": (2,), "B2": (2,), "E8": (2,),
        "A3": (2, 2), "A6": (2, 2), "D6": (2, 2), "D8": (2, 2), "E6": (2, 2), "E7": (2, 2),
        "F4": (2, 2), "G2": (2, 2),
        "B3": (2, 2, 2), "B4": (2, 2, 2), "B6": (2, 2, 2), "D4": (2, 2, 2), "D5": (2, 2, 2), "D7": (2, 2, 2),
        "B5": (2, 2, 2, 2), "B7": (2, 2, 2, 2),
    }
    for name, want in cases_bm.items():
        assert literature_bm(RootSystemType.parse(name)) == want, name
    cases_schur = {
        "A1": (), "A2": (),
        "A3": (2,), "B2": (2,), "E6": (2,), "E7": (2,), "E8": (2,), "G2": (2,),
        "B3": (2, 2), "D5": (2, 2), "F4": (2, 2),
        "B4": (2, 2, 2), "D4": (2, 2, 2),
    }
    for name, want in cases_schur.items():
        assert literature_schur_multiplier(RootSystemType.parse(name)) == want, name


def test_budget_routing():
    assert datum_size(RootSystemType.parse("A4")) == 240
    assert datum_size(RootSystemType.parse("B4")) == 384
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "D4", "G2"):
        assert datum_size(RootSystemType.parse(name)) <= 300
    for name in ("B4", "B5", "D5", "F4", "E6", "E7", "E8"):
        assert datum_size(RootSystemType.parse(name)) > 300
        assert table_row(RootSystemType.parse(name)).mode == "literature"


def test_w0_minus_one_prediction_matches():
    for name, expect in [("A1", True), ("A4", False), ("B2", True), ("B5", True),
                         ("D4", True), ("D5", False), ("E6", False), ("E7", True),
                         ("E8", True), ("F4", True), ("G2", True)]:
        assert w0_acts_as_minus_one(RootSystemType.parse(name)) == expect


def test_b4_stretch_row():
    """The flagged stretch target: |W(B4)| = 384 with raised budget."""
    row = table_row(RootSystemType.parse("B4"), group_budget=400)
    assert row.mode == "computed"
    assert row.h2l_invariants == (2, 2, 2)
    assert row.bm_invariants == (2, 2, 2)


def test_f4_schur_multiplier_computed():
    """The closed H^2 of W(F4), 1152 elements, is solved in the central
    values of its relators and equals the printed Schur multiplier."""
    t = RootSystemType.parse("F4")
    g = build_weyl(t).group
    assert h2_closed_field(g, budget=(g.order - 1) ** 2).invariants == literature_schur_multiplier(t)
