"""Weyl group construction, longest elements and the final table rows."""

from __future__ import annotations

import itertools
import math

import pytest

from superbrauer import (
    CapExceeded,
    E8Refused,
    RootSystemType,
    abelianization,
    build_weyl,
    h2_closed_field,
    splitting_character,
    table_row,
)
from superbrauer.errors import ParseError
from superbrauer.weyl import (
    _is_minus_identity,
    cartan_matrix,
    classical_order,
    datum_size,
    literature_bm,
    literature_h2l,
    longest_word,
    reflection_matrices,
    w0_acts_as_minus_one,
)

from .oracles import coordinate_reflection_matrices, literature_schur_multiplier, scanned_w0, table_power

WEYL_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
              + ["E6", "E7", "E8", "F4", "G2"])


def _positive_roots(t: RootSystemType) -> int:
    """|Phi+| from the classical counts (Bourbaki, Plates I-IX)."""
    n = t.rank
    counts = {"A": n * (n + 1) // 2, "B": n * n, "D": n * (n - 1), "E": {6: 36, 7: 63, 8: 120}.get(n), "F": 24, "G": 6}
    return counts[t.family]


@pytest.mark.parametrize("name", WEYL_TYPES)
def test_weyl_data_from_the_cartan_matrix(name):
    """The Cartan reflections equal the ones derived from root coordinates;
    the descent walk ends at an element sending every simple root to a
    negative root, along a word of length |Phi+|, with w0 = -1 exactly where
    the classical list says so.  On the groups of at most 4000 elements (A1-A5,
    B2-B5, D4, D5, F4, G2) its word gives the element the old scan found."""
    t = RootSystemType.parse(name)
    mats = reflection_matrices(t)
    assert mats == coordinate_reflection_matrices(t)
    w0mat, word = longest_word(mats)
    assert all(row[i] <= 0 for row in w0mat for i in range(t.rank))  # the columns are roots, so negative ones
    assert len(word) == _positive_roots(t)
    assert _is_minus_identity(w0mat) == w0_acts_as_minus_one(t)
    if classical_order(t) <= 4000:
        wd = build_weyl(t)
        assert wd.w0 == wd.group.word_to_element(word) == scanned_w0(wd.group)
        assert wd.w0_word == word


@pytest.mark.parametrize("name, cap, message", [
    ("E6", 200_000, "W(E6) has 51840 elements, above the 20000-element multiplication table limit"),
    ("E7", 200_000, "W(E7) has 2903040 elements, above the 20000-element multiplication table limit"),
    ("E7", 100, "|W(E7)| = 2903040 exceeds cap 100"),
    ("B6", 10**9, "W(B6) has 46080 elements, above the 20000-element multiplication table limit"),
    ("D5", 1000, "|W(D5)| = 1920 exceeds cap 1000"),
], ids=["E6", "E7", "E7-cap", "B6-cap", "D5-cap"])
def test_refused_before_any_closure(monkeypatch, name, cap, message):
    """A W past min(cap, table limit) is refused from its order alone, naming
    whichever bound binds, and nothing is closed."""
    from superbrauer import weyl

    monkeypatch.setattr(weyl, "close_generators", lambda *a, **k: pytest.fail("a group was closed"))
    with pytest.raises(CapExceeded) as exc:
        build_weyl(RootSystemType.parse(name), cap=cap)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B3", "D4", "D5", "G2"])
def test_group_datum_closes_one_group(monkeypatch, name):
    """The datum closes G(Phi) once, W's reflections with -w0 appended where
    w0 != -1, and never builds W on its own."""
    from superbrauer import weyl

    orders = []
    close = weyl.close_generators

    def record(*args, **kwargs):
        g = close(*args, **kwargs)
        orders.append(g.order)
        return g

    monkeypatch.setattr(weyl, "close_generators", record)
    monkeypatch.setattr(weyl, "build_weyl", lambda *a, **k: pytest.fail("build_weyl was called"))
    t = RootSystemType.parse(name)
    d = weyl._group_datum.__wrapped__(t, weyl.DEFAULT_CAP)  # past the cache, which the fixtures share
    assert orders == [datum_size(t)] == [d.group.order]


def test_root_type_validation():
    for bad in ("A0", "B1", "D3", "E5", "E9", "F5", "G3", "H2", "X1"):
        with pytest.raises(ParseError):
            RootSystemType.parse(bad)
    assert RootSystemType.parse("b3").name == "B3"


def test_classical_orders_match_construction(datum_a3, datum_b2, datum_b3, datum_d4, datum_g2):
    for d in (datum_a3, datum_b2, datum_b3, datum_d4, datum_g2):
        assert build_weyl(d.type).group.order == classical_order(d.type)
    f4 = build_weyl(RootSystemType.parse("F4"))
    assert f4.group.order == 1152
    assert math.factorial(5) == classical_order(RootSystemType.parse("A4"))


def test_coxeter_numbers(datum_a2, datum_b2, datum_b3, datum_d4, datum_g2):
    expected = {"A2": 3, "B2": 4, "B3": 6, "D4": 6, "G2": 6}
    for d in (datum_a2, datum_b2, datum_b3, datum_d4, datum_g2):
        assert build_weyl(d.type).coxeter_number == expected[d.type.name]


def test_w0_is_minus_one_list(datum_a1, datum_a2, datum_a3, datum_b2, datum_b3, datum_d4, datum_g2):
    for d in (datum_a1, datum_b2, datum_b3, datum_d4, datum_g2):
        assert build_weyl(d.type).w0_is_minus_one and not d.extended
    for d in (datum_a2, datum_a3):
        assert not build_weyl(d.type).w0_is_minus_one and d.extended
        assert d.group.order == 2 * build_weyl(d.type).group.order


def test_w0_from_coxeter_element_all_orderings(datum_b2, datum_g2, datum_b3):
    """w0 = (s_{i1} ... s_{in})^(h/2) for every generator ordering when w0 = -1."""
    for d in (datum_b2, datum_g2, datum_b3):
        wd = build_weyl(d.type)
        g = wd.group
        h = wd.coxeter_number
        assert h % 2 == 0
        for perm in itertools.permutations(wd.simple_reflections):
            cox = g.identity
            for s in perm:
                cox = int(g.mul[cox, s])
            assert table_power(g.mul, cox, h // 2, g.identity) == wd.w0


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


def test_table_row_computes_the_forms_once(monkeypatch):
    """H^2_L and BM share their linear part dim S^2(V*)^G: one
    invariant_symmetric_forms call per computed row, none for a quoted one."""
    from superbrauer import supergroup

    calls = []
    forms = supergroup.invariant_symmetric_forms
    monkeypatch.setattr(supergroup, "invariant_symmetric_forms", lambda rep: calls.append(rep) or forms(rep))
    rows = [table_row(RootSystemType.parse(name)) for name in ("A1", "A2", "B2", "G2", "E8")]
    assert [row.mode for row in rows] == ["computed"] * 4 + ["literature"]
    assert len(calls) == 4
    assert all(row.h2l_linear_dim == row.bm_linear_dim == 1 for row in rows)


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


def test_split_rows_keep_the_z2_the_printed_bm_drops():
    """Where w0 != -1, G(Phi) = W x <-w0> and H^2(G(Phi)) = H^2(W) x Z2; the
    printed BM display drops that Z2.  The computed A2 and A3 rows are the
    printed BM plus one Z2 and the printed H^2_L; B4 (w0 = -1) agrees in both."""
    for name in ("A2", "A3"):
        t = RootSystemType.parse(name)
        row = table_row(t)
        assert row.mode == "computed" and not w0_acts_as_minus_one(t)
        assert row.bm_invariants == literature_bm(t) + (2,)
        assert row.h2l_invariants == literature_h2l(t)
    t = RootSystemType.parse("B4")
    row = table_row(t, group_budget=400)
    assert row.mode == "computed" and w0_acts_as_minus_one(t)
    assert (row.h2l_invariants, row.bm_invariants) == (literature_h2l(t), literature_bm(t))


def test_f4_schur_multiplier_computed():
    """The closed H^2 of W(F4), 1152 elements, is solved in the central
    values of its relators and equals the printed Schur multiplier."""
    t = RootSystemType.parse("F4")
    g = build_weyl(t).group
    assert h2_closed_field(g, budget=(g.order - 1) ** 2).invariants == literature_schur_multiplier(t)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "G2", "F4"])
def test_weyl_abelianization_from_the_coxeter_graph(name):
    """W^ab is Z2 per component of the graph on S with an edge where m_st is
    odd (c_st c_ts = 1): two simple reflections are conjugate exactly when
    such a path joins them."""
    t = RootSystemType.parse(name)
    c = cartan_matrix(t)
    component = list(range(t.rank))
    for _ in range(t.rank):  # each pass spreads the least index one more edge
        for a, b in itertools.product(range(t.rank), repeat=2):
            if c[a][b] * c[b][a] == 1:
                component[a] = component[b] = min(component[a], component[b])
    assert abelianization(build_weyl(t).group).cyclic_orders == (2,) * len(set(component))
