"""BM(k, k[G], R_u) and Q(k, G) tables against their enumerations, and the
order identity."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from superbrauer import (
    ALG_CLOSED,
    REAL_CLOSED,
    CentralInvolution,
    CohomologyGroup,
    RootSystemType,
    TrivialInvolution,
    all_characters,
    bm_group,
    cyclic_group,
    direct_product,
    group_datum,
    h2_sharp,
    q_group,
    quotient_by_central_involution,
    splitting_character,
    symmetric_group,
)
from superbrauer.weyl import DEFAULT_TABLE_TYPES, WEYL_GROUP_BUDGET, datum_size

from .oracles import (
    abelian_invariants_from_table,
    enumerated_bm_table,
    enumerated_q_table,
    restriction_square_class,
    table_order,
    table_power,
)
from .test_cohomology import _dihedral
from .test_sharp import _theta_data


def _bm_index(bm, b, i, a):
    """Row of the element (Brauer part b, i-th class, parity a)."""
    return (b * bm.cohomology.size + i) * (1 + bm.split) + a


def test_bm_closed_z2():
    z2 = cyclic_group(2)
    bm = bm_group(z2, CentralInvolution(z2, 1), ALG_CLOSED)
    assert bm.invariants == (2,)
    assert bm.order == 2


def test_bm_real_z2_is_z8_generated_by_c1():
    """BW(R) = Z_8 generated by [C(1)] under the implemented product rules."""
    z2 = cyclic_group(2)
    bm = bm_group(z2, CentralInvolution(z2, 1), REAL_CLOSED)
    assert bm.order == 8
    assert bm.invariants == (8,)
    c1 = _bm_index(bm, 0, 0, 1)  # the zero class is the first class
    assert table_order(bm.table, c1, 0) == 8
    # the fourth power is the Hamilton quaternion class: pure Brauer part
    assert table_power(bm.table, c1, 4, 0) == _bm_index(bm, 1, 0, 0)


def test_bm_closed_wb2(datum_b2):
    bm = bm_group(datum_b2.group, datum_b2.inv, ALG_CLOSED)
    assert not bm.split
    assert bm.invariants == (2,)


def test_bm_trivial_involution_rejected():
    z2 = cyclic_group(2)
    with pytest.raises(TrivialInvolution):
        bm_group(z2, CentralInvolution(z2, 0), ALG_CLOSED)


def _order_identity_cases():
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    z2z2 = direct_product(cyclic_group(2), cyclic_group(2))
    z2z4 = direct_product(cyclic_group(2), cyclic_group(4))
    z2s3 = direct_product(cyclic_group(2), symmetric_group(3))
    return [
        (z2, 1),
        (z4, 2),
        (z2z2, 2),
        (z2z4, 4),  # u = (1, 0)
        (z2z4, 2),  # u = (0, 2)
        (z2s3, 6),  # u = the central Z2
    ]


@pytest.mark.parametrize("field", [ALG_CLOSED, REAL_CLOSED], ids=["closed", "real"])
def test_bm_order_identity(field):
    """|BM| = |Br| * |H2_sharp| * 2^split, and the extension data is consistent."""
    for g, u in _order_identity_cases():
        inv = CentralInvolution(g, u)
        bm = bm_group(g, inv, field)
        hs = h2_sharp(g, inv, field)
        split = splitting_character(inv) is not None
        expected = field.brauer_order * hs.size * (2 if split else 1)
        assert bm.order == expected, (g.order, u, field.kind)
        assert bm.split == split
        # Brauer part embeds centrally: (b, 0, 0) has order dividing 2
        if field.brauer_order == 2:
            assert table_order(bm.table, _bm_index(bm, 1, 0, 0), 0) == 2


def test_bm_closed_invariants_match_h2_times_split():
    """Over the closed descriptor BM = H^2(G, k*) x Z_2^split exactly."""
    from superbrauer import h2_closed_field

    for g, u in _order_identity_cases():
        inv = CentralInvolution(g, u)
        bm = bm_group(g, inv, ALG_CLOSED)
        hc = h2_closed_field(g)
        split = splitting_character(inv) is not None
        expected = sorted(list(hc.invariants) + ([2] if split else []), reverse=True)
        # merge into invariant factors by order statistics of the direct product
        m = 1
        for d in expected:
            m *= d
        assert bm.order == m
        # compare abelian group structures via order counting
        got = list(bm.invariants)
        # direct product invariants: compute from a synthetic table
        sizes = expected or [1]
        import itertools

        elems = list(itertools.product(*(range(d) for d in sizes)))
        idx = {e: i for i, e in enumerate(elems)}
        table = np.zeros((len(elems), len(elems)), dtype=np.int32)
        for a in elems:
            for b in elems:
                c = tuple((x + y) % d for x, y, d in zip(a, b, sizes))
                table[idx[a], idx[b]] = idx[c]
        want = list(abelian_invariants_from_table(table, idx[elems[0]]))
        assert got == want, (g.order, u, got, want)


def test_bm_real_z2z2_structure(z2z2):
    inv = CentralInvolution(z2z2, 2)
    bm = bm_group(z2z2, inv, REAL_CLOSED)
    assert bm.order == 2 * 8 * 2
    hs = h2_sharp(z2z2, inv, REAL_CLOSED)
    assert hs.invariants == (4, 2)
    # BM contains an element of order 8: [C(1)] with the order-4 sharp class above it
    orders = {table_order(bm.table, x, 0) for x in range(bm.order)}
    assert max(orders) == 8



_GROUPS = {
    "Z2": lambda: cyclic_group(2),
    "Z4": lambda: cyclic_group(4),
    "Z2xZ2": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
    "Z2xZ4": lambda: direct_product(cyclic_group(2), cyclic_group(4)),
    "Z2xS3": lambda: direct_product(cyclic_group(2), symmetric_group(3)),
}


def _group_and_involution(name, u):
    """A named small group with the involution of index u, or a Weyl datum with u = w0."""
    if name in _GROUPS:
        g = _GROUPS[name]()
        return g, CentralInvolution(g, u)
    d = group_datum(RootSystemType.parse(name))
    return d.group, d.inv


_FIELDS = pytest.mark.parametrize("field", [ALG_CLOSED, REAL_CLOSED], ids=["closed", "real"])


@_FIELDS
@pytest.mark.parametrize("name, u", [("Z2", 1), ("Z4", 2), ("Z2xZ2", 2), ("Z2xZ4", 4), ("Z2xZ4", 2),
                                     ("Z2xS3", 6), ("B2", None), ("B3", None), ("G2", None), ("A3", None)],
                         ids=["Z2", "Z4", "Z2xZ2", "Z2xZ4-u(1,0)", "Z2xZ4-u(0,2)", "Z2xS3", "W(B2)", "W(B3)",
                              "W(G2)", "W(A3)"])
def test_bm_table_matches_enumeration(name, u, field):
    """The table built from generating data equals the element-by-element
    enumeration, cell for cell, in the same layout."""
    g, inv = _group_and_involution(name, u)
    bm = bm_group(g, inv, field)
    assert (bm.table == enumerated_bm_table(g, inv, field)).all()


@_FIELDS
@pytest.mark.parametrize("name, u", [("Z2", 1), ("Z2xZ2", 2), ("Z2xZ4", 4), ("Z2xS3", 6)],
                         ids=["Z2", "Z2xZ2", "Z2xZ4-u(1,0)", "Z2xS3"])
def test_q_table_matches_enumeration(name, u, field, monkeypatch):
    """Q(k, G) equals its enumeration and costs at most one class_of per
    pair of characters of G/U."""
    g, inv = _group_and_involution(name, u)
    chars = list(all_characters(quotient_by_central_involution(inv).quotient, 2))
    calls = {"class_of": 0}
    real_class_of = CohomologyGroup.class_of

    def counting_class_of(self, sigma):
        calls["class_of"] += 1
        return real_class_of(self, sigma)

    with monkeypatch.context() as m:
        m.setattr(CohomologyGroup, "class_of", counting_class_of)
        qg = q_group(g, inv, field)
    assert calls["class_of"] <= len(chars) ** 2
    assert (qg.table == enumerated_q_table(g, inv, field)).all()
    assert qg.invariants == abelian_invariants_from_table(qg.table, 0)


@pytest.mark.parametrize("name, u", [("Z2", 1), ("Z2xZ2", 2), ("Z2xZ4", 4), ("Z2xS3", 6), ("A2", None), ("A3", None),
                                     ("G2", None)],
                         ids=["Z2", "Z2xZ2", "Z2xZ4-u(1,0)", "Z2xS3", "G(A2)", "G(A3)", "G(G2)"])
def test_bm_against_q_where_u_splits(name, u):
    """Where U splits, BM(k, k[G], R_u) is Q(k, G) on the closed field, the
    same invariants, and over the reals Br(R) = Z_2 doubles it: |BM| = 2 |Q|.
    The two are built from different generating data (H^2(G) with C(1), and
    H^2(G/U) with Hom(G/U, Z_2)), so each checks the other."""
    g, inv = _group_and_involution(name, u)
    assert splitting_character(inv) is not None
    assert bm_group(g, inv, ALG_CLOSED).invariants == q_group(g, inv, ALG_CLOSED).invariants
    assert bm_group(g, inv, REAL_CLOSED).order == 2 * q_group(g, inv, REAL_CLOSED).order


def test_bm_markers_match_dense_square_class():
    """Over the real field (0, i, 0)^2 has Brauer part <M_i, M_i> = M_i, the
    marker read off the labels; it equals restriction_square_class of the
    class representative, for the generators and every other class."""
    ones = 0
    for g, inv in _theta_data():
        bm = bm_group(g, inv, REAL_CLOSED)
        h, s = bm.cohomology.size, 1 + bm.split
        for i, c in enumerate(bm.cohomology.all_classes()):
            row = _bm_index(bm, 0, i, 0)
            marker = restriction_square_class(inv, c.representative())
            assert bm.table[row, row] // (h * s) == marker
            ones += marker
    assert ones  # some sigma(u,u) = -1


def _cyclic_product(orders):
    """Z_d0 x Z_d1 x ... over the longest prefix of orders of product <= 32."""
    g = cyclic_group(orders[0])
    for d in orders[1:]:
        if g.order * d > 32:
            break
        g = direct_product(g, cyclic_group(d))
    return g


_RANDOM_GROUPS = st.one_of(
    st.lists(st.integers(2, 16), min_size=1, max_size=4)
    .map(lambda ds: [2 * (ds[0] // 2 + 1) if ds[0] % 2 else ds[0]] + ds[1:]).map(_cyclic_product),
    st.sampled_from([2, 4, 6, 8, 10, 12, 14, 16]).map(_dihedral),
    st.just(None).map(lambda _: direct_product(symmetric_group(3), cyclic_group(2))),
)


@settings(max_examples=60, deadline=None)
@given(_RANDOM_GROUPS, st.integers(0, 2**16), st.sampled_from([ALG_CLOSED, REAL_CLOSED]))
def test_bm_order_and_invariants_on_random_groups(g, pick, field):
    """|BM| = |Br| |H^2_sharp| 2^split, and the invariants read off the built
    table equal the order statistics of the enumerated table."""
    involutions = [x for x in range(g.order)
                   if x != g.identity and g.mul[x, x] == g.identity and g.is_central(x)]
    inv = CentralInvolution(g, involutions[pick % len(involutions)])
    split = splitting_character(inv) is not None
    assume(field.brauer_order * field.cohomology(g).size * (1 + split) <= 256)
    bm = bm_group(g, inv, field)
    assert bm.order == field.brauer_order * h2_sharp(g, inv, field).size * 2 ** split
    assert bm.invariants == abelian_invariants_from_table(enumerated_bm_table(g, inv, field), 0)


def test_bm_real_z2_4():
    """Z2^4 with u = g0 sits at the default enumeration budget: 4096 elements."""
    g = _cyclic_product([2, 2, 2, 2])
    bm = bm_group(g, CentralInvolution(g, int(g.gens[0])), REAL_CLOSED)
    assert bm.order == 4096
    assert bm.invariants == (8, 4, 4, 4, 2, 2, 2)


def test_bm_invariants_build_no_cayley_table():
    """The invariants of the 4096-element BM of Z2^4 come from its generator
    columns: the int32 Cayley table alone would take 64 MB."""
    g = _cyclic_product([2, 2, 2, 2])
    inv = CentralInvolution(g, int(g.gens[0]))
    tracemalloc.start()
    try:
        invariants = bm_group(g, inv, REAL_CLOSED).invariants
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert invariants == (8, 4, 4, 4, 2, 2, 2)
    assert peak < 16_000_000


@pytest.mark.parametrize("name", [t for t in DEFAULT_TABLE_TYPES
                                  if t != "E8" and datum_size(RootSystemType.parse(t)) <= WEYL_GROUP_BUDGET])
@pytest.mark.parametrize("field", [ALG_CLOSED, REAL_CLOSED], ids=["closed", "real"])
def test_order_identity_on_computed_table_rows(name, field):
    """On every row table_row computes, over both fields, the invariants
    multiply to |BM| and to |H^2_sharp| = |H^2|."""
    d = group_datum(RootSystemType.parse(name))
    bm, hs = bm_group(d.group, d.inv, field), h2_sharp(d.group, d.inv, field)
    assert math.prod(bm.invariants) == bm.order == field.brauer_order * hs.size * 2 ** bm.split
    assert math.prod(hs.invariants) == hs.size == field.cohomology(d.group).size
