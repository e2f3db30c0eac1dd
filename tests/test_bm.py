"""BM(k, k[G], R_u) enumerations and the order identity."""

from __future__ import annotations

import numpy as np
import pytest

from superbrauer import (
    ALG_CLOSED,
    REAL_CLOSED,
    BMElement,
    CentralInvolution,
    TrivialInvolution,
    bm_group,
    cyclic_group,
    direct_product,
    h2_sharp,
    splitting_character,
    symmetric_group,
)

from .oracles import abelian_invariants_from_table


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
    c1 = BMElement(0, bm.cohomology.zero_class(), 0, 1)
    assert bm.element_order(c1) == 8
    # the fourth power is the Hamilton quaternion class: pure Brauer part
    fourth = bm.power(c1, 4)
    assert fourth.brauer_part == 1 and fourth.parity == 0 and fourth.h2_class.is_trivial()


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
            br = BMElement(1, bm.cohomology.zero_class(), 0, 0)
            assert bm.element_order(br) == 2


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
    orders = {bm.element_order(el) for el in bm.elements}
    assert max(orders) == 8
