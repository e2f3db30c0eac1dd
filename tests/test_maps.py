"""Inflation, restriction, transgression and the Hochschild-Serre exactness."""

from __future__ import annotations

import numpy as np
import pytest

from superbrauer import (
    CentralInvolution,
    Cochain2,
    GroupCharacter,
    coboundary,
    cyclic_group,
    direct_product,
    h2,
    h2_closed_field,
    quotient_by_central_involution,
    symmetric_group,
)

from .oracles import inflation, representative, restriction, restriction_square_class, transgression, u_subgroup


def _u_char(ugroup, value, order=2):
    return GroupCharacter(group=ugroup, target_order=order, values=np.array([0, value]))


def _setup(g, u, n=2):
    inv = CentralInvolution(g, u)
    qd = quotient_by_central_involution(inv)
    HQ = h2(qd.quotient, n)
    HG = h2(g, n)
    return inv, qd, HQ, HG


def test_inflation_trivial_class(z2z2):
    inv, qd, HQ, HG = _setup(z2z2, 2)
    assert inflation(qd, HQ.zero_class(), HG).is_trivial()


def test_inflation_z4_nontrivial_class_dies():
    """For G = Z4 the transgression is nontrivial, so ker(Infl) = H^2(Z2, Z2)
    and the nontrivial class inflates to zero (Hochschild-Serre exactness)."""
    z4 = cyclic_group(4)
    inv, qd, HQ, HG = _setup(z4, 2)
    assert HQ.invariants == (2,)
    nontriv = next(c for c in HQ.all_classes() if not c.is_trivial())
    assert inflation(qd, nontriv, HG).is_trivial()
    # and the transgression of the nontrivial character is that nontrivial class
    ug, _ = u_subgroup(inv)
    t = transgression(_u_char(ug, 1), qd, HQ)
    assert t == nontriv


def test_transgression_split_is_trivial(z2z2):
    inv, qd, HQ, _ = _setup(z2z2, 2)
    ug, _ = u_subgroup(inv)
    assert transgression(_u_char(ug, 0), qd, HQ).is_trivial()
    assert transgression(_u_char(ug, 1), qd, HQ).is_trivial()


def test_transgression_section_independent():
    for g, u in [(cyclic_group(4), 2), (cyclic_group(8), 4),
                 (direct_product(cyclic_group(2), cyclic_group(4)), 2)]:
        inv, qd, HQ, _ = _setup(g, u)
        ug, _ = u_subgroup(inv)
        f = _u_char(ug, 1)
        base = transgression(f, qd, HQ)
        # alternative section: largest element index per coset (identity fixed)
        n = g.order
        alt = np.zeros(qd.quotient.order, dtype=np.int64)
        for x in range(qd.quotient.order):
            members = [y for y in range(n) if qd.projection[y] == x]
            alt[x] = g.identity if x == qd.quotient.identity else max(members)
        assert transgression(f, qd, HQ, section=alt) == base


def _hs_test_cases():
    return [
        (cyclic_group(4), 2),
        (direct_product(cyclic_group(2), cyclic_group(2)), 1),
        (direct_product(cyclic_group(2), cyclic_group(4)), 2 + 4),  # u = (1, 2): (1*4 + 2)
        (cyclic_group(8), 4),
        (direct_product(cyclic_group(4), cyclic_group(4)), 2 * 4),  # u = (2, 0)
        (direct_product(cyclic_group(2), symmetric_group(3)), 6),
    ]


@pytest.mark.parametrize("n", [2, 4])
def test_hochschild_serre_exactness(n):
    """ker(Infl) = im(T), and inflated classes restrict trivially."""
    for g, u in _hs_test_cases():
        inv, qd, HQ, HG = _setup(g, u, n)
        ug, _ = u_subgroup(inv)
        HU = h2(ug, n)
        image = set()
        for val in range(0, n, n // 2):
            image.add(transgression(_u_char(ug, val, order=n), qd, HQ).coords)
        kernel = set()
        for c in HQ.all_classes():
            infl = inflation(qd, c, HG)
            if infl.is_trivial():
                kernel.add(c.coords)
            # composite Infl then res is trivial
            assert restriction(inv, infl, HU).is_trivial()
        assert kernel == image, (g.order, u, n)


def test_restriction_examples(z2z2):
    inv, qd, HQ, HG = _setup(z2z2, 2)
    ug, _ = u_subgroup(inv)
    HU = h2(ug, 2)
    # sigma_a style cocycle with sigma(u,u) = -1: pullback along the u-projection
    vals = np.array([[(i // 2) * (j // 2) for j in range(4)] for i in range(4)])
    c = HG.class_of(Cochain2(z2z2, 2, vals))
    res = restriction(inv, c, HU)
    assert not res.is_trivial()
    assert restriction_square_class(inv, representative(c)) == 1
    # coboundaries restrict trivially
    cob = coboundary(z2z2, 2, [0, 1, 1, 0])
    assert restriction(inv, HG.class_of(cob), HU).is_trivial()


def test_restriction_closed_field():
    """Over the closed descriptor H^2(U, k*) is trivial, so every restriction is."""
    g = direct_product(cyclic_group(2), symmetric_group(3))
    inv = CentralInvolution(g, 6)
    HG = h2_closed_field(g)
    for c in HG.all_classes():
        assert restriction(inv, c).is_trivial()
