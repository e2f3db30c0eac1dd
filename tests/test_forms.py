"""Invariant symmetric forms over exact rationals."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbrauer import (
    CentralInvolution,
    ParseError,
    Representation,
    acts_as_minus_one,
    cyclic_group,
    invariant_symmetric_forms,
)
from superbrauer.forms import leading_principal_minors_positive, _mat_mul, _nullspace
from superbrauer.groups import _det, _mat_rank

from .oracles import is_group_invariant_form, leibniz_det


def _frac_mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_trivial_group_all_forms():
    g = cyclic_group(1)
    rep = Representation(group=g, dim=3, gen_matrices=[_frac_mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])])
    assert invariant_symmetric_forms(rep).dim == 6


def test_z2_diag_action():
    g = cyclic_group(2)
    rep = Representation(group=g, dim=2, gen_matrices=[_frac_mat([[1, 0], [0, -1]])])
    forms = invariant_symmetric_forms(rep)
    assert forms.dim == 2
    for b in forms.basis:
        assert b[0][1] == 0 and b[1][0] == 0  # off-diagonal forced to zero


def test_weyl_forms_dim_one(datum_a2, datum_b2, datum_b3, datum_g2, datum_a3):
    for d in (datum_a2, datum_b2, datum_b3, datum_g2, datum_a3):
        forms = invariant_symmetric_forms(d.rep)
        assert forms.dim == 1
        assert leading_principal_minors_positive(forms.basis[0])


def test_acts_as_minus_one(datum_b2, datum_a2):
    from superbrauer.weyl import _is_minus_identity

    assert acts_as_minus_one(datum_b2.rep, datum_b2.inv)
    # w0 of A2 is not -1 on V (hence the diagram automorphism is adjoined)
    w = datum_a2.weyl
    assert not _is_minus_identity(w.group.element_data[w.w0])
    assert datum_a2.extended and acts_as_minus_one(datum_a2.rep, datum_a2.inv)
    # trivial representation never works for u != 1
    g = cyclic_group(2)
    triv = Representation(group=g, dim=1, gen_matrices=[_frac_mat([[1]])])
    assert not acts_as_minus_one(triv, CentralInvolution(g, 1))


def test_dim_invariant_under_base_change(wb2_signed, wb2_inv):
    import random

    g = wb2_signed
    rep = Representation(group=g, dim=2, gen_matrices=[_frac_mat(g.element_data[s]) for s in g.gens])
    base = invariant_symmetric_forms(rep).dim
    rng = random.Random(3)
    for _ in range(4):
        while True:
            P = _frac_mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            det = P[0][0] * P[1][1] - P[0][1] * P[1][0]
            if det != 0:
                break
        Pinv = _frac_mat(
            [[P[1][1] / det, -P[0][1] / det], [-P[1][0] / det, P[0][0] / det]]
        )
        conj = [
            _mat_mul(_mat_mul(Pinv, m), P) for m in rep.gen_matrices
        ]
        rep2 = Representation(group=g, dim=2, gen_matrices=conj)
        assert invariant_symmetric_forms(rep2).dim == base


def test_generator_invariance_implies_group_invariance(datum_a2, datum_b2, datum_b3, datum_g2, datum_a3):
    """Every basis form, checked on generators only, is invariant under every element."""
    for d in (datum_a2, datum_b2, datum_b3, datum_g2, datum_a3):
        forms = invariant_symmetric_forms(d.rep)
        assert forms.basis and all(is_group_invariant_form(d.rep, sig) for sig in forms.basis)


def test_incompatible_generator_matrices_rejected():
    """rho(g)^3 = -1 != rho(g^3) = 1 on Z3."""
    with pytest.raises(ParseError, match="not compatible with the group"):
        Representation(group=cyclic_group(3), dim=1, gen_matrices=[_frac_mat([[-1]])])


_entries = st.one_of(st.integers(-2, 2).map(Fraction), st.fractions(-3, 3, max_denominator=3))


@st.composite
def _rational_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return [[draw(_entries) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=300, deadline=None)
@given(_rational_matrices())
def test_elimination_properties(m):
    ncols = len(m[0])
    rank = _mat_rank(m)
    null = _nullspace(m, ncols)
    assert rank + len(null) == ncols
    for v in null:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    if len(m) == ncols:
        det = _det(m)
        assert det == leibniz_det(m)
        assert (det != 0) == (rank == ncols)
