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
    build_en,
    build_supergroup,
    cyclic_group,
    direct_product,
    invariant_symmetric_forms,
    symmetric_group,
    verify_hopf,
)
from superbrauer import forms
from superbrauer.forms import _nullspace
from superbrauer.groups import _mat_mul, _mat_rank

from .oracles import (
    det_by_elimination,
    is_group_invariant_form,
    leading_principal_minors_positive,
    leibniz_det,
    walked_representation,
)


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
    from superbrauer.weyl import _is_minus_identity, build_weyl

    assert acts_as_minus_one(datum_b2.rep, datum_b2.inv)
    # w0 of A2 is not -1 on V (hence the diagram automorphism is adjoined)
    w = build_weyl(datum_a2.type)
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


@pytest.mark.parametrize("group, matrices", [
    ("Z2", [[[0]]]),
    ("Z2", [[[2]]]),
    ("Z2", [[[-(2**63 - 1)]]]),
    ("Z2", [[[2**63]]]),
    ("S3", [[[-1]], [[1]]]),
], ids=["singular", "infinite-image", "int64-wraps", "int64-overflows", "S3-closes-but-no-homomorphism"])
def test_more_incompatible_generator_matrices_rejected(group, matrices):
    """Z2 has no singular image, no element of infinite order, and (1 - 2^63)^2 != 1
    although it wraps to 1 in int64; on S3 the image {1, -1} fits in |G| but
    rho(s0 s1)^3 = -1."""
    g = cyclic_group(2) if group == "Z2" else symmetric_group(3)
    with pytest.raises(ParseError, match="not compatible with the group"):
        Representation(group=g, dim=1, gen_matrices=[_frac_mat(m) for m in matrices])


def test_integer_matrices_past_the_int64_guard_are_closed_exactly():
    """Z2 x Z2 with g0 -> -I and g1 -> [[1, 2^62], [0, -1]] is a representation:
    the int64 guard of the batched closure refuses the entry 2^62, and the
    closure in Python ints finds the image of order 4; u = g0 acts as -1, and
    the supergroup algebra on it passes the Hopf check in Python ints."""
    g = direct_product(cyclic_group(2), cyclic_group(2))
    mats = [[[-1, 0], [0, -1]], [[1, 2**62], [0, -1]]]
    rep = Representation(group=g, dim=2, gen_matrices=[_frac_mat(m) for m in mats])
    assert rep.is_faithful()
    assert {rep.matrix(x) for x in range(g.order)} == {((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((1, 2**62), (0, -1)),
                                                       ((-1, -(2**62)), (0, 1))}
    h = build_supergroup(g, CentralInvolution(g, int(g.gens[0])), rep)
    assert verify_hopf(h).passed


def test_integer_image_past_the_cap_is_refused_after_one_closure(monkeypatch):
    """[[2]] on Z2 has an infinite image that stays within int64 up to the cap |G|:
    the batched closure refuses it at the cap, and no Python-int closure runs."""
    calls = []
    monkeypatch.setattr(forms, "_close_bfs", lambda *args: calls.append(args))
    with pytest.raises(ParseError, match="not compatible with the group"):
        Representation(group=cyclic_group(2), dim=1, gen_matrices=[_frac_mat([[2]])])
    assert calls == []


def _reps_to_walk():
    yield from (f"datum_{t}" for t in ("a1", "a2", "a3", "b2", "b3", "d4", "g2"))
    yield "S3-sign", lambda: Representation(group=symmetric_group(3), dim=1, gen_matrices=[_frac_mat([[-1]])] * 2)
    yield "dim-0", lambda: Representation(group=cyclic_group(4), dim=0, gen_matrices=[()])
    yield "E3", lambda: build_en(3).rep


@pytest.mark.parametrize("case", list(_reps_to_walk()), ids=lambda c: c if isinstance(c, str) else c[0])
def test_representation_matches_walk(case, request):
    """Every rho(x) and faithfulness agree with the Fraction walk over every (x, s)."""
    rep = request.getfixturevalue(case).rep if isinstance(case, str) else case[1]()
    want = walked_representation(rep.group, rep.gen_matrices, rep.dim)
    assert [rep.matrix(x) for x in range(rep.group.order)] == want
    assert rep.is_faithful() == (len(set(want)) == rep.group.order)


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
        det = det_by_elimination(m)
        assert det == leibniz_det(m)
        assert (det != 0) == (rank == ncols)
