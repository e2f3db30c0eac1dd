"""Hopf axioms, R-matrices, lazy cocycles and the supergroup Brauer group."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from superbrauer import (
    ALG_CLOSED,
    NotInvariant,
    NotMinusOne,
    NotSymmetric,
    Representation,
    bm_supergroup,
    build_en,
    build_supergroup,
    convolve,
    cyclic_group,
    dual_r_matrix,
    eps_tensor_eps,
    h2_closed_field,
    invariant_symmetric_forms,
    is_convolution_invertible,
    is_lazy,
    is_left_cocycle,
    is_right_cocycle,
    lambda_cocycle,
    lazy_cohomology,
    omega_sigma,
    r_matrix_RA,
    r_u,
    verify_hopf,
    verify_quasitriangular,
    verify_triangular,
)
from superbrauer.supergroup import HCochain2

from .oracles import dense_lambda_cocycle


def _elem(h, b):
    return {b: Fraction(1)}


def test_h4_is_sweedler():
    h = build_en(1)
    assert h.dim == 4
    assert verify_hopf(h).passed


def test_en_relations_via_isomorphism():
    """The stated E(n) presentation holds under c -> u, x_i -> u v_i."""
    h = build_en(3)
    u = h.u_element

    def x(i):
        return h.mul_elements(_elem(h, u), _elem(h, h.v_element(i)))

    # c^2 = 1
    assert h.product_basis(u, u) == {h.unit: Fraction(1)}
    for i in range(3):
        xi = x(i)
        # c x_i + x_i c = 0
        lhs = h.mul_elements(_elem(h, u), xi)
        rhs = h.mul_elements(xi, _elem(h, u))
        assert {k: lhs.get(k, 0) + rhs.get(k, 0) for k in set(lhs) | set(rhs) if lhs.get(k, 0) + rhs.get(k, 0)} == {}
        for j in range(3):
            xj = x(j)
            anti = h.mul_elements(xi, xj)
            for k, v in h.mul_elements(xj, xi).items():
                anti[k] = anti.get(k, Fraction(0)) + v
            assert not any(anti.values())
        # Delta(x_i) = 1 (x) x_i + x_i (x) c
        cop = {}
        for b, c in xi.items():
            for b1, b2, cc in h.coproduct_basis(b):
                key = (b1, b2)
                cop[key] = cop.get(key, Fraction(0)) + c * cc
        cop = {k: v for k, v in cop.items() if v}
        # x_i = u v_i is a single signed basis element
        xi_basis = next(iter(xi))
        coef = xi[xi_basis]
        assert cop == {(h.unit, xi_basis): coef, (xi_basis, u): coef}
        # S(x_j) = c x_j
        s = {}
        for b, c in xi.items():
            for z, cz in h.antipode_basis(b).items():
                s[z] = s.get(z, Fraction(0)) + c * cz
        cx = h.mul_elements(_elem(h, u), xi)
        assert {k: v for k, v in s.items() if v} == {k: v for k, v in cx.items() if v}
    # S(c) = c
    assert h.antipode_basis(u) == {u: Fraction(1)}


def test_exterior_anticommutation():
    h = build_en(2)
    v0, v1 = h.v_element(0), h.v_element(1)
    a = h.product_basis(v0, v1)
    b = h.product_basis(v1, v0)
    assert a == {h.encode(0, 0b11): Fraction(1)}
    assert b == {h.encode(0, 0b11): Fraction(-1)}
    assert h.product_basis(v0, v0) == {}


def test_hopf_axioms_en():
    for n in range(5):
        assert verify_hopf(build_en(n)).passed


def test_hopf_axioms_weyl_small(datum_a2, datum_b2, datum_g2):
    for d in (datum_a2, datum_b2, datum_g2):
        h = build_supergroup(d.group, d.inv, d.rep)
        assert h.dim <= 64
        rep = verify_hopf(h)
        assert rep.passed and not rep.sampled


def test_build_requires_minus_one(datum_a2):
    from superbrauer import CentralInvolution

    g = datum_a2.weyl.group
    center = [x for x in range(g.order) if g.is_central(x) and g.mul[x, x] == g.identity and x != g.identity]
    assert not center  # W(A2) = S3 has no central involution at all
    z2 = cyclic_group(2)
    triv = Representation(group=z2, dim=1, gen_matrices=[((Fraction(1),),)])
    with pytest.raises(NotMinusOne):
        build_supergroup(z2, CentralInvolution(z2, 1), triv)


def test_r_u_triangular():
    for n in (1, 2, 3):
        h = build_en(n)
        assert verify_triangular(h, r_u(h)).passed


def test_r_identity_fails_quasitriangular():
    h = build_en(1)
    rep = verify_quasitriangular(h, {(h.unit, h.unit): Fraction(1)})
    assert not rep.passed
    assert rep.counterexample is not None


def test_r_matrix_a_zero_is_ru():
    for n in (1, 2, 3):
        h = build_en(n)
        assert r_matrix_RA([[0] * n for _ in range(n)], h) == r_u(h)


def test_r_matrix_n1_expansion():
    """Direct expansion of the P = F = {1} term with the signs fixed by the
    triangularity requirement: + v x v + uv x v - v x uv + uv x uv."""
    h = build_en(1)
    a = Fraction(3, 7)
    r = r_matrix_RA([[a]], h)
    e, u = h.group.identity, h.inv.u
    vm = 1
    half = Fraction(1, 2)
    assert r[(h.encode(e, vm), h.encode(e, vm))] == a * half
    assert r[(h.encode(u, vm), h.encode(e, vm))] == a * half
    assert r[(h.encode(e, vm), h.encode(u, vm))] == -a * half
    assert r[(h.encode(u, vm), h.encode(u, vm))] == a * half
    assert verify_triangular(h, r).passed


def test_r_matrix_random_triangular():
    """Triangularity of R_A for 20+ seeded random rational symmetric A, n <= 3."""
    rng = random.Random(42)
    count = 0
    for n in (1, 2, 3):
        h = build_en(n)
        for _ in range(7):
            A = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    A[i][j] = A[j][i]
            assert verify_triangular(h, r_matrix_RA(A, h)).passed
            count += 1
    assert count >= 20


def test_r_matrix_rejects_asymmetric():
    h = build_en(2)
    with pytest.raises(NotSymmetric):
        r_matrix_RA([[0, 1], [0, 0]], h)


def test_omega_sigma_values_and_checks():
    rng = random.Random(5)
    for n in (2, 3):
        h = build_en(n)
        S = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                S[i][j] = S[j][i]
        om = omega_sigma(S, h)
        e = h.group.identity
        for i in range(n):
            for j in range(n):
                assert om(h.encode(e, 1 << i), h.encode(e, 1 << j)) == S[i][j]
        # |P| != |Q| vanishes
        assert om(h.encode(e, 0b11), h.encode(e, 0b01)) == 0
        assert is_left_cocycle(om).passed
        assert is_right_cocycle(om).passed
        assert is_lazy(om).passed
        ok, tau = is_convolution_invertible(om)
        assert ok
        assert convolve(om, tau).equals(eps_tensor_eps(h))


def test_omega_sigma_zero_is_counit():
    h = build_en(2)
    om = omega_sigma([[0, 0], [0, 0]], h)
    assert om.equals(eps_tensor_eps(h))


def test_omega_sigma_is_convolution_of_dual_structures():
    """omega_Sigma = r_0 * r_{-Sigma} in the convolution algebra of (H x H)*."""
    for n, S in [(2, [[1, 2], [2, 3]]), (3, [[1, 0, 2], [0, 3, 1], [2, 1, Fraction(1, 2)]])]:
        h = build_en(n)
        om = omega_sigma(S, h)
        negS = [[-Fraction(x) for x in row] for row in S]
        zero = [[0] * n for _ in range(n)]
        assert om.equals(convolve(dual_r_matrix(zero, h), dual_r_matrix(negS, h)))


def test_perturbed_omega_fails_cocycle():
    h = build_en(2)
    om = omega_sigma([[1, 0], [0, 1]], h)
    vals = [list(row) for row in om.values]
    vals[h.encode(0, 0b01)][h.encode(0, 0b10)] += 1  # tweak one entry
    bad = HCochain2(h, vals)
    assert not is_left_cocycle(bad).passed
    right = is_right_cocycle(bad)
    assert not right.passed
    assert (right.check, right.detail) == ("right-cocycle", "right cocycle equation fails")
    assert right.counterexample == ("g0*v0", "g0*v1", "g1")


def test_lambda_on_en_equals_omega():
    h = build_en(2)
    S = [[2, 1], [1, 3]]
    lam = lambda_cocycle(h, S)
    om = omega_sigma(S, h)
    assert lam.equals(om)


def test_lambda_wb2_exhaustive(wb2_signed, wb2_inv):
    g = wb2_signed
    rep = Representation(
        group=g, dim=2,
        gen_matrices=[tuple(tuple(Fraction(x) for x in row) for row in g.element_data[s]) for s in g.gens],
    )
    h = build_supergroup(g, wb2_inv, rep)
    assert h.dim == 32
    lam = lambda_cocycle(h, [[1, 0], [0, 1]])
    assert is_left_cocycle(lam).passed
    assert is_lazy(lam).passed
    # lambda is 1 on G x G
    for a in range(g.order):
        for b in range(g.order):
            assert lam(h.encode(a, 0), h.encode(b, 0)) == 1
    # perturbing Sigma off the invariant space is rejected, and the forced
    # construction produces a detected counterexample
    with pytest.raises(NotInvariant):
        lambda_cocycle(h, [[1, 0], [0, 2]])
    bad = lambda_cocycle(h, [[1, 0], [0, 2]], require_invariant=False)
    rep2 = is_left_cocycle(bad)
    assert not rep2.passed and rep2.counterexample is not None


def _random_symmetric(rng, n):
    S = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            S[i][j] = S[j][i]
    return S


def _lambda_cases(datum_a2, datum_b2):
    """(algebra, Sigma, invariant) with random forms on E(1)-E(3), W(A2), W(B2)."""
    rng = random.Random(11)
    cases = []
    for n in (1, 2, 3):
        h = build_en(n)
        cases += [(h, _random_symmetric(rng, n), True) for _ in range(2)]
    for d in (datum_a2, datum_b2):
        h = build_supergroup(d.group, d.inv, d.rep)
        basis = invariant_symmetric_forms(d.rep).basis
        for _ in range(2):
            coefs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in basis]
            S = [[sum(c * b[i][j] for c, b in zip(coefs, basis)) for j in range(h.nv)] for i in range(h.nv)]
            cases.append((h, S, True))
            cases.append((h, _random_symmetric(rng, h.nv), False))
    return cases


def test_lambda_rows_match_dense_oracle(datum_a2, datum_b2):
    """The shared-row lambda equals the entry-by-entry oracle, for invariant
    and non-invariant forms, and holds at most one row object per subset."""
    for h, S, invariant in _lambda_cases(datum_a2, datum_b2):
        lam = lambda_cocycle(h, S, require_invariant=invariant)
        dense = dense_lambda_cocycle(h, S)
        assert [list(row) for row in lam.values] == dense
        assert lam.equals(HCochain2(h, dense))
        assert len({id(row) for row in lam.values}) <= 2**h.nv


def test_group_action_computed_once_per_element_and_subset(datum_b2):
    """h^-1.v_P is computed at most |G| 2^n times while lambda is built and checked."""
    h = build_supergroup(datum_b2.group, datum_b2.inv, datum_b2.rep)
    computed = []
    cached = h.inverse_action

    def counting(x, mask):
        if (x, mask) not in h._action:
            computed.append((x, mask))
        return cached(x, mask)

    h.inverse_action = counting  # also catches the recursive calls
    S = invariant_symmetric_forms(datum_b2.rep).basis[0]
    lam = lambda_cocycle(h, S)
    assert is_left_cocycle(lam).passed and is_lazy(lam).passed
    assert computed and len(computed) == len(set(computed)) <= h.group.order * 2**h.nv


def test_counit_cochain_passes_everything():
    h = build_en(2)
    eps = eps_tensor_eps(h)
    assert is_left_cocycle(eps).passed
    assert is_right_cocycle(eps).passed
    assert is_lazy(eps).passed
    ok, tau = is_convolution_invertible(eps)
    assert ok and tau.equals(eps)


def test_lazy_cohomology_h4():
    h = build_en(1)
    lc = lazy_cohomology(h)
    assert lc.linear_dim == 1
    assert lc.invariants == ()
    assert lc.k_trivial  # G = Z2 = U splits off itself


def test_lazy_cohomology_h_a3(datum_a3):
    h = build_supergroup(datum_a3.group, datum_a3.inv, datum_a3.rep)
    lc = lazy_cohomology(h)
    assert lc.linear_dim == 1
    assert lc.invariants == (2,)  # H^2(G(A3)/U) = H^2(S4) = Z2


def test_lazy_cohomology_group_algebra_case():
    """V = 0 gives plain group cohomology."""
    from superbrauer import CentralInvolution

    g = cyclic_group(4)
    rep = Representation(group=g, dim=0, gen_matrices=[()])
    h = build_supergroup(g, CentralInvolution(g, 2), rep)
    lc = lazy_cohomology(h)
    assert lc.linear_dim == 0
    assert lc.group_part.invariants == h2_closed_field(g).invariants


def test_lazy_cohomology_cross_module(datum_b3):
    from superbrauer import invariant_symmetric_forms, quotient_by_central_involution

    h = build_supergroup(datum_b3.group, datum_b3.inv, datum_b3.rep)
    lc = lazy_cohomology(h)
    assert lc.linear_dim == invariant_symmetric_forms(datum_b3.rep).dim == 1
    qd = quotient_by_central_involution(datum_b3.inv)
    assert lc.group_part.invariants == h2_closed_field(qd.quotient).invariants == (2,)
    assert lc.k_trivial  # B3 splits


def test_bm_supergroup_examples(datum_b3, datum_g2):
    z2 = cyclic_group(2)
    from superbrauer import CentralInvolution

    minus = ((Fraction(-1),),)
    rep = Representation(group=z2, dim=1, gen_matrices=[minus])
    res = bm_supergroup(z2, CentralInvolution(z2, 1), rep, ALG_CLOSED)
    assert res.invariants == (2,) and res.linear_dim == 1  # BM of H4 at R_u

    res = bm_supergroup(datum_b3.group, datum_b3.inv, datum_b3.rep, ALG_CLOSED)
    assert res.invariants == (2, 2, 2) and res.linear_dim == 1

    res = bm_supergroup(datum_g2.group, datum_g2.inv, datum_g2.rep, ALG_CLOSED)
    assert res.invariants == (2, 2) and res.linear_dim == 1


def test_bm_order_identity_supergroup(datum_b2, datum_b3):
    """|finite part of BM| = |H^2(G, k*)| * 2^split, independent of V."""
    for d in (datum_b2, datum_b3):
        res = bm_supergroup(d.group, d.inv, d.rep, ALG_CLOSED)
        hc = h2_closed_field(d.group)
        from superbrauer import splitting_character

        split = splitting_character(d.inv) is not None
        size = 1
        for x in res.invariants:
            size *= x
        expect = hc.size * (2 if split else 1)
        assert size == expect
