"""Hopf axioms, R-matrices, lazy cocycles and the supergroup Brauer group."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
from superbrauer import supergroup
from superbrauer.groups import _mat_mul
from superbrauer.supergroup import HCochain2, _cleared, _compound, _r_legs, _signed_minors

from .oracles import (
    all_basis_r_delta,
    all_pairs_verify_hopf,
    dense_lambda_cocycle,
    det_signed_minors,
    factor_coproduct,
    four_loop_cocycle_check,
    four_loop_is_lazy,
    leibniz_det,
    product_antipode,
    triple_tensor_legs,
    uncleared_r_checks,
)


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


def test_hopf_axioms_weyl_small(datum_a2, datum_b2, datum_g2, datum_b3):
    """Exhaustive below the dim budget, and above it (W(B3), dim 384) too."""
    for d in (datum_a2, datum_b2, datum_g2, datum_b3):
        h = build_supergroup(d.group, d.inv, d.rep)
        assert h.dim <= 64 or d is datum_b3 and h.dim == 384
        rep = verify_hopf(h)
        assert rep.passed and not rep.sampled


def test_hopf_check_catches_error_the_sampled_check_missed(datum_d4):
    """One extra term 1 (x) b in Delta(b), b = g12*v0v2v3 on the W(D4) datum
    (dim 3072): the seeded sample of pairs misses it, the generator check does not."""
    h = build_supergroup(datum_d4.group, datum_d4.inv, datum_d4.rep)
    b = h.encode(12, 0b1101)
    assert h.label(b) == "g12*v0v2v3"
    h._cop[b] = h.coproduct_basis(b) + [(h.unit, b, Fraction(1))]
    rep = verify_hopf(h)
    assert (rep.passed, rep.detail, rep.counterexample, rep.sampled) == (
        False, "coproduct not multiplicative", ("g3*v0v1v2", "g4"), False)
    old = all_pairs_verify_hopf(h)
    assert old.passed and old.sampled


@pytest.mark.parametrize("name", ["E0", "E1", "E2", "E3", "E4", "datum_a1", "datum_b2", "datum_a2", "datum_b3"])
def test_closed_forms_match_multiplied_out_coproduct_and_antipode(request, name):
    """Delta and S in closed form equal Delta and S multiplied out from their
    values on the generators, on every basis element of E(0)-E(4) and of the
    W(A1), W(B2), G(A2) and W(B3) data."""
    if name.startswith("E"):
        h = build_en(int(name[1:]))
    else:
        d = request.getfixturevalue(name)
        h = build_supergroup(d.group, d.inv, d.rep)
    for b in h.basis():
        assert sorted(h.coproduct_basis(b)) == sorted(factor_coproduct(h, b))
        assert h.antipode_basis(b) == product_antipode(h, b)


@st.composite
def _square_matrices(draw):
    """Rational n x n matrices, n <= 4; half of them with one row a multiple of the next."""
    n = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n and draw(st.booleans()):
        k, c = draw(st.integers(0, n - 1)), draw(st.fractions(-2, 2, max_denominator=2))
        rows[k] = [c * x for x in rows[(k + 1) % n]] if n > 1 else [Fraction(0)]
    return rows


@settings(max_examples=80, deadline=None)
@given(_square_matrices())
def test_compound_matches_leibniz_minors(m):
    """Column P of the compound holds det m[R, P] for every R with |R| = |P|, by
    the Leibniz expansion, nonzero values only and ints where integral; the
    signed minors are those of the per-minor Gauss-Jordan loop."""
    n = len(m)
    cols = _compound(m, n)
    assert len(cols) == 2**n
    for pm, col in enumerate(cols):
        P = [j for j in range(n) if (pm >> j) & 1]
        for rm in range(2**n):
            R = [i for i in range(n) if (rm >> i) & 1]
            want = leibniz_det([[m[i][j] for j in P] for i in R]) if len(R) == len(P) else 0
            assert col.get(rm, 0) == want
        assert all(c and (isinstance(c, int) or c.denominator > 1) for c in col.values())
    signed = {(pm, qm): c for qm, col in enumerate(_signed_minors(m)) for pm, c in col.items()}
    assert signed == det_signed_minors(m)


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


def test_group_action_computed_once_per_element_and_subset(datum_b2, monkeypatch):
    """Lambda rho(h^-1), every h^-1.v_P at once, is built at most once per h while
    lambda is built and checked; the one other exterior power is that of Sigma."""
    h = build_supergroup(datum_b2.group, datum_b2.inv, datum_b2.rep)
    built, calls = [], []

    class Counting(dict):
        def __setitem__(self, x, cols):
            built.append(x)
            super().__setitem__(x, cols)

    compound = supergroup._compound
    monkeypatch.setattr(supergroup, "_compound", lambda mat, n: calls.append(mat) or compound(mat, n))
    h._action = Counting()
    S = invariant_symmetric_forms(datum_b2.rep).basis[0]
    lam = lambda_cocycle(h, S)
    assert is_left_cocycle(lam).passed and is_lazy(lam).passed
    assert built and len(built) == len(set(built)) <= h.group.order
    assert len(calls) == len(built) + 1


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


def _report_tuple(rep):
    return rep.check, rep.passed, rep.detail, rep.counterexample, rep.sampled


@functools.cache
def _algebra(name):
    """E(0)-E(3), W(A1) and W(B2), built once so their product caches are shared."""
    if name in ("A1", "B2"):
        from superbrauer import RootSystemType, group_datum

        d = group_datum(RootSystemType.parse(name))
        return build_supergroup(d.group, d.inv, d.rep)
    return build_en(int(name[1:]))


_small = st.fractions(-3, 3, max_denominator=2)
_nonzero = st.sampled_from([Fraction(k, d) for k in (-3, -1, 1, 2) for d in (1, 2)])


@st.composite
def _perturbed_cochains(draw):
    """omega or lambda on E(1)-E(3), lambda on W(B2), one non-unit entry moved."""
    name = draw(st.sampled_from(["E1", "E2", "E3", "B2"]))
    h = _algebra(name)
    n = h.nv
    if name == "B2":
        basis = invariant_symmetric_forms(h.rep).basis
        coefs = [draw(_small) for _ in basis]
        S = [[sum(c * b[i][j] for c, b in zip(coefs, basis)) for j in range(n)] for i in range(n)]
        sigma = lambda_cocycle(h, S)
    else:
        S = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                S[i][j] = S[j][i] = draw(_small)
        sigma = omega_sigma(S, h) if draw(st.booleans()) else lambda_cocycle(h, S)
    vals = [list(row) for row in sigma.values]
    non_unit = st.integers(0, h.dim - 2).map(lambda b: b + (b >= h.unit))
    vals[draw(non_unit)][draw(non_unit)] += draw(_nonzero)
    budget = draw(st.sampled_from([h.dim, h.dim - 1]))  # exhaustive, or sampled
    return HCochain2(h, vals), budget, draw(st.integers(0, 3))


@settings(max_examples=80, deadline=None)
@given(_perturbed_cochains())
def test_twisted_product_checks_match_four_loop_oracle(case):
    """Left, right and lazy checks through m_sigma/m_sigma^op give the report
    of the per-tuple expansion: verdict, detail, first counterexample, sampled."""
    sigma, budget, seed = case
    assert _report_tuple(is_left_cocycle(sigma, budget, seed)) == four_loop_cocycle_check(sigma, False, budget, seed)
    assert _report_tuple(is_right_cocycle(sigma, budget, seed)) == four_loop_cocycle_check(sigma, True, budget, seed)
    assert _report_tuple(is_lazy(sigma, budget, seed)) == four_loop_is_lazy(sigma, budget, seed)


@st.composite
def _perturbed_hopf_algebras(draw):
    """(algebra, memo dict, b, value) with Delta(b) or S(b) of one basis element
    of E(0)-E(3), W(A1) or W(B2) moved by one coefficient; (algebra, None, None,
    None) leaves the algebra as built."""
    h = _algebra(draw(st.sampled_from(["E0", "E1", "E2", "E3", "A1", "B2"])))
    kind = draw(st.sampled_from([None, "coproduct", "antipode"]))
    if kind is None:
        return h, None, None, None
    basis = st.integers(0, h.dim - 1)
    b = draw(basis)
    if kind == "coproduct":
        memo, value = h._cop, {(b1, b2): c for b1, b2, c in h.coproduct_basis(b)}
        key = (draw(basis), draw(basis))
    else:
        memo, value = h._anti, dict(h.antipode_basis(b))
        key = draw(basis)
    value[key] = value.get(key, Fraction(0)) + draw(_nonzero)
    value = {k: c for k, c in value.items() if c}
    if kind == "coproduct":
        value = [(b1, b2, c) for (b1, b2), c in value.items()]
    return h, memo, b, value


@settings(max_examples=80, deadline=None)
@given(_perturbed_hopf_algebras())
def test_generator_hopf_check_matches_all_pairs_oracle(case):
    """The check on basis x generators gives the verdict of the all-pairs
    check, on the algebra as built and with one Delta(b) or S(b) moved."""
    h, memo, b, value = case
    if memo is not None:
        saved, memo[b] = memo[b], value  # the strategy filled memo[b]
    try:
        new, old = verify_hopf(h), all_pairs_verify_hopf(h)
    finally:
        if memo is not None:
            memo[b] = saved
    assert new.passed == old.passed
    assert not new.sampled and not old.sampled
    assert memo is not None or new.passed


def test_generator_r_delta_matches_all_basis_oracle(datum_b2):
    """R Delta = Delta^op R on the generators decides as on every basis element:
    R_A on E(1)-E(3) and R_u on W(B2) pass, and R = 1 x 1, which passes the legs
    and commutes with Delta(g), fails on the v_i."""
    rng = random.Random(3)
    for h in [build_en(n) for n in (1, 2, 3)] + [build_supergroup(datum_b2.group, datum_b2.inv, datum_b2.rep)]:
        r = r_matrix_RA(_random_symmetric(rng, h.nv), h) if h.group.order == 2 else r_u(h)
        for cand, ok in ((r, True), ({(h.unit, h.unit): Fraction(1)}, False)):
            rep = verify_quasitriangular(h, cand)
            assert rep.passed == all_basis_r_delta(h, cand).passed == ok
            assert ok or rep.detail == "R Delta != Delta^op R"


def test_r_legs_match_triple_tensor_oracle():
    """The four leg tensors agree with the H (x) H (x) H products on random
    symmetric A, and on R_A with one coefficient changed."""
    rng = random.Random(7)
    for n in (1, 2, 3):
        h = build_en(n)
        for _ in range(3):
            r = r_matrix_RA(_random_symmetric(rng, n), h)
            assert _r_legs(h, r) == triple_tensor_legs(h, r)
            bad = dict(r)
            key = rng.choice(sorted(bad))
            bad[key] += Fraction(rng.choice([-2, -1, 1, 3]), 2)
            legs = _r_legs(h, bad)
            assert legs == triple_tensor_legs(h, bad)
            assert legs[0] != legs[1] or legs[2] != legs[3]
            assert not verify_quasitriangular(h, bad).passed


def test_unit_law_on_basis(datum_b2):
    """The leg formulas use x 1 = 1 x = x on every basis element."""
    for h in (build_en(3), build_supergroup(datum_b2.group, datum_b2.inv, datum_b2.rep)):
        for x in h.basis():
            assert h.product_basis(x, h.unit) == h.product_basis(h.unit, x) == {x: Fraction(1)}


def _is_exact(x):
    """An int, or a Fraction whose denominator survives: never a float, never an integral Fraction."""
    return type(x) is int or type(x) is Fraction and x.denominator != 1


def _integral_cases(datum_b2):
    """(algebra, Sigma, A): E(2) with even minors of A, E(3) with odd minors of
    Sigma and A, and the W(B2) datum with an integral invariant form; A only on E(n)."""
    b2 = build_supergroup(datum_b2.group, datum_b2.inv, datum_b2.rep)
    form = invariant_symmetric_forms(datum_b2.rep).basis[0]  # [[1, -1/2], [-1/2, 1/2]]
    return [
        (build_en(2), [[2, 1], [1, 3]], [[2, 4], [4, -2]]),
        (build_en(3), [[1, 0, 2], [0, 3, 1], [2, 1, -1]], [[1, 2, -1], [2, 3, 1], [-1, 1, 5]]),
        (b2, [[2 * x for x in row] for row in form], None),
    ]


def test_coefficients_are_int_where_integral(datum_b2):
    """On integral data every structure constant and lambda/omega value is an int;
    R_A and tau are ints where integral and Fractions only where a denominator survives."""
    for h, S, A in _integral_cases(datum_b2):
        constants = [c for a in h.basis() for b in h.basis() for c in h.product_basis(a, b).values()]
        constants += [c for b in h.basis() for _, _, c in h.coproduct_basis(b)]
        constants += [c for b in h.basis() for c in h.antipode_basis(b).values()]
        sigma = omega_sigma(S, h) if A is not None else lambda_cocycle(h, S)
        constants += [x for row in sigma.values for x in row]
        assert constants and all(type(c) is int for c in constants)
        ok, tau = is_convolution_invertible(sigma)
        assert ok and all(_is_exact(x) for row in tau.values for x in row)
        if A is not None:
            r = r_matrix_RA(A, h)
            assert all(_is_exact(c) for c in r.values())
            halves = {c for c in r.values() if type(c) is Fraction}
            assert halves and {c.denominator for c in halves} == {2}
            assert any(type(c) is int for c in r.values())  # from the even minors of A


def _conjugated_b2(datum_b2):
    """The W(B2) datum with rho conjugated by P = [[1, 1/2], [0, 1]]: the matrices
    and the invariant forms get denominators, and rho(u) = -1 still."""
    p = ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1)))
    p_inv = ((Fraction(1), Fraction(-1, 2)), (Fraction(0), Fraction(1)))
    mats = [_mat_mul(_mat_mul(p_inv, m), p) for m in datum_b2.rep.gen_matrices]
    assert any(x.denominator != 1 for m in mats for row in m for x in row)
    rep = Representation(group=datum_b2.group, dim=2, gen_matrices=mats)
    return build_supergroup(datum_b2.group, datum_b2.inv, rep)


def test_mixed_coefficients_match_oracles(datum_b2):
    """Where Fractions survive, the Hopf, cocycle and lazy checks pass and give
    the oracle reports, and a perturbed lambda fails as in the oracles."""
    h = _conjugated_b2(datum_b2)
    new, old = verify_hopf(h), all_pairs_verify_hopf(h)
    assert new.passed and old.passed
    lam = lambda_cocycle(h, invariant_symmetric_forms(h.rep).basis[0])
    assert any(type(x) is Fraction for row in lam.values for x in row)
    vals = [list(row) for row in lam.values]
    vals[h.encode(3, 0b01)][h.encode(5, 0b10)] += Fraction(1, 3)
    for sigma, ok in ((lam, True), (HCochain2(h, vals), False)):
        reports = [_report_tuple(is_left_cocycle(sigma)), _report_tuple(is_right_cocycle(sigma)),
                   _report_tuple(is_lazy(sigma))]
        assert reports == [four_loop_cocycle_check(sigma, False), four_loop_cocycle_check(sigma, True),
                           four_loop_is_lazy(sigma)]
        assert all(rep[1] == ok for rep in reports[:2])


def test_r_matrix_odd_minor_is_triangular():
    """R_A with odd minors has the common denominator D = 2 and is triangular."""
    for n, A in ((1, [[1]]), (2, [[1, 3], [3, 2]]), (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])):
        h = build_en(n)
        r = r_matrix_RA(A, h)
        cleared, d = _cleared(r)
        assert d == 2 and all(type(c) is int for c in cleared.values())
        assert verify_quasitriangular(h, r).passed and verify_triangular(h, r).passed


def _r_candidates():
    """(algebra, R) pairs meeting each R-matrix detail: R_A on E(1)-E(3) with one
    coefficient moved by 1/2 (every coefficient on E(1), E(2), every seventh on
    E(3)), R = 0, R = 1 (x) (1 + u)/2, and on E(2) the quasitriangular,
    non-triangular R_A of A = [[0, 1], [0, 0]]."""
    half = Fraction(1, 2)
    for n, A in ((1, [[3]]), (2, [[1, 2], [2, 4]]), (3, [[1, 2, -1], [2, 3, 1], [-1, 1, 5]])):
        h = build_en(n)
        r = r_matrix_RA(A, h)
        for key in sorted(r)[::1 if n < 3 else 7] + [(h.unit, h.v_element(0)), (h.v_element(0), h.u_element)]:
            bad = dict(r)
            bad[key] = bad.get(key, 0) + half
            yield h, bad
    h = build_en(2)
    e, u = h.group.identity, h.inv.u
    yield h, {}
    yield h, {(h.unit, h.unit): half, (h.unit, h.u_element): half}
    upper = dict(r_u(h))
    for (g1, g2), c in {(e, e): half, (u, e): half, (e, u): -half, (u, u): half}.items():
        upper[(h.encode(g1, 0b01), h.encode(g2, 0b10))] = c
    yield h, upper


def test_cleared_r_checks_match_uncleared_oracle():
    """Checked on D R, every identity gives the report of the check on R itself:
    verdict, detail and counterexample, for each of the five details."""
    details = set()
    for h, r in _r_candidates():
        reports = (verify_quasitriangular(h, r), verify_triangular(h, r))
        assert [_report_tuple(x) for x in reports] == [_report_tuple(x) for x in uncleared_r_checks(h, r)]
        assert not reports[1].passed
        details.add(reports[1].detail)
    assert details == {"(Delta x id)R != R13 R23", "(id x Delta)R != R13 R12", "(eps x id)R != 1",
                       "R21 * R != 1 x 1"}
