"""Hopf axioms, R-matrices, lazy cocycles and the supergroup Brauer group."""

from __future__ import annotations

import copy
import functools
import itertools
import math
import random
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superbrauer import (
    ALG_CLOSED,
    CentralInvolution,
    NotInvariant,
    NotMinusOne,
    NotSymmetric,
    Representation,
    bm_supergroup,
    build_en,
    build_supergroup,
    cyclic_group,
    direct_product,
    dual_r_matrix,
    h2_closed_field,
    invariant_symmetric_forms,
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
from superbrauer import supergroup, twisted
from superbrauer.errors import CapExceeded
from superbrauer.groups import _mat_mul
from superbrauer.supergroup import HCochain2
from superbrauer.forms import numerators
from superbrauer.twisted import (ProductTables, _r_terms, _sample, _wedge, exterior_power, kernel_rows, products,
                                 signed_minors, twisted_terms)

from .oracles import (
    all_basis_r_delta,
    all_pairs_verify_hopf,
    convolve,
    dense_lambda_cocycle,
    det_signed_minors,
    dict_compound,
    dict_r_legs,
    dict_view,
    eps_tensor_eps,
    factor_coproduct,
    four_loop_cocycle_check,
    four_loop_is_lazy,
    randrange_sample,
    generator_verify_hopf,
    generator_verify_quasitriangular,
    generator_verify_triangular,
    hcochain_equals,
    is_convolution_invertible,
    leibniz_det,
    looped_coproduct_legs,
    product_antipode,
    tensor_flip,
    tensor_mul,
    triple_tensor_legs,
    twisted_product,
    uncleared_r_checks,
)


def _elem(h, b):
    return {b: Fraction(1)}


def test_h4_is_sweedler():
    h = build_en(1)
    assert h.dim == 4
    assert verify_hopf(h).passed


def test_en_relations_via_isomorphism():
    """The stated E(n) presentation holds under c -> u, x_i -> u v_i, in the
    structure constants of the product tables."""
    h = dict_view(build_en(3))
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
    h = dict_view(build_en(2))
    v0, v1 = h.v_element(0), h.v_element(1)
    a = h.product_basis(v0, v1)
    b = h.product_basis(v1, v0)
    assert a == {h.encode(0, 0b11): Fraction(1)}
    assert b == {h.encode(0, 0b11): Fraction(-1)}
    assert h.product_basis(v0, v0) == {}


def test_wedge_table_is_the_sign_of_merging():
    """wedge[R, Q] is the sign of the permutation that sorts the indices of R
    followed by those of Q, counted by inversions, and 0 where R and Q overlap."""
    for n in range(6):
        wedge = _wedge(n)
        for r in range(1 << n):
            for q in range(1 << n):
                idx = [i for i in range(n) if r >> i & 1] + [i for i in range(n) if q >> i & 1]
                inversions = sum(x > y for pos, x in enumerate(idx) for y in idx[pos + 1:])
                assert wedge[r, q] == (0 if r & q else (-1) ** inversions)


@pytest.mark.parametrize("name", [f"E{n}" for n in range(9)] + ["A1", "A2", "A3", "B2", "B3", "G2", "D4"])
def test_coproduct_legs_match_the_looped_build(name):
    """product_tables enumerates the legs (P - B, B) with numpy and builds the
    wedge table once, one index at a time: legs, coefficients D wedge[B, P - B]
    and the table equal the Python loop over every pair of masks with the
    table of inversion parities."""
    if name.startswith("E"):
        h = build_en(int(name[1:]))
    else:
        from superbrauer import RootSystemType, group_datum

        d = group_datum(RootSystemType.parse(name))
        h = build_supergroup(d.group, d.inv, d.rep)
    t = h.product_tables()
    start, first, second, sign, wedge = looped_coproduct_legs(h)
    assert t.wedge.dtype == wedge.dtype and np.array_equal(t.wedge, wedge)
    assert np.array_equal(t.leg_start, start) and np.array_equal(t.leg_first, first)
    assert np.array_equal(t.leg_second, second) and np.array_equal(t.leg_coef, t.denominator * sign)


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
    assert (h.unit, b) not in {(x, y) for x, y, _ in dict_view(h).coproduct_basis(b)}
    h = _moved(h, "coproduct", b, (h.unit, b), Fraction(1))
    rep = verify_hopf(h)
    assert (rep.passed, rep.detail, rep.counterexample, rep.sampled) == (
        False, "coproduct not multiplicative", ("g3*v0v1v2", "g4"), False)
    old = all_pairs_verify_hopf(h)
    assert old.passed and old.sampled


@pytest.mark.parametrize("name", ["E0", "E1", "E2", "E3", "E4", "datum_a1", "datum_b2", "datum_a2", "datum_b3"])
def test_closed_forms_match_multiplied_out_coproduct_and_antipode(request, name):
    """Delta and S in closed form, as the tables hold them, equal Delta and S
    multiplied out with the tables' product from their values on the
    generators, on every basis element of E(0)-E(4) and of the W(A1), W(B2),
    G(A2) and W(B3) data."""
    if name.startswith("E"):
        h = build_en(int(name[1:]))
    else:
        d = request.getfixturevalue(name)
        h = build_supergroup(d.group, d.inv, d.rep)
    h = dict_view(h)
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


def _dense_power(*mats):
    """The CSR exterior power of the stack mats as a dense array E[k, P, R], and D; the
    rows of each column are strictly ascending, and only nonzero minors are stored."""
    start, mask, coef, d = exterior_power(*numerators(list(mats)))
    n = len(mats[0])
    rows = np.repeat(np.arange(len(start) - 1), np.diff(start))
    assert (coef != 0).all() and (np.diff(rows << n | mask) > 0).all()
    power = np.zeros((len(mats), 2**n, 2**n), dtype=coef.dtype)
    power.reshape(-1, 2**n)[rows, mask] = coef
    return power, d


@settings(max_examples=80, deadline=None)
@given(_square_matrices())
def test_compound_matches_leibniz_minors(m):
    """Column P of the exterior power holds det m[R, P] for every R with |R| = |P|,
    by the Leibniz expansion, and 0 elsewhere, over the least common denominator
    of these minors; the signed minors are those of the per-minor Gauss-Jordan loop."""
    n = len(m)
    power, d = _dense_power(m)
    assert power.shape == (1, 2**n, 2**n)
    want = {}
    for pm in range(2**n):
        P = [j for j in range(n) if (pm >> j) & 1]
        for rm in range(2**n):
            R = [i for i in range(n) if (rm >> i) & 1]
            want[rm, pm] = Fraction(leibniz_det([[m[i][j] for j in P] for i in R]) if len(R) == len(P) else 0)
            assert Fraction(int(power[0, pm, rm]), d) == want[rm, pm]
    assert d == math.lcm(*(x.denominator for x in want.values()))
    start, mask, signed, ds = signed_minors(m)
    qs = np.repeat(np.arange(2**n), np.diff(start))
    assert {(pm, qm): Fraction(c, ds) for pm, qm, c in zip(mask.tolist(), qs.tolist(), signed.tolist())} \
        == det_signed_minors(m)


@st.composite
def _rational_stacks(draw):
    """1-4 rational n x n matrices, n <= 4, some rows zero or dependent: entries
    up to 3 over denominators up to 3, or in half of the stacks up to 2^40 over
    denominators up to 2^20, whose minors pass int64 (the Python-int path)."""
    n = draw(st.integers(0, 4))
    big = draw(st.booleans())
    entry = st.fractions(-(2**40), 2**40, max_denominator=2**20) if big else st.fractions(-3, 3, max_denominator=3)
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        if n > 1 and draw(st.booleans()):
            k, c = draw(st.integers(0, n - 1)), draw(st.sampled_from([0, 1, -2, Fraction(1, 3)]))
            rows[k] = [c * x for x in rows[(k + 1) % n]]
        mats.append(tuple(map(tuple, rows)))
    return mats


@settings(max_examples=80, deadline=None)
@given(_rational_stacks())
def test_exterior_power_matches_dict_compound(mats):
    """The batched exterior power of a stack holds, for every matrix, the columns
    of the dict recursion over one least common denominator."""
    n = len(mats[0])
    power, d = _dense_power(*mats)
    want = [{(rm, pm): c for pm, col in enumerate(dict_compound(m, n)) for rm, c in col.items()} for m in mats]
    for k, cols in enumerate(want):
        assert {(rm, pm): Fraction(int(power[k, pm, rm]), d) for pm, rm in zip(*np.nonzero(power[k]))} == cols
    assert d == math.lcm(*(Fraction(c).denominator for cols in want for c in cols.values()))


def test_exterior_power_takes_python_ints_past_int64():
    """The 2 x 2 determinants 2^80 - 3 and 3 2^63 - 2^63 = 2^64 and the entry 2^63
    stay exact: the passes run on Python ints, and the array keeps them."""
    power, d = _dense_power(((2**40, 1), (3, 2**40)), ((2**63, 2**63), (1, 3)))
    assert power.dtype == object and d == 1
    assert (power[0, 3, 3], power[1, 3, 3], power[1, 2, 1]) == (2**80 - 3, 2**64, 2**63)


def test_build_requires_minus_one(datum_a2):
    from superbrauer import CentralInvolution, build_weyl

    g = build_weyl(datum_a2.type).group
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


def _integral_symmetric(rng, n):
    S = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    return [[S[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def test_r_matrix_triangular_e4_e5():
    """R_A is triangular on E(4) and E(5) for integral and rational symmetric A,
    and R_A with one coefficient moved by 1/2 is not."""
    rng = random.Random(44)
    for n in (4, 5):
        h = build_en(n)
        for A in (_integral_symmetric(rng, n), _random_symmetric(rng, n)):
            r = r_matrix_RA(A, h)
            assert verify_triangular(h, r).passed
            bad = dict(r)
            key = rng.choice(sorted(bad))
            bad[key] += Fraction(1, 2)
            assert not verify_triangular(h, bad).passed


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
        assert hcochain_equals(convolve(om, tau), eps_tensor_eps(h))


def test_omega_sigma_zero_is_counit():
    h = build_en(2)
    om = omega_sigma([[0, 0], [0, 0]], h)
    assert hcochain_equals(om, eps_tensor_eps(h))


def test_omega_sigma_is_convolution_of_dual_structures():
    """omega_Sigma = r_0 * r_{-Sigma} in the convolution algebra of (H x H)*."""
    for n, S in [(2, [[1, 2], [2, 3]]), (3, [[1, 0, 2], [0, 3, 1], [2, 1, Fraction(1, 2)]])]:
        h = build_en(n)
        om = omega_sigma(S, h)
        negS = [[-Fraction(x) for x in row] for row in S]
        zero = [[0] * n for _ in range(n)]
        assert hcochain_equals(om, convolve(dual_r_matrix(zero, h), dual_r_matrix(negS, h)))


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
    assert hcochain_equals(lam, om)


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
        assert hcochain_equals(lam, HCochain2(h, dense))
        assert len({id(row) for row in lam.values}) <= 2**h.nv


def test_group_action_computed_once_per_element_and_subset(datum_b2, monkeypatch):
    """Lambda rho(h^-1) for every h, every h^-1.v_P at once, is one exterior power
    of the stack of all |G| matrices, built once per algebra while lambda is built
    and checked twice; the one other exterior power of each lambda is that of Sigma."""
    h = build_supergroup(datum_b2.group, datum_b2.inv, datum_b2.rep)
    calls = []
    power = twisted.exterior_power
    monkeypatch.setattr(twisted, "exterior_power", lambda num, d: calls.append(len(num)) or power(num, d))
    S = invariant_symmetric_forms(datum_b2.rep).basis[0]
    for _ in range(2):
        lam = lambda_cocycle(h, S)
        assert is_left_cocycle(lam).passed and is_lazy(lam).passed
    assert calls == [h.group.order, 1, 1]


def test_counit_cochain_passes_everything():
    h = build_en(2)
    eps = eps_tensor_eps(h)
    assert is_left_cocycle(eps).passed
    assert is_right_cocycle(eps).passed
    assert is_lazy(eps).passed
    ok, tau = is_convolution_invertible(eps)
    assert ok and hcochain_equals(tau, eps)


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


def _moved(h, kind, b, key, value):
    """A copy of h whose product tables have the coefficient of key in Delta(b)
    (kind "coproduct", key a leg (b1, b2)) or S(b) (kind "antipode", key an
    element) moved by value; every table is rescaled to the common denominator
    of D and value, so half-integers move too."""
    t = copy.copy(h.product_tables())
    d = math.lcm(t.denominator, Fraction(value).denominator)
    scale = d // t.denominator
    t.leg_coef, t.act_coef, t.anti_coef = (c * scale for c in (t.leg_coef, t.act_coef, t.anti_coef))
    prefix = "leg" if kind == "coproduct" else "anti"
    names = ("leg_first", "leg_second") if kind == "coproduct" else ("anti_elem",)
    start, coef = getattr(t, prefix + "_start").tolist(), getattr(t, prefix + "_coef").tolist()
    keys = list(zip(*(getattr(t, name).tolist() for name in names)))
    rows = [dict(zip(keys[lo:hi], coef[lo:hi])) for lo, hi in zip(start, start[1:])]
    key = key if kind == "coproduct" else (key,)
    rows[b][key] = rows[b].get(key, 0) + int(value * d)
    rows[b] = {k: c for k, c in rows[b].items() if c}
    setattr(t, prefix + "_start", np.cumsum([0, *map(len, rows)]))
    for pos, name in enumerate(names):
        setattr(t, name, np.array([k[pos] for row in rows for k in row], dtype=np.int64))
    setattr(t, prefix + "_coef", np.array([c for row in rows for c in row.values()], dtype=t.leg_coef.dtype))
    moved = copy.copy(h)
    moved._tables = ProductTables(t.nv, t.mul, t.leg_start, t.leg_first, t.leg_second, t.leg_coef, t.act_start,
                                  t.act_mask, t.act_coef, t.anti_start, t.anti_elem, t.anti_coef, d, t.wedge)
    return moved


@st.composite
def _perturbed_hopf_algebras(draw):
    """An algebra of E(0)-E(3), W(A1) or W(B2), as built or with one coefficient
    of Delta(b) or S(b) moved in its tables, half-integers included, with R_u
    as built or with one coefficient moved."""
    h = _algebra(draw(st.sampled_from(["E0", "E1", "E2", "E3", "A1", "B2"])))
    basis = st.integers(0, h.dim - 1)
    kind = draw(st.sampled_from([None, "coproduct", "antipode"]))
    if kind == "coproduct":
        h = _moved(h, kind, draw(basis), (draw(basis), draw(basis)), draw(_nonzero))
    elif kind == "antipode":
        h = _moved(h, kind, draw(basis), draw(basis), draw(_nonzero))
    r = r_u(h)
    if draw(st.booleans()):
        key = (draw(basis), draw(basis))
        r[key] = r.get(key, 0) + draw(_nonzero)
    return h, kind, r


@settings(max_examples=80, deadline=None)
@given(_perturbed_hopf_algebras())
def test_generator_hopf_check_matches_all_pairs_oracle(case):
    """The check on basis x generators gives the verdict of the all-pairs
    check, on the algebra as built and with one Delta(b) or S(b) moved."""
    h, kind, _ = case
    new, old = verify_hopf(h), all_pairs_verify_hopf(h)
    assert new.passed == old.passed
    assert not new.sampled and not old.sampled
    assert kind is not None or new.passed


@settings(max_examples=100, deadline=None)
@given(_perturbed_hopf_algebras())
def test_table_checks_match_dict_generator_checks(case):
    """The Hopf, quasitriangular and triangular checks on the tables give the
    reports of the dict generator checks on the same tables: verdict, detail
    and first counterexample, on the algebra as built and with one Delta(b)
    or S(b) moved, for R_u as built and with one coefficient moved."""
    h, _, r = case
    assert _report_tuple(verify_hopf(h)) == _report_tuple(generator_verify_hopf(h))
    assert _report_tuple(verify_quasitriangular(h, r)) == _report_tuple(generator_verify_quasitriangular(h, r))
    assert _report_tuple(verify_triangular(h, r)) == _report_tuple(generator_verify_triangular(h, r))


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


def _low_slices(h, legs):
    """The leg tensors cut to the entries dict_r_legs keeps: (Delta x id)R and R13 R23
    where the middle leg has degree <= 1, (id x Delta)R and R13 R12 where the last has."""
    def low(b):
        return bin(h.decode(b)[1]).count("1") <= 1

    cop1, r13r23, cop2, r13r12 = legs
    return tuple({k: c for k, c in t.items() if low(k[leg])}
                 for t, leg in ((cop1, 1), (r13r23, 1), (cop2, 2), (r13r12, 2)))


def test_r_legs_match_triple_tensor_oracle():
    """The four leg tensors of the dict generator check agree with the degree <= 1
    slices of the H (x) H (x) H products on random symmetric A, and on R_A with
    one coefficient changed, where the table check fails as the dict check does."""
    rng = random.Random(7)
    for n in (1, 2, 3):
        h = build_en(n)
        for _ in range(3):
            r = r_matrix_RA(_random_symmetric(rng, n), h)
            assert dict_r_legs(h, r) == _low_slices(h, triple_tensor_legs(h, r))
            bad = dict(r)
            key = rng.choice(sorted(bad))
            bad[key] += Fraction(rng.choice([-2, -1, 1, 3]), 2)
            legs = dict_r_legs(h, bad)
            assert legs == _low_slices(h, triple_tensor_legs(h, bad))
            assert legs[0] != legs[1] or legs[2] != legs[3]
            rep = verify_quasitriangular(h, bad)
            assert not rep.passed
            assert _report_tuple(rep) == _report_tuple(generator_verify_quasitriangular(h, bad))


def test_r_legs_catch_perturbations_off_the_slices(datum_b2):
    """R_A on E(2), E(3) and R_u on W(B2) moved only in entries whose legs both have
    degree >= 2, which the leg slices do not read: the reports still equal the
    full-tensor oracle's, and every moved R fails at a leg identity."""
    half = Fraction(1, 2)
    b2 = build_supergroup(datum_b2.group, datum_b2.inv, datum_b2.rep)
    e2, e3 = build_en(2), build_en(3)
    cases = [(e2, r_matrix_RA([[1, 2], [2, 4]], e2), 1),
             (e3, r_matrix_RA([[1, 2, -1], [2, 3, 1], [-1, 1, 5]], e3), 5),
             (b2, r_u(b2), 9)]
    details = set()
    for h, r, step in cases:
        high = [b for b in h.basis() if bin(h.decode(b)[1]).count("1") >= 2]
        keys = list(itertools.product(high, repeat=2))[::step]
        assert keys
        for i, key in enumerate(keys):
            bad = dict(r)
            bad[key] = bad.get(key, 0) + (i % 3 + 1) * half
            reports = (verify_quasitriangular(h, bad), verify_triangular(h, bad))
            assert [_report_tuple(x) for x in reports] == [_report_tuple(x) for x in uncleared_r_checks(h, bad)]
            assert not reports[0].passed
            details.add(reports[0].detail)
    assert details <= {"(Delta x id)R != R13 R23", "(id x Delta)R != R13 R12"}


def test_unit_law_on_basis(datum_b2):
    """The leg formulas use x 1 = 1 x = x on every basis element."""
    for h in (build_en(3), build_supergroup(datum_b2.group, datum_b2.inv, datum_b2.rep)):
        t = h.product_tables()
        basis, one = np.arange(h.dim), np.full(h.dim, h.unit)
        for x, y in ((basis, one), (one, basis)):
            j, z, c = products(t, x, y)
            assert j.tolist() == z.tolist() == list(h.basis()) and (c == t.denominator).all()


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
        assert h.product_tables().denominator == 1
        v = dict_view(h)
        constants = [c for a in h.basis() for b in h.basis() for c in v.product_basis(a, b).values()]
        constants += [c for b in h.basis() for _, _, c in v.coproduct_basis(b)]
        constants += [c for b in h.basis() for c in v.antipode_basis(b).values()]
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


def test_cleared_checks_match_oracles_with_mixed_denominators(datum_b2):
    """With Sigma = form/3 on the W(B2) datum lambda has the denominators 3, 6
    and 36, so D = 36 is their lcm, not their product; with one entry moved by
    1/5 it is 180.  Left, right and lazy reports equal the oracle reports."""
    h = build_supergroup(datum_b2.group, datum_b2.inv, datum_b2.rep)
    form = invariant_symmetric_forms(datum_b2.rep).basis[0]  # [[1, -1/2], [-1/2, 1/2]]
    lam = lambda_cocycle(h, [[x / 3 for x in row] for row in form])
    vals = [list(row) for row in lam.values]
    vals[h.encode(3, 0b01)][h.encode(5, 0b10)] += Fraction(1, 5)
    for sigma, d, ok in ((lam, 36, True), (HCochain2(h, vals), 180, False)):
        dens = {x.denominator for row in sigma.values for x in row}
        assert sigma.cleared[2] == d < math.prod(dens)
        reports = [_report_tuple(is_left_cocycle(sigma)), _report_tuple(is_right_cocycle(sigma)),
                   _report_tuple(is_lazy(sigma))]
        assert reports == [four_loop_cocycle_check(sigma, False), four_loop_cocycle_check(sigma, True),
                           four_loop_is_lazy(sigma)]
        assert all(rep[1] == ok for rep in reports)


def test_cleared_rows_are_int_and_stay_shared(datum_b3):
    """On the W(B3) datum, whose form basis[0] has half-integer entries, the
    checks read int rows D lambda, at most one row object per subset P."""
    h = build_supergroup(datum_b3.group, datum_b3.inv, datum_b3.rep)
    lam = lambda_cocycle(h, invariant_symmetric_forms(datum_b3.rep).basis[0])
    assert any(type(x) is Fraction for row in lam.values for x in row)
    rows, rid, d = lam.cleared
    assert d == 8 and all(type(x) is int for row in rows for x in row)
    assert len(rows) <= 2**h.nv
    assert all(list(rows[i]) == [d * x for x in orig] for i, orig in zip(rid, lam.values))


@functools.cache
def _kernel_algebra(name):
    """E(1)-E(4), the W(A2), W(B2) and W(B3) data, and "B2/2": the W(B2) datum
    conjugated by [[1, 1/2], [0, 1]], whose action has denominators."""
    if name.startswith("E"):
        return build_en(int(name[1:]))
    from superbrauer import RootSystemType, group_datum

    datum = group_datum(RootSystemType.parse(name[:2]))
    if name == "B2/2":
        return _conjugated_b2(datum)
    return build_supergroup(datum.group, datum.inv, datum.rep)


@functools.cache
def _kernel_lambda(name):
    h = _kernel_algebra(name)
    return lambda_cocycle(h, invariant_symmetric_forms(h.rep).basis[0])


@st.composite
def _kernel_cases(draw):
    """(cochain, pairs): a normalized cochain on E(1)-E(4) with random integer
    values, half of them 0, or lambda of the first invariant form on W(A2),
    W(B2), W(B3) or the conjugated W(B2); and up to 30 random basis pairs."""
    name = draw(st.sampled_from(["E1", "E2", "E3", "E4", "A2", "B2", "B3", "B2/2"]))
    h = _kernel_algebra(name)
    if name.startswith("E"):
        rng = random.Random(draw(st.integers(0, 2**32)))
        vals = [[rng.choice([0] * 8 + [-4, -3, -2, -1, 1, 2, 3, 4]) for _ in h.basis()] for _ in h.basis()]
        for b in h.basis():
            vals[h.unit][b] = vals[b][h.unit] = dict_view(h).counit_basis(b)
        sigma = HCochain2(h, vals)
    else:
        sigma = _kernel_lambda(name)
    element = st.integers(0, h.dim - 1)
    return sigma, draw(st.lists(st.tuples(element, element), min_size=1, max_size=30))


@settings(max_examples=80, deadline=None)
@given(_kernel_cases())
def test_twisted_terms_match_dict_oracle(case):
    """The kernel's terms of D^3 m(a, b) and D^3 m^op(a, b) on the int rows of D' sigma,
    added up per (pair, z) and divided by D^3, D the tables' denominator, are the
    dict-loop products of each pair on the same rows."""
    sigma, pairs = case
    h = sigma.algebra
    t = h.product_tables()
    rows, rid = kernel_rows(sigma, t)
    a, b = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    cleared = [sigma.cleared[0][i] for i in sigma.cleared[1]]
    for op in (False, True):
        got = [{} for _ in pairs]
        for k, z, c in zip(*twisted_terms(t, rows, rid, a, b, op)):
            got[k][int(z)] = got[k].get(int(z), 0) + Fraction(int(c), t.denominator**3)
        for (x, y), terms in zip(pairs, got):
            assert {z: c for z, c in terms.items() if c} == twisted_product(h, cleared, x, y, op)


def test_conjugated_action_is_cleared():
    """The conjugated W(B2) action has the common denominator 2 (the kernel
    cases above exercise it); the Weyl and E(n) actions are integral."""
    assert _kernel_algebra("B2/2").product_tables().denominator == 2
    assert all(_kernel_algebra(name).product_tables().denominator == 1 for name in ("E3", "B2", "B3"))


def test_big_values_take_python_ints():
    """Sigma = 2^40 M on E(3) and omega_Sigma with its minors of size 2 and 3
    dropped: eps x eps plus 2^40 times the linear part, values near 2^40.  The
    cocycle sides differ by 2^80 times the missing quadratic term, which is 0 in
    int64 arithmetic (mod 2^64), so only exact Python ints find the failure.
    The kernel picks them from its overflow bound, and all three checks give
    the reports of the four-loop oracles."""
    h = build_en(3)
    big = 2**40
    m = [[1, 2, -1], [2, 3, 1], [-1, 1, 2]]
    omega = omega_sigma([[big * x for x in row] for row in m], h)
    low = [b for b in h.basis() if bin(h.decode(b)[1]).count("1") <= 1]
    vals = [[omega(x, y) if x in low and y in low else 0 for y in h.basis()] for x in h.basis()]
    sigma = HCochain2(h, vals)
    assert max(abs(v) for row in vals for v in row) == 3 * big
    assert kernel_rows(sigma, h.product_tables())[0].dtype == object
    left = _report_tuple(is_left_cocycle(sigma))
    assert not left[1]
    assert left == four_loop_cocycle_check(sigma, False)
    assert _report_tuple(is_right_cocycle(sigma)) == four_loop_cocycle_check(sigma, True)
    assert _report_tuple(is_lazy(sigma)) == four_loop_is_lazy(sigma)


def _big_entry_algebra():
    """Z2 x Z2 with u -> -I and the other generator -> [[1, N], [0, -1]], N = (2^62 + 1)/2."""
    big = Fraction(2**62 + 1, 2)
    g = direct_product(cyclic_group(2), cyclic_group(2))
    mats = [((-1, 0), (0, -1)), ((1, big), (0, -1))]
    rep = Representation(group=g, dim=2, gen_matrices=[tuple(tuple(map(Fraction, row)) for row in m) for m in mats])
    return build_supergroup(g, CentralInvolution(g, int(g.gens[0])), rep)


def test_lambda_and_omega_match_dense_oracle():
    """lambda of every invariant form basis element and of a random symmetric form
    (invariance not required) on the W(A2), W(B2), W(B3), conjugated W(B2) and
    big-entry data, whose minors pass 2^63, and omega_Sigma of two random forms
    on E(1)-E(4), equal the entry-by-entry oracle, one row object per subset."""
    rng = random.Random(5)
    cases = []
    for h in [*map(_kernel_algebra, ("A2", "B2", "B3", "B2/2")), _big_entry_algebra()]:
        cases += [(lambda_cocycle(h, S), S) for S in invariant_symmetric_forms(h.rep).basis]
        S = _random_symmetric(rng, h.nv)
        cases.append((lambda_cocycle(h, S, require_invariant=False), S))
    assert cases[-1][0].rows.dtype == object  # the big-entry datum's numerators pass int64
    for n in (1, 2, 3, 4):
        cases += [(omega_sigma(S, _kernel_algebra(f"E{n}")), S) for S in (_random_symmetric(rng, n) for _ in range(2))]
    for sigma, S in cases:
        h = sigma.algebra
        assert [list(row) for row in sigma.values] == dense_lambda_cocycle(h, S)
        assert len({id(row) for row in sigma.values}) == len(sigma.rows) == 2**h.nv


def test_table_checks_take_python_ints_past_the_int64_bound(monkeypatch):
    """Z2 x Z2 with u -> -I and the other generator -> [[1, N], [0, -1]], N =
    (2^62 + 1)/2 (the closure of integer matrices refuses entries near 2^62):
    the tables clear the action to D = 2 and hold the int64 entry 2^62 + 1,
    so products of two table coefficients pass 2^64 and the Hopf and R checks
    run on Python ints.  verify_hopf and verify_triangular with R_u give the
    reports of the dict generator checks, as built and with one Delta(b)
    coefficient moved by 3/2, and so does verify_triangular with R_u plus
    2^63 (1 x 1), a coefficient no int64 holds."""
    h = _big_entry_algebra()
    t = h.product_tables()
    assert (t.denominator, t.max_coef, t.act_coef.dtype) == (2, 2**62 + 1, np.int64)
    widened = []
    exact = ProductTables.exact
    monkeypatch.setattr(ProductTables, "exact",
                        lambda t, bound: widened.append(exact(t, bound).act_coef.dtype == object) or exact(t, bound))
    b = h.encode(int(h.group.gens[1]), 0b11)
    x, y, _ = dict_view(h).coproduct_basis(b)[1]
    for alg in (h, _moved(h, "coproduct", b, (x, y), Fraction(3, 2))):
        reports = [verify_hopf(alg), verify_triangular(alg, r_u(alg))]
        assert [_report_tuple(r) for r in reports] == [
            _report_tuple(generator_verify_hopf(alg)), _report_tuple(generator_verify_triangular(alg, r_u(alg)))]
        assert reports[0].passed == (alg is h) and reports[1].passed
    r = r_u(h)
    r[h.unit, h.unit] += 2**63
    assert _report_tuple(verify_triangular(h, r)) == _report_tuple(generator_verify_triangular(h, r))
    assert not verify_triangular(h, r).passed
    assert widened and all(widened)


def test_summed_keys_past_int64():
    """_summed files the term (k, z) under k dim + z; with dim^3 triple keys on a
    large algebra that passes 2^63, and the keys are then Python ints: the sums
    equal those of a dict, where int64 keys would wrap and merge k = 1 and 3."""
    dim = 2**62
    k, z, c = np.array([3, 1, 3, 0]), np.array([5, 5, 5, 7]), np.array([1, 4, 2, -1])
    got = twisted._summed(k, z, c, dim)
    assert [list(map(int, x)) for x in got] == [[0, 1, 3], [7, 5, 5], [-1, 4, 3]]


def test_sampled_draw_is_pinned(datum_b3):
    """Above the dim budget the checks read SAMPLED_TRIPLES tuples from
    random.Random(seed): on W(B3) (dim 384) with seed 7 these are the tuples.
    At dim <= budget nothing is drawn: the checks visit every tuple."""
    h = build_supergroup(datum_b3.group, datum_b3.inv, datum_b3.rep)
    triples = _sample(h, 3, 64, 7)
    assert triples.shape == (3, supergroup.SAMPLED_TRIPLES) and supergroup.SAMPLED_TRIPLES == 1500
    assert triples.T[:5].tolist() == [[165, 77, 202], [333, 24, 37], [274, 48, 187], [298, 29, 259], [109, 19, 44]]
    pairs = _sample(h, 2, 64, 7)
    assert pairs.shape == (2, 1500)
    assert pairs.T[:5].tolist() == [[165, 77], [202, 333], [24, 37], [274, 48], [187, 298]]
    assert _sample(h, 3, h.dim, 7) is None and _sample(h, 2, h.dim, 7) is None


@pytest.mark.parametrize("dim", [65, 100, 384, 1000, 2**12, 2**12 + 1, 3 * 2**17, 2**20 - 1, 2**24, 10**9,
                                 2**31, 2**31 + 1, 2**32 - 1])
def test_bulk_draw_matches_randrange(dim):
    """The sample read off one getrandbits call is the sequence of randrange(dim)
    calls, at powers of two, one past them and up to the 32-bit limit; a dim of
    2^32, whose randrange spans two words, is refused."""
    h = types.SimpleNamespace(dim=dim)
    for seed in (0, 1, 7, 2026):
        for arity in (2, 3):
            assert _sample(h, arity, 64, seed).T.tolist() == [list(t) for t in randrange_sample(dim, arity, seed)]
    with pytest.raises(CapExceeded):
        _sample(types.SimpleNamespace(dim=2**32), 2, 64, 0)


def test_r_matrix_odd_minor_is_triangular():
    """R_A with odd minors has the common denominator D = 2 and is triangular."""
    for n, A in ((1, [[1]]), (2, [[1, 3], [3, 2]]), (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])):
        h = build_en(n)
        r = r_matrix_RA(A, h)
        *_, cleared, d = _r_terms(h, r)
        assert d == 2 and cleared.dtype == np.int64 and (cleared == [2 * c for c in r.values()]).all()
        assert verify_quasitriangular(h, r).passed and verify_triangular(h, r).passed


def _degree_one_r_candidates():
    """R_u on E(2) plus (1/2) u v_0 (x) (1 - u), and its flip.  The first is
    e_1 (x) 1 + e_u (x) u with e_1 = (1 + u)/2 + u v_0 / 2 and e_u = (1 - u)/2 - u v_0 / 2
    orthogonal idempotents, so (id x Delta)R = R13 R12 holds, and (Delta x id)R = R13 R23
    fails only where the middle leg has degree 1; the flip fails (id x Delta)R = R13 R12
    only where the last leg has degree 1."""
    h = build_en(2)
    moved = dict(r_u(h))
    uv = h.encode(h.inv.u, 0b01)
    moved[uv, h.unit], moved[uv, h.u_element] = Fraction(1, 2), Fraction(-1, 2)
    return [(h, moved), (h, tensor_flip(moved))]


def test_degree_one_r_candidates_fail_only_on_degree_one_slices():
    """The full-tensor legs of the two candidates differ only on entries whose
    middle (first candidate) or last (second candidate) leg has degree 1."""
    for (h, r), broken in zip(_degree_one_r_candidates(), (0, 1)):
        legs = triple_tensor_legs(h, r)
        for i, leg in ((0, 1), (1, 2)):
            lhs, rhs = legs[2 * i], legs[2 * i + 1]
            moved = [k for k in set(lhs) | set(rhs) if lhs.get(k, 0) != rhs.get(k, 0)]
            degrees = {bin(h.decode(k[leg])[1]).count("1") for k in moved}
            assert degrees == ({1} if i == broken else set())


def _r_candidates():
    """(algebra, R) pairs meeting each R-matrix detail: R_A on E(1)-E(3) with one
    coefficient moved by 1/2 (every coefficient on E(1), E(2), every seventh on
    E(3)), R = 0, R = 1 (x) (1 + u)/2, the two R that fail a leg identity only on
    a degree-1 slice, and on E(2) the quasitriangular, non-triangular R_A of
    A = [[0, 1], [0, 0]]."""
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
    yield from _degree_one_r_candidates()
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


def test_antipode_form_matches_r21_r_oracle(datum_b2):
    """Where R is quasitriangular, R21 = (S x id)R exactly when R21 R = 1 x 1:
    verify_triangular gives the verdict of the R21 R product on the quasitriangular
    _r_candidates case (the R_A of A = [[0, 1], [0, 0]]), R_A on E(1)-E(4) for
    integral and rational A, and R_u on W(B2)."""
    rng = random.Random(21)
    b2 = build_supergroup(datum_b2.group, datum_b2.inv, datum_b2.rep)
    cases = [*_r_candidates(), (b2, r_u(b2))]
    for n in (1, 2, 3, 4):
        h = build_en(n)
        cases += [(h, r_matrix_RA(_integral_symmetric(rng, n), h)), (h, r_matrix_RA(_random_symmetric(rng, n), h))]
    outcomes = []
    for h, r in cases:
        if verify_quasitriangular(h, r).passed:
            rep = verify_triangular(h, r)
            r21_r = tensor_mul(h, tensor_flip(r), r) == {(h.unit, h.unit): 1}
            assert rep.passed == r21_r
            assert r21_r or rep.detail == "R21 * R != 1 x 1"
            outcomes.append(r21_r)
    assert outcomes.count(False) == 1 and outcomes.count(True) == 9
