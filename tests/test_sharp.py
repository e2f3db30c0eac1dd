"""The theta grading, the sharp product, H^2_sharp and Q(k, G)."""

from __future__ import annotations

import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superbrauer import (
    ALG_CLOSED,
    REAL_CLOSED,
    CentralInvolution,
    Cochain2,
    CohomologyGroup,
    NotCocycle,
    NotSplit,
    ParseError,
    QkGElement,
    RootSystemType,
    coboundary,
    cyclic_group,
    direct_product,
    group_datum,
    h2,
    h2_closed_field,
    h2_sharp,
    is_cocycle,
    q_group,
    quaternion_symbol,
    quotient_by_central_involution,
    sharp,
    sharp_inverse,
    splitting_character,
    symmetric_group,
    theta,
    twisted_group_algebra,
)
from superbrauer.sharp import _abelian_table_invariants, sharp_class_table

from .oracles import abelian_invariants_from_table, enumerated_sharp_table
from .test_cohomology import _dihedral
from .test_groups import _intercalate_z1024


def lam_cochain(z2z2, modulus=2):
    half = modulus // 2
    vals = half * np.array([[(i // 2) * (j % 2) for j in range(4)] for i in range(4)])
    return Cochain2(z2z2, modulus, vals)


def omega_minus1(z2z2, modulus=2):
    half = modulus // 2
    vals = half * np.array([[(i % 2) * (j % 2) for j in range(4)] for i in range(4)])
    return Cochain2(z2z2, modulus, vals)


@pytest.fixture()
def invx(z2z2):
    return CentralInvolution(z2z2, 2)  # u = x = (1, 0)


def test_theta_examples(z2z2, invx):
    lam = lam_cochain(z2z2)
    gr = theta(lam, invx)
    # x = index 2 even, y = index 1 odd
    assert gr.degree[2] == 0 and gr.degree[1] == 1 and gr.degree[invx.u] == 0
    # symmetric cocycle: trivial grading
    sym = omega_minus1(z2z2)
    assert theta(sym, invx).is_trivial()
    # coboundaries: trivial grading
    for gvals in itertools.product(range(2), repeat=3):
        gamma = np.zeros(4, dtype=np.int64)
        gamma[1:] = gvals
        assert theta(coboundary(z2z2, 2, gamma), invx).is_trivial()


def test_theta_rejects_non_cocycle(z2z2, invx):
    vals = np.zeros((4, 4), dtype=np.int64)
    vals[1, 2] = 1
    bad = Cochain2(z2z2, 2, vals)
    assert not is_cocycle(bad)
    with pytest.raises(NotCocycle):
        theta(bad, invx)


def test_theta_and_sharp_descend_to_classes(z2z2, invx):
    """Adding any coboundary leaves theta unchanged and shifts sharp by a coboundary."""
    H = h2(z2z2, 2)
    lam = lam_cochain(z2z2)
    for gvals in itertools.product(range(2), repeat=3):
        gamma = np.zeros(4, dtype=np.int64)
        gamma[1:] = gvals
        cob = coboundary(z2z2, 2, gamma)
        shifted = lam + cob
        assert (theta(shifted, invx).degree == theta(lam, invx).degree).all()
        assert H.class_of(sharp(shifted, lam, invx)) == H.class_of(sharp(lam, lam, invx))
        assert H.class_of(sharp(lam, shifted, invx)) == H.class_of(sharp(lam, lam, invx))


def test_sharp_example_2_2(z2z2, invx):
    """lambda # lambda = omega_{-1}, nontrivial over a real closed field."""
    H = h2(z2z2, 2)
    lam = lam_cochain(z2z2)
    prod = sharp(lam, lam, invx)
    assert H.class_of(prod) == H.class_of(omega_minus1(z2z2))
    assert not H.class_of(prod).is_trivial()


def test_sharp_equals_convolution_when_grading_trivial(z2z2, invx):
    om = omega_minus1(z2z2)
    lam = lam_cochain(z2z2)
    assert sharp(om, lam, invx).equals(om + lam)
    assert sharp(lam, om, invx).equals(lam + om)


def test_sharp_closed_field_lambda_square_trivial_shift(z2z2, invx):
    """Over mu_4 (closed realization) lambda # lambda is cohomologous to lambda * lambda."""
    H4 = h2(z2z2, 4)
    lam4 = lam_cochain(z2z2, 4)
    assert H4.class_of(sharp(lam4, lam4, invx)) == H4.class_of(lam4 + lam4)


def _sharp_test_data():
    z2z2 = direct_product(cyclic_group(2), cyclic_group(2))
    z4 = cyclic_group(4)
    z2z4 = direct_product(cyclic_group(2), cyclic_group(4))
    return [
        (z2z2, 2),
        (z4, 2),
        (z2z4, 2),     # u the Z2 generator: index (1,0) = 4
        (z2z4, 0 + 2), # u = (0, 2)
    ]


def test_sharp_group_axioms_all_classes():
    """Sharp group axioms at class level over every group of order <= 8."""
    for g, u in _sharp_test_data():
        inv = CentralInvolution(g, u)
        for field in (REAL_CLOSED, ALG_CLOSED):
            hs = h2_sharp(g, inv, field)
            table = hs.table
            m = len(hs.classes)
            ident = next(i for i, c in enumerate(hs.classes) if c.is_trivial())
            assert (table[ident, :] == np.arange(m)).all()
            assert (table == table.T).all()
            for a in range(m):
                assert (table[table[a, :], :] == table[a, table]).all()
                assert ident in table[a, :]
            # stated inverse formula, exact at the cochain level
            for i, c in enumerate(hs.classes):
                invrep = sharp_inverse(c.representative(), inv)
                assert not sharp(c.representative(), invrep, inv).values.any()
                j = hs.index_of(hs.cohomology.class_of(invrep))
                assert table[i, j] == ident


def test_h2sharp_closed_matches_h2():
    """Corollary for closed fields: the sharp structure is the usual one."""
    for g, u in _sharp_test_data() + [(symmetric_group(4), None)]:
        if u is None:
            continue
        inv = CentralInvolution(g, u)
        hs = h2_sharp(g, inv, ALG_CLOSED)
        assert hs.invariants == h2_closed_field(g).invariants


def test_h2sharp_real_z2z2(z2z2, invx):
    hs = h2_sharp(z2z2, invx, REAL_CLOSED)
    assert hs.invariants == (4, 2)
    assert h2(z2z2, 2).invariants == (2, 2, 2)


def test_coincide_cases_real(z4z4, z2z4):
    """Nilpotent 2-groups where H^2_sharp = H^2 despite -1 not being a square."""
    # Z4 x Z4 with u the square in one factor
    inv = CentralInvolution(z4z4, 2 * 4)  # u = (2, 0)
    hs = h2_sharp(z4z4, inv, REAL_CLOSED)
    assert hs.invariants == h2(z4z4, 2).invariants
    # Z2 x Z4 with u inside the Z4 factor (no Z2 summand contains u)
    inv = CentralInvolution(z2z4, 2)  # u = (0, 2)
    hs = h2_sharp(z2z4, inv, REAL_CLOSED)
    assert hs.invariants == h2(z2z4, 2).invariants


def test_quaternion_symbol():
    assert quaternion_symbol(0, 1, REAL_CLOSED) == 0
    assert quaternion_symbol(0, 0, REAL_CLOSED) == 0
    assert quaternion_symbol(1, 1, REAL_CLOSED) == 1  # Hamilton quaternions
    assert quaternion_symbol(1, 1, ALG_CLOSED) == 0
    assert REAL_CLOSED.square_class(-3) == 1
    assert REAL_CLOSED.square_class(7) == 0
    assert ALG_CLOSED.square_class(-3) == 0


def test_q_group_real_z2():
    z2 = cyclic_group(2)
    inv = CentralInvolution(z2, 1)
    qg = q_group(z2, inv, REAL_CLOSED)
    assert qg.order == 4
    assert qg.invariants == (4,)
    el = QkGElement(qg.quotient_cohomology.zero_class(), 0, 0, 1)
    ident = qg.index_of(QkGElement(qg.quotient_cohomology.zero_class(), 0, 0, 0))
    x, k = qg.index_of(el), 0
    y = ident
    for k in range(1, 5):
        y = int(qg.table[y, x]) if k > 1 else x
        if y == ident:
            break
    assert k == 4
    sq = qg.multiply(el, el)
    assert sq.square_class == 1 and sq.parity == 0  # (1bar,-1)^2 = (-1bar, 1)


def test_q_group_identity_squared(z2z2):
    inv = CentralInvolution(z2z2, 2)
    qg = q_group(z2z2, inv, REAL_CLOSED)
    ident_el = QkGElement(qg.quotient_cohomology.zero_class(), 0, 0, 0)
    assert qg.multiply(ident_el, ident_el).key() == ident_el.key()


def test_q_group_closed_z2z2_order(z2z2):
    inv = CentralInvolution(z2z2, 2)
    qg = q_group(z2z2, inv, ALG_CLOSED)
    # |H2(G/U)| * |Hom(G/U, Z2)| * 1 * 2 = 1 * 2 * 1 * 2
    assert qg.order == 4


def test_q_group_requires_split(datum_b2):
    with pytest.raises(NotSplit):
        q_group(datum_b2.group, datum_b2.inv, REAL_CLOSED)


def test_eq_2_8_product_rule(z2z2, invx):
    """On split G the sharp product shifts the quotient class by c_{chi,chi'}."""
    g = z2z2
    H = h2(g, 2)
    chi0 = splitting_character(invx)
    assert chi0 is not None
    qd = quotient_by_central_involution(invx)
    q = qd.quotient
    HQ = h2(q, 2)
    # homomorphic section: the coset representative with chi0 = 0
    sec = np.zeros(q.order, dtype=np.int64)
    for x in range(q.order):
        members = [y for y in range(g.order) if qd.projection[y] == x]
        sec[x] = next(y for y in members if chi0(y) == 0)

    def q_part(cls):
        rep = cls.representative()
        vals = rep.values[np.ix_(sec, sec)]
        return HQ.class_of(Cochain2(q, 2, vals))

    def char_of(cls):
        return theta(cls.representative(), invx).degree

    for c1 in H.all_classes():
        for c2 in H.all_classes():
            prod = H.class_of(sharp(c1.representative(), c2.representative(), invx))
            chi1, chi2 = char_of(c1), char_of(c2)
            pair_vals = np.outer(chi1[sec], chi2[sec]) % 2
            pairing = HQ.class_of(Cochain2(q, 2, pair_vals))
            assert q_part(prod) == q_part(c1) + q_part(c2) + pairing
            # characters multiply componentwise
            assert (char_of(prod) == (chi1 + chi2) % 2).all()


def test_twisted_group_algebra(z2z2, invx):
    lam = lam_cochain(z2z2)
    alg = twisted_group_algebra(z2z2, lam, REAL_CLOSED)
    # f_x f_y = - f_y f_x: exponents differ by N/2
    ex, ix = alg.product(2, 1)
    ey, iy = alg.product(1, 2)
    assert ix == iy and (ex - ey) % 2 == 1
    assert alg.associativity_holds()
    assert alg.degrees_are_characters()
    # trivial cocycle: plain group algebra
    triv = twisted_group_algebra(z2z2, Cochain2.zero(z2z2, 2), REAL_CLOSED)
    assert not triv.degree_map().any()
    # non-cocycle input is rejected
    vals = np.zeros((4, 4), dtype=np.int64)
    vals[1, 2] = 1
    with pytest.raises(NotCocycle):
        twisted_group_algebra(z2z2, Cochain2(z2z2, 2, vals), REAL_CLOSED)


def test_symmetric_intercalate_rejected_by_table_check():
    """A commutative Latin square of order 1024 that is not associative."""
    table = _intercalate_z1024(symmetric=True)
    assert (table == table.T).all()
    with pytest.raises(ParseError, match="associativity"):
        _abelian_table_invariants(table, 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(lambda ds: np.prod(ds) <= 256),
       st.integers(0, 2**32 - 1))
def test_table_invariants_match_order_statistics_oracle(orders, seed):
    """Invariant factors of a shuffled product of cyclic groups."""
    g = cyclic_group(orders[0])
    for d in orders[1:]:
        g = direct_product(g, cyclic_group(d))
    perm = np.random.default_rng(seed).permutation(g.order)  # relabel x -> perm[x]
    table = np.empty_like(np.asarray(g.mul))
    table[np.ix_(perm, perm)] = perm[np.asarray(g.mul)]
    ident = int(perm[g.identity])
    assert _abelian_table_invariants(table, ident) == abelian_invariants_from_table(table, ident)


def _central_involutions(g):
    return [x for x in range(g.order)
            if x != g.identity and g.mul[x, x] == g.identity and g.is_central(x)]


def _twist_table_cases():
    cases = []
    for g in (direct_product(cyclic_group(2), cyclic_group(2)),
              direct_product(cyclic_group(4), cyclic_group(2)),
              _dihedral(4), _dihedral(6), _dihedral(8)):
        for u in _central_involutions(g):
            for field in (REAL_CLOSED, ALG_CLOSED):
                cases.append((g, CentralInvolution(g, u), field))
    for name in ("B2", "A3"):
        d = group_datum(RootSystemType.parse(name))
        cases += [(d.group, d.inv, REAL_CLOSED), (d.group, d.inv, ALG_CLOSED)]
    d = group_datum(RootSystemType.parse("B3"))
    cases.append((d.group, d.inv, REAL_CLOSED))
    return cases


def test_sharp_table_from_twist_matches_enumeration(monkeypatch):
    """The table derived from the r x r twist classes equals the m x m
    enumeration, using r theta calls and r^2 class_of calls, and every class
    is the class of its own representative."""
    sharp_mod = importlib.import_module("superbrauer.sharp")  # the package attribute is the function

    for g, inv, field in _twist_table_cases():
        cg = field.cohomology(g)
        for c in cg.all_classes():
            assert cg.class_of(c.representative()) == c
        calls = {"theta": 0, "class_of": 0}
        real_theta, real_class_of = sharp_mod.theta, CohomologyGroup.class_of

        def counting_theta(*args):
            calls["theta"] += 1
            return real_theta(*args)

        def counting_class_of(self, sigma):
            calls["class_of"] += 1
            return real_class_of(self, sigma)

        with monkeypatch.context() as m:
            m.setattr(sharp_mod, "theta", counting_theta)
            m.setattr(CohomologyGroup, "class_of", counting_class_of)
            classes, table = sharp_class_table(cg, inv)
        r = len(cg.invariants)
        assert calls == {"theta": r, "class_of": r * r}
        assert [c.coords for c in classes] == [c.coords for c in cg.all_classes()]
        assert (table == enumerated_sharp_table(cg, inv)).all()
