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
    RootSystemType,
    bm_group,
    coboundary,
    cyclic_group,
    direct_product,
    group_datum,
    group_from_table,
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
)
from superbrauer import cohomology
from superbrauer.sharp import SharpGroup, _GeneratedGroup, sharp_class_table
from superbrauer.weyl import build_weyl

from .oracles import (
    abelian_invariants_from_table,
    all_triples_is_cocycle,
    cochain_equals,
    dense_theta,
    enumerated_sharp_table,
    reconstruct,
    representative,
    table_order,
)
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
    assert cochain_equals(sharp(om, lam, invx), om + lam)
    assert cochain_equals(sharp(lam, om, invx), lam + om)


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
                invrep = sharp_inverse(representative(c), inv)
                assert not sharp(representative(c), invrep, inv).values.any()
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


def test_q_group_real_z2():
    z2 = cyclic_group(2)
    inv = CentralInvolution(z2, 1)
    qg = q_group(z2, inv, REAL_CLOSED)
    assert qg.order == 4
    assert qg.invariants == (4,)
    # element (class, character, square class, parity) is row ((c |Hom| + x) 2 + s) 2 + e;
    # the identity (0, trivial, 0, 0) is row 0 and el = (0, trivial, 0, 1) is row 1
    assert table_order(qg.table, 1, 0) == 4
    assert qg.table[1, 1] == 2  # (1bar,-1)^2 = (-1bar, 1): square class 1, parity 0


def test_q_group_identity_squared(z2z2):
    inv = CentralInvolution(z2z2, 2)
    qg = q_group(z2z2, inv, REAL_CLOSED)
    assert qg.table[0, 0] == 0  # the identity (0, trivial, 0, 0) is row 0


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
        rep = representative(cls)
        vals = rep.values[np.ix_(sec, sec)]
        return HQ.class_of(Cochain2(q, 2, vals))

    def char_of(cls):
        return theta(representative(cls), invx).degree

    for c1 in H.all_classes():
        for c2 in H.all_classes():
            prod = H.class_of(sharp(representative(c1), representative(c2), invx))
            chi1, chi2 = char_of(c1), char_of(c2)
            pair_vals = np.outer(chi1[sec], chi2[sec]) % 2
            pairing = HQ.class_of(Cochain2(q, 2, pair_vals))
            assert q_part(prod) == q_part(c1) + q_part(c2) + pairing
            # characters multiply componentwise
            assert (char_of(prod) == (chi1 + chi2) % 2).all()


def test_symmetric_intercalate_rejected_by_table_check():
    """A commutative Latin square of order 1024 that is not associative."""
    table = _intercalate_z1024(symmetric=True)
    assert (table == table.T).all()
    with pytest.raises(ParseError, match="associativity"):
        group_from_table(table, identity=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(lambda ds: np.prod(ds) <= 256),
       st.integers(0, 2**32 - 1))
def test_table_invariants_match_order_statistics_oracle(orders, seed):
    """Invariant factors and derived table of a shuffled product of cyclic
    groups, given by its generator columns (the identity stays element 0)."""
    g = cyclic_group(orders[0])
    for d in orders[1:]:
        g = direct_product(g, cyclic_group(d))
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(g.order - 1)])  # relabel x -> perm[x]
    table = np.empty_like(np.asarray(g.mul))
    table[np.ix_(perm, perm)] = perm[np.asarray(g.mul)]
    generated = _GeneratedGroup(table[:, perm[list(g.gens)]])
    assert generated.invariants == abelian_invariants_from_table(table, 0)
    assert (generated.table == table).all()


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
    """The generator columns from the r x r twist classes equal those of the
    m x m enumeration, using r theta calls, r^2 pairing_class calls and no
    class_of call; the table derived from them equals the whole enumeration;
    and every class is the class of its own representative."""
    sharp_mod = importlib.import_module("superbrauer.sharp")  # the package attribute is the function

    for g, inv, field in _twist_table_cases():
        cg = field.cohomology(g)
        for c in cg.all_classes():
            assert cg.class_of(representative(c)) == c
        calls = {"theta": 0, "pairing_class": 0, "class_of": 0}
        real_theta = sharp_mod.theta
        real_pairing_class, real_class_of = CohomologyGroup.pairing_class, CohomologyGroup.class_of

        def counting_theta(*args):
            calls["theta"] += 1
            return real_theta(*args)

        def counting_pairing_class(self, a, b):
            calls["pairing_class"] += 1
            return real_pairing_class(self, a, b)

        def counting_class_of(self, sigma):
            calls["class_of"] += 1
            return real_class_of(self, sigma)

        with monkeypatch.context() as m:
            m.setattr(sharp_mod, "theta", counting_theta)
            m.setattr(CohomologyGroup, "pairing_class", counting_pairing_class)
            m.setattr(CohomologyGroup, "class_of", counting_class_of)
            classes, columns = sharp_class_table(cg, inv)
        r = len(cg.invariants)
        assert calls == {"theta": r, "pairing_class": r * r, "class_of": 0}
        assert [c.coords for c in classes] == [c.coords for c in cg.all_classes()]
        enumerated = enumerated_sharp_table(cg, inv)
        generators = [next(i for i, c in enumerate(classes) if c.coords == tuple(e)) for e in np.eye(r, dtype=int)]
        assert (columns == enumerated[:, generators]).all()
        assert (SharpGroup(cg, classes, columns).table == enumerated).all()


def _theta_data():
    """W(B3), G(A3) and W(B4) with u = -1, and Z2 x Z4 x Z6 with each of its
    seven involutions."""
    data = [(d.group, d.inv) for d in (group_datum(RootSystemType.parse(t)) for t in ("B3", "A3", "B4"))]
    g = direct_product(direct_product(cyclic_group(2), cyclic_group(4)), cyclic_group(6))
    return data + [(g, CentralInvolution(g, u)) for u in _central_involutions(g)]


@pytest.mark.parametrize("field", [ALG_CLOSED, REAL_CLOSED], ids=["closed", "real"])
def test_theta_of_classes_matches_dense_oracle(field):
    """theta of every class, read off the walks in its labels, equals the
    u-column minus the u-row of its dense representative, and so does theta of
    that representative plus a random coboundary.  With u = 1 (an empty walk)
    every grading is trivial."""
    rng = np.random.default_rng(20)
    odd = 0
    for g, inv in _theta_data():
        cg = field.cohomology(g)
        n = cg.coeff.n
        for c in cg.all_classes():
            rep = representative(c)
            expected = dense_theta(rep, inv)
            gamma = rng.integers(0, n, g.order)
            gamma[g.identity] = 0
            assert (theta(c, inv).degree == expected).all()
            assert (theta(rep + coboundary(g, n, gamma), inv).degree == expected).all()
            assert theta(c, CentralInvolution(g, g.identity)).is_trivial()
            odd += bool(expected.any())
    assert odd  # some grading is nontrivial


def test_sharp_and_bm_build_no_dense_cochain(monkeypatch):
    """h2_sharp, bm_group and q_group build no dense cochain and run no
    dense cocycle check: theta and the markers read the edge labels."""
    def refuse(*args):
        raise RuntimeError("dense cochain work")

    sharp_mod = importlib.import_module("superbrauer.sharp")  # the package attribute is the function
    monkeypatch.setattr(Cochain2, "__init__", refuse)
    monkeypatch.setattr(cohomology, "is_cocycle", refuse)
    monkeypatch.setattr(sharp_mod, "is_cocycle", refuse)
    wd = build_weyl(RootSystemType.parse("B3"))  # fresh groups: no memo holds a representative
    z = direct_product(direct_product(cyclic_group(2), cyclic_group(4)), cyclic_group(6))
    split = [u for u in _central_involutions(z) if splitting_character(CentralInvolution(z, u)) is not None]
    for g, u in ((wd.group, wd.w0), (z, split[0])):
        inv = CentralInvolution(g, u)
        for field in (ALG_CLOSED, REAL_CLOSED):
            assert h2_sharp(g, inv, field).cohomology.size > 1
            bm_group(g, inv, field)
            q_group(g, inv, field)


@pytest.mark.parametrize("field", [ALG_CLOSED, REAL_CLOSED], ids=["closed", "real"])
@pytest.mark.parametrize("name, outcomes", [("B3", (144, 0)), ("Z4", (1, 3))])
def test_theta_rejects_corrupted_labels(name, outcomes, field, monkeypatch):
    """Moving one label of a class by 1 makes theta raise NotCocycle exactly
    when the labels stop being a cocycle's: always on the edges from 1, and
    elsewhere when the cochain built from them, sigma(g, h) = the label sum
    along w_h from g minus the sum from 1, fails the all-triples check.
    Otherwise theta equals the dense oracle on that cochain.  On W(B3) every
    move breaks a relator; on Z4 every labelling off the edge from 1 is a
    cocycle's.  outcomes = (moves that raise, moves that do not)."""
    if name == "Z4":
        g = cyclic_group(4)
        inv = CentralInvolution(g, 2)
    else:
        d = group_datum(RootSystemType.parse(name))
        g, inv = d.group, d.inv
    cg = field.cohomology(g)
    n, m = cg.coeff.n, len(g.gens)
    cls = sum(cg.generators(), cg.zero_class())
    labels = cg.labels_of_coords(cls.coords)
    raised = kept = 0
    for e in range(len(labels)):
        bad = labels.copy()
        bad[e] = (bad[e] + 1) % n
        sigma = None
        if e // m != g.identity:
            sums = reconstruct(cohomology._presentation(g), bad, n)  # [g, h]: the label sum along w_h from g
            sigma = Cochain2(g, n, sums - sums[g.identity])
        with monkeypatch.context() as mp:
            mp.setattr(CohomologyGroup, "labels_of_coords", lambda self, coords, bad=bad: bad)
            if sigma is None or not all_triples_is_cocycle(sigma):
                with pytest.raises(NotCocycle):
                    theta(cls, inv)
                raised += 1
            else:
                assert (theta(cls, inv).degree == dense_theta(sigma, inv)).all()
                kept += 1
    assert (raised, kept) == outcomes


@pytest.mark.parametrize("right, message", [
    (np.zeros((2, 1), dtype=np.int32), "a generator column is not a permutation"),
    (symmetric_group(3).mul[:, [1, 2]], "the generator columns do not commute"),  # the two transpositions
    (direct_product(cyclic_group(2), cyclic_group(2)).mul[:, [1]], "the generator columns do not reach every element"),
], ids=["not-a-permutation", "not-commuting", "not-generating"])
def test_generated_group_checks_its_columns(right, message):
    """Generator columns are refused unless each permutes the elements, they
    commute, and they reach every element from 0."""
    with pytest.raises(ParseError, match=message):
        _GeneratedGroup(right)
