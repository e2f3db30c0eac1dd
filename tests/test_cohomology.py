"""H^2 computations against independent dense oracles and frozen values."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from superbrauer import (
    ALG_CLOSED,
    CentralInvolution,
    Cochain2,
    NotCocycle,
    ParseError,
    RootSystemType,
    TwistedGroupAlgebra,
    abelianization,
    build_weyl,
    close_generators,
    coboundary,
    cyclic_group,
    direct_product,
    group_datum,
    h2,
    h2_closed_field,
    is_cocycle,
    quotient_by_central_involution,
    restriction,
    symmetric_group,
)
from superbrauer import cohomology, groups, modlinalg
from superbrauer.cohomology import group_exponent
from superbrauer.modlinalg import prime_power_factors, solve_mod

from .oracles import (
    all_pairs_degrees_are_characters,
    all_triples_is_cocycle,
    brute_h2_order,
    coboundary_rows,
    coo_cocycle_kernel,
    coo_frontier_system,
    delta_rows,
    f_column_kernel,
    gauge_fix,
    gauge_fixed,
    presentation_unknowns,
    relator_rows,
)


def lam_cochain(z2z2):
    vals = np.array([[(i // 2) * (j % 2) for j in range(4)] for i in range(4)])
    return Cochain2(z2z2, 2, vals)


def test_coboundary_examples(z2):
    zero = coboundary(z2, 4, [0, 0])
    assert not zero.values.any()
    c = coboundary(z2, 4, [0, 1])
    assert c.values[1, 1] == 2  # gamma(g) = 1 gives sigma(g,g) = 2 = -1 in mu_4
    c2 = coboundary(z2, 2, [0, 1])
    assert not c2.values.any()


def test_d_after_d_is_zero():
    """Every basis coboundary is a cocycle (all 1-cochains follow by linearity)."""
    for g in [cyclic_group(4), symmetric_group(3), direct_product(cyclic_group(2), cyclic_group(4)),
              symmetric_group(4)]:
        assert g.order <= 24
        for n in (2, 3, 4):
            for y in range(g.order):
                if y == g.identity:
                    continue
                gamma = np.zeros(g.order, dtype=np.int64)
                gamma[y] = 1
                assert is_cocycle(coboundary(g, n, gamma))


def test_is_cocycle_examples(z2z2):
    assert is_cocycle(lam_cochain(z2z2))
    z3 = cyclic_group(3)
    vals = np.zeros((3, 3), dtype=np.int64)
    vals[1, 1] = 1
    assert not is_cocycle(Cochain2(z3, 3, vals))


def test_h2_z2z2_gf2(z2z2):
    assert h2(z2z2, 2).invariants == (2, 2, 2)
    # brute force over GF(2): 2^(dim Z - dim B) classes
    assert brute_h2_order(z2z2, 2) == 8


@pytest.mark.parametrize("n,N", [(2, 2), (2, 4), (3, 3), (3, 6), (4, 2), (4, 4), (5, 5), (6, 4), (6, 6)])
def test_h2_cyclic_gcd(n, N):
    g = cyclic_group(n)
    got = h2(g, N).invariants
    d = int(np.gcd(n, N))
    assert got == ((d,) if d > 1 else ())
    # classical representatives sigma_a(g^i, g^j) = a * floor((i+j)/n) classify correctly
    H = h2(g, N)
    classes = set()
    for a in range(N):
        vals = np.array([[a * ((i + j) // n) for j in range(n)] for i in range(n)]) % N
        classes.add(H.class_of(Cochain2(g, N, vals)).coords)
    assert len(classes) == d


def test_h2_s3_z6(s3):
    """The mu_6 cohomology of S3 is Z2 (the Ext part); only over C* is it trivial."""
    assert h2(s3, 6).invariants == (2,)
    assert brute_h2_order(s3, 6) == 2
    assert h2_closed_field(s3).invariants == ()


def test_h2_counts_match_oracle():
    groups = {
        "z4": cyclic_group(4),
        "z2z2": direct_product(cyclic_group(2), cyclic_group(2)),
        "z6": cyclic_group(6),
        "s3": symmetric_group(3),
        "z8": cyclic_group(8),
        "z2z4": direct_product(cyclic_group(2), cyclic_group(4)),
    }
    for name, g in groups.items():
        for N in (2, 3, 4):
            got = 1
            for d in h2(g, N).invariants:
                got *= d
            assert got == brute_h2_order(g, N), (name, N)


def test_h2_closed_field_values(z2, z2z2, s4):
    assert h2_closed_field(z2).invariants == ()
    assert h2_closed_field(z2z2).invariants == (2,)
    assert h2_closed_field(s4).invariants == (2,)


def test_h2_closed_field_modulus_multiple_of_order(z2z2):
    # exp(Z2 x Z2) = 2 does not suffice; a multiple of |G| = 4 does
    with pytest.raises(ParseError):
        h2_closed_field(z2z2, modulus=2)
    assert h2_closed_field(z2z2, modulus=8).invariants == (2,)


def test_h2_closed_field_annihilation(q8, s4):
    for g in [q8, s4, direct_product(cyclic_group(2), symmetric_group(3))]:
        hc = h2_closed_field(g)
        for d in hc.invariants:
            assert g.order % d == 0
            assert group_exponent(g) % d == 0 or d % 2 == 0


def test_class_of_kills_exactly_coboundaries(z2z2):
    """Exhaustive over GF(2): all 512 normalized cochains on Z2 x Z2.

    dim B^2 = (|G|-1) - dim Hom(G, Z2) = 1, so there are exactly 2 distinct
    coboundaries and 2 * |H^2| = 16 cocycles.
    """
    import itertools

    H = h2(z2z2, 2)
    nonid = [1, 2, 3]
    cobs = set()
    for gvals in itertools.product(range(2), repeat=3):
        gamma = np.zeros(4, dtype=np.int64)
        gamma[1:] = gvals
        cobs.add(coboundary(z2z2, 2, gamma).values.tobytes())
    assert len(cobs) == 2
    n_cocycles = 0
    trivial_class = 0
    for bits in itertools.product(range(2), repeat=9):
        vals = np.zeros((4, 4), dtype=np.int64)
        for k, (i, j) in enumerate([(a, b) for a in nonid for b in nonid]):
            vals[i, j] = bits[k]
        c = Cochain2(z2z2, 2, vals)
        if not is_cocycle(c):
            with pytest.raises(NotCocycle):
                H.class_of(c)
            continue
        n_cocycles += 1
        cls = H.class_of(c)
        if cls.is_trivial():
            trivial_class += 1
            assert c.values.tobytes() in cobs
    assert trivial_class == len(cobs)
    assert n_cocycles == len(cobs) * 8  # |Z| = |B| * |H2|


def test_class_of_linear(s3):
    H = h2(s3, 6)
    reps = [H.rep_of_coords(c.coords) for c in H.all_classes()]
    for a in reps:
        for b in reps:
            s = Cochain2(s3, 6, a.values + b.values)
            assert H.class_of(s).coords == (H.class_of(a) + H.class_of(b)).coords


def test_rep_classes_are_unit_vectors(z4z4):
    H = h2(z4z4, 4)
    for k, rep in enumerate(H.reps):
        coords = H.class_of(rep).coords
        assert coords == tuple(1 if i == k else 0 for i in range(len(H.invariants)))


def test_h2_classical_values(q8):
    """Universal-coefficient and Schur-multiplier values from the literature."""
    z3z3 = direct_product(cyclic_group(3), cyclic_group(3))
    assert h2(z3z3, 9).invariants == (3, 3, 3)  # Ext(Z3^2, Z9) + Hom(Z3, Z9)
    assert h2_closed_field(z3z3).invariants == (3,)
    assert h2(cyclic_group(9), 27).invariants == (9,)
    assert h2_closed_field(q8).invariants == ()
    assert h2(q8, 2).invariants == (2, 2)
    a4 = close_generators([[1, 2, 0, 3], [0, 2, 3, 1]])
    assert a4.order == 12
    assert h2_closed_field(a4).invariants == (2,)


def test_h2_budget():
    from superbrauer import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        h2(symmetric_group(4), 2, budget=10)


def test_cochain_sparse_roundtrip(z2z2):
    from superbrauer import cochain_from_sparse

    H = h2(z2z2, 2)
    for rep in H.reps:
        doc = rep.to_sparse()
        back = cochain_from_sparse(z2z2, doc)
        assert back.equals(rep)


@pytest.mark.parametrize("doc", [
    {"modulus": 2, "entries": [[-1, -1, 1]]},
    {"modulus": 2, "entries": [[0, 2, 1]]},
    {"modulus": 0, "entries": [[1, 1, 1]]},
    {"modulus": 2, "entries": [[1, 1]]},
], ids=["negative-index", "index-past-order", "modulus-0", "two-element-entry"])
def test_cochain_from_sparse_rejects_malformed(z2, doc):
    from superbrauer import cochain_from_sparse

    with pytest.raises(ParseError):
        cochain_from_sparse(z2, doc)


def _dihedral(n):
    rot = [(i + 1) % n for i in range(n)]
    ref = [(-i) % n for i in range(n)]
    return close_generators([rot, ref])


_SMALL_GROUPS = {
    **{f"Z{n}": functools.partial(cyclic_group, n) for n in (2, 3, 4, 6, 8, 12)},
    "Z2xZ2": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
    "Z2xZ4": lambda: direct_product(cyclic_group(2), cyclic_group(4)),
    "Z4xZ4": lambda: direct_product(cyclic_group(4), cyclic_group(4)),
    "Z3xZ6": lambda: direct_product(cyclic_group(3), cyclic_group(6)),
    "Z2xZ2xZ8": lambda: direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(8)),
    **{f"D{n}": functools.partial(_dihedral, n) for n in (3, 4, 5, 8, 16)},
    "S3xZ2": lambda: direct_product(symmetric_group(3), cyclic_group(2)),
}


@functools.lru_cache(maxsize=None)
def _small_group(name):
    g = _SMALL_GROUPS[name]()
    assert g.order <= 32
    return g


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(_SMALL_GROUPS)),
    modulus=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**32 - 1),
    perturb=st.booleans(),
)
def test_is_cocycle_matches_all_triples_oracle(name, modulus, seed, perturb):
    """The generator-level check agrees with the all-triples check on H^2
    representatives plus coboundaries, with and without one perturbed entry."""
    g = _small_group(name)
    rng = np.random.default_rng(seed)
    H = h2(g, modulus)
    gamma = rng.integers(0, modulus, g.order)
    gamma[g.identity] = 0
    sigma = H.rep_of_coords(rng.integers(0, modulus, len(H.invariants))) + coboundary(g, modulus, gamma)
    if perturb:
        vals = sigma.values.copy()
        i, j = (int(x) for x in rng.choice([x for x in range(g.order) if x != g.identity], 2))
        vals[i, j] += int(rng.integers(1, modulus))
        sigma = sigma.copy_with(vals)
    assert is_cocycle(sigma) == all_triples_is_cocycle(sigma)
    if not perturb:
        assert is_cocycle(sigma)
    if all(g.commutator(a, b) == g.identity for a in g.gens for b in g.gens):
        alg = TwistedGroupAlgebra(g, Cochain2.zero(g, modulus), ALG_CLOSED)
        alg.sigma = sigma  # the constructor admits cocycles only; compare on any cochain
        assert alg.degrees_are_characters() == all_pairs_degrees_are_characters(sigma)


# every Sylow subgroup of these is cyclic, so the closed field solves no prime
_ALL_PRIMES_DEAD = ["Z3", "Z4", "Z6", "Z12", "D3", "D5", "Dic3"]
# groups of order <= 12
_SCHUR_GROUPS = {
    **{name: _SMALL_GROUPS[name] for name in ("Z2", "Z3", "Z4", "Z6", "Z8", "Z12", "Z2xZ2", "Z2xZ4")},
    "Z2xZ6": lambda: direct_product(cyclic_group(2), cyclic_group(6)),
    "Z3xZ3": lambda: direct_product(cyclic_group(3), cyclic_group(3)),
    "Z2xZ2xZ2": lambda: direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2)),
    **{f"D{n}": functools.partial(_dihedral, n) for n in (3, 4, 5, 6)},
    "S3xZ2": _SMALL_GROUPS["S3xZ2"],
    "A4": lambda: close_generators([[1, 2, 0, 3], [0, 2, 3, 1]]),
    "Q8": lambda: close_generators([
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
    ]),
    # Z3 x| Z4, the generator of Z4 inverting Z3
    "Dic3": lambda: close_generators([[1, 2, 0, 3, 4, 5, 6], [0, 2, 1, 4, 5, 6, 3]]),
}


@pytest.mark.parametrize("name", sorted(_SCHUR_GROUPS))
def test_closed_field_matches_brute_schur_multiplier(name):
    """|M(G)| = |H^2(G, Z_|G|)| / |G^ab| from the dense bar system, whether
    the cyclic-Sylow rule skips all, some or none of the primes of |G|."""
    g = _SCHUR_GROUPS[name]()
    assert g.order <= 12
    ab_order = int(np.prod(abelianization(g).cyclic_orders, dtype=np.int64))
    assert h2_closed_field(g).size == brute_h2_order(g, g.order) // ab_order


@pytest.mark.parametrize("name", _ALL_PRIMES_DEAD)
def test_class_of_checks_cocycles_when_every_prime_is_skipped(name):
    g = _SCHUR_GROUPS[name]()
    cg = h2_closed_field(g)
    assert cg.invariants == ()
    rng = np.random.default_rng(g.order)
    gamma = rng.integers(0, g.order, g.order)
    gamma[g.identity] = 0
    sigma = coboundary(g, g.order, gamma)
    assert cg.class_of(sigma).is_trivial()
    vals = sigma.values.copy()
    a, b = [x for x in range(g.order) if x != g.identity][:2]  # breaks the equation on (c, a, b), c != 1, a
    vals[a, b] += 1
    with pytest.raises(NotCocycle):
        cg.class_of(sigma.copy_with(vals))


def test_dead_primes_are_not_solved(monkeypatch):
    """Closed W(B3) (|G| = 48, exp 12) solves p = 2 only; 3 does not divide |W(B2)|."""
    solved = []
    kernel = cohomology._cocycle_kernel
    monkeypatch.setattr(cohomology, "_cocycle_kernel", lambda rows, p, e: solved.append(p) or kernel(rows, p, e))
    assert h2_closed_field(build_weyl(RootSystemType.parse("B3")).group).invariants == (2, 2)
    assert solved == [2]
    solved.clear()
    assert h2(build_weyl(RootSystemType.parse("B2")).group, 3).invariants == ()
    assert solved == []


def test_large_modulus_is_not_factored(monkeypatch):
    """Only the primes of |G| are solved, so v_p(N) is read for those and
    N = 4 P, P the first prime above 2^59, is never factored (trial division
    of N took minutes)."""
    P = 2**59 + 131
    calls = []

    def factors(n):
        assert n != 4 * P, "prime_power_factors called on the coefficient modulus"
        calls.append(n)
        return prime_power_factors(n)

    for module in (modlinalg, groups, cohomology):
        monkeypatch.setattr(module, "prime_power_factors", factors)
    g = direct_product(cyclic_group(2), cyclic_group(4))
    assert h2(g, 4 * P).invariants == (4, 2, 2)
    assert calls


_FRONTIER_GROUPS = {
    "Z2xZ4": _SMALL_GROUPS["Z2xZ4"],
    "S4": functools.partial(symmetric_group, 4),
    "Z7": functools.partial(cyclic_group, 7),
    **{f"W({t})": (lambda t=t: build_weyl(RootSystemType.parse(t)).group) for t in ("A1", "A2", "B2", "G2", "B3")},
    **{f"G({t})": (lambda t=t: group_datum(RootSystemType.parse(t)).group) for t in ("A3", "D4")},
}


def _same_span(a, b, p, e):
    return solve_mod(a, b, p, e) is not None and solve_mod(b, a, p, e) is not None


def _gauge_fixed_columns(g, unknowns, frontier):
    """Gauge-fixed unknowns of the frontier vectors in the columns of
    `frontier` (T(x, s_k) at row (x_pos |S| + k), x != 1), as columns; the
    gauge-fixed labels must vanish on every edge that is not an unknown."""
    k = frontier.shape[1]
    nonid = [x for x in range(g.order) if x != g.identity]
    labels = np.zeros((k, g.order, len(g.gens)), dtype=np.int64)
    labels[:, nonid, :] = frontier.T.reshape(k, len(nonid), len(g.gens))
    fixed = gauge_fixed(g, labels).reshape(k, g.order * len(g.gens))
    assert not np.delete(fixed, unknowns, axis=1).any()
    return fixed[:, unknowns].T


def _labels_of(g, unknowns, labels, p, e):
    """The unknowns of the labels (n |S| x k) over Z_{p^e}; the labels must
    vanish on every edge that is not an unknown."""
    labels = labels % p**e
    assert not np.delete(labels, unknowns, axis=0).any()
    return labels[unknowns]


def _assert_kernels_agree(g, cases):
    """L K, the labels of the central-value kernel K, span the gauge-fixed
    kernel of every frontier equation."""
    sys, coo, unknowns = cohomology._presentation(g), coo_frontier_system(g), presentation_unknowns(g)
    for p, e in cases:
        L, C = sys.system(p**e)
        got = _labels_of(g, unknowns, L @ cohomology._cocycle_kernel(C, p, e), p, e)
        want = _gauge_fixed_columns(g, unknowns, coo_cocycle_kernel(coo, p, e))
        assert _same_span(got, want, p, e), (p, e)


@pytest.mark.parametrize("name", list(_FRONTIER_GROUPS))
def test_cocycle_kernel_matches_stored_system(name):
    """The labels of the central-value kernel span the gauge-fixed kernel of
    every frontier equation, for every prime power of |G|, and mod 2^25 on
    Z2 x Z4."""
    g = _FRONTIER_GROUPS[name]()
    _assert_kernels_agree(g, prime_power_factors(g.order) + ([(2, 25)] if name == "Z2xZ4" else []))


@pytest.mark.parametrize("name", list(_FRONTIER_GROUPS) + ["Z1"])
def test_relation_rows_match_term_by_term(name):
    """The labels L [A | A phi(S) / N] of the coboundaries' central values
    span the gauge-fixed coboundaries d(gamma_y) and carries delta(phi) built
    term by term, for moduli |G|, 2|G| and 12."""
    g = cyclic_group(1) if name == "Z1" else _FRONTIER_GROUPS[name]()
    sys, coo, unknowns = cohomology._presentation(g), coo_frontier_system(g), presentation_unknowns(g)
    d = coboundary_rows(g, coo)
    for N in (g.order, 2 * g.order, 12):
        closed = np.vstack([d, delta_rows(g, abelianization(g), coo, N)])
        for mode, frontier in (("muN", d), ("closed", closed)):
            want = _gauge_fixed_columns(g, unknowns, frontier.T)
            Z = cohomology._coboundary_values(sys, mode, N)
            for p, e in prime_power_factors(N):
                got = _labels_of(g, unknowns, sys.system(p**e)[0] @ (Z % p**e), p, e)
                assert _same_span(got, want, p, e), (mode, N, p)


@pytest.mark.parametrize("name", ["Z2xZ4", "W(B3)", "G(A3)"])
def test_unfilled_edge_gives_false_cocycles(name):
    """The Schreier completion adds a relator only for an edge that the
    earlier ones leave unfilled.  Without the last relator they need not
    present G, and here the kernel of the f-column relator rows holds
    columns that are no cocycle; the completed presentation's kernel holds
    none."""
    g = _FRONTIER_GROUPS[name]()
    sys, unknowns = cohomology._presentation(g), presentation_unknowns(g)
    for relators, all_cocycles in ((sys.relators[:-1], False), (sys.relators, True)):
        for p, e in prime_power_factors(g.order):
            K = f_column_kernel(relator_rows(g, unknowns, relators), p, e)
            labels = np.zeros((K.shape[1], g.order * len(g.gens)), dtype=np.int64)
            labels[:, unknowns] = K.T
            columns = [Cochain2(g, p**e, sys.reconstruct(lab, p**e)) for lab in labels]
            assert all(is_cocycle(c) for c in columns) == all_cocycles, (p, len(relators))


@pytest.mark.parametrize("name", list(_FRONTIER_GROUPS))
def test_labels_are_linear_in_central_values(name):
    """T = L z: the gauge-fixed labels of a cocycle are L applied to its
    central values z, and a coboundary shifts z by A gamma(S) and leaves the
    class alone."""
    g = _FRONTIER_GROUPS[name]()
    sys, unknowns = cohomology._presentation(g), presentation_unknowns(g)
    rng = np.random.default_rng(g.order)
    for N in (g.order, 12):
        H, L = h2(g, N), sys.system(N)[0]
        A = cohomology._coboundary_values(sys, "muN", N)
        sigma = H.rep_of_coords(rng.integers(0, N, len(H.invariants)))
        labels = np.zeros(g.order * len(g.gens), dtype=np.int64)
        labels[unknowns] = gauge_fix(g, unknowns, sigma.values[:, list(g.gens)])
        z = sys.central_values(labels) % N
        assert ((L @ z - labels) % N == 0).all()
        gamma = rng.integers(0, N, g.order)
        gamma[g.identity] = 0
        shifted = sigma + coboundary(g, N, gamma)
        z_shifted, z_sigma = (sys.central_values(c.values[:, list(g.gens)].ravel()) for c in (shifted, sigma))
        assert ((z_shifted - z_sigma - A @ gamma[list(g.gens)]) % N == 0).all()
        assert H.class_of(shifted) == H.class_of(sigma)


def _points(cycles):
    """A permutation of range(sum of lengths) with one rotation per cycle."""
    out, lo = [], 0
    for size, step in cycles:
        out += [lo + (i + step) % size for i in range(size)]
        lo += size
    return out


@st.composite
def _random_groups(draw):
    """Cyclic products, dihedral groups and groups on up to 5 points, each
    closed from 1-3 random elements, some redundant: a product or a power
    of the earlier ones."""
    family = draw(st.sampled_from(["cyclic", "dihedral", "points"]))
    if family == "cyclic":
        sizes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
        elements = st.tuples(*(st.integers(0, d - 1) for d in sizes)).map(lambda exps: _points(zip(sizes, exps)))
    elif family == "dihedral":
        n = draw(st.integers(3, 8))
        elements = st.tuples(st.integers(0, n - 1), st.booleans()).map(
            lambda t: [(t[0] + (-i if t[1] else i)) % n for i in range(n)])
    else:
        elements = st.permutations(range(draw(st.integers(2, 5)))).map(list)
    gens = draw(st.lists(elements, min_size=1, max_size=3))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        gens.append([a[i] for i in b])
    return close_generators(gens)


@settings(max_examples=100, deadline=None)
@given(g=_random_groups(), q=st.sampled_from([2, 3, 4, 6]))
def test_presentation_h2_on_random_groups(g, q):
    """|H^2(G, Z_q)| equals the dense bar-complex count for |G| <= 12, and
    the relator kernel spans the frontier kernel for |G| <= 48."""
    assume(g.order <= 48)
    if g.order <= 12:
        assert h2(g, q).size == brute_h2_order(g, q)
    _assert_kernels_agree(g, prime_power_factors(g.order))


def test_derived_structures_are_built_once():
    """Every structure derived from a group is built on the first call and
    shared by the later ones."""
    g = direct_product(cyclic_group(2), symmetric_group(3))
    inv = CentralInvolution(g, symmetric_group(3).order)  # u = (1, e)
    for build in (lambda: quotient_by_central_involution(inv), lambda: abelianization(g),
                  lambda: cohomology._presentation(g), lambda: h2(g, 4), lambda: h2_closed_field(g),
                  lambda: cohomology.u_subgroup(inv)):
        assert build() is build()


def test_u_subgroup_maps_its_identity_to_the_identity(z4_shifted):
    """On a table group whose identity is not element 0, element 0 of U is
    still the identity, and the nonzero class of H^2(Z4, Z2) (the extension
    Z8) restricts to the nonzero class of H^2(U, Z2)."""
    inv = CentralInvolution(z4_shifted, 3)
    ugroup, embed = cohomology.u_subgroup(inv)
    assert ugroup.identity == 0 and embed.tolist() == [z4_shifted.identity, 3]
    cls = next(c for c in h2(z4_shifted, 2).all_classes() if not c.is_trivial())
    assert not restriction(inv, cls).is_trivial()
