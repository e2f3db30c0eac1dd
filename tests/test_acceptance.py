"""Acceptance criteria, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Timings are measured on
fresh group instances so no cache from other test modules helps them.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from superbrauer import (
    ALG_CLOSED,
    REAL_CLOSED,
    CentralInvolution,
    Cochain2,
    Representation,
    RootSystemType,
    bm_group,
    build_en,
    build_supergroup,
    close_generators,
    coboundary,
    cyclic_group,
    direct_product,
    h2,
    h2_closed_field,
    h2_sharp,
    invariant_symmetric_forms,
    is_lazy,
    is_left_cocycle,
    lambda_cocycle,
    omega_sigma,
    quotient_by_central_involution,
    r_matrix_RA,
    sharp,
    sharp_inverse,
    splitting_character,
    symmetric_group,
    table_row,
    theta,
    verify_hopf,
    verify_triangular,
)
from superbrauer.groups import GroupCharacter
from superbrauer.weyl import literature_bm, literature_h2l, reflection_matrices

from .oracles import inflation, representative, restriction, table_order, transgression, u_subgroup


@contextmanager
def criterion(num: int, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {desc} ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"PASS criterion {num}: {desc} ({time.perf_counter() - t0:.1f}s)")


def _fresh_weyl_group(name: str):
    return close_generators(reflection_matrices(RootSystemType.parse(name)))


def _fresh_quotient(name: str):
    g = _fresh_weyl_group(name)
    dim = RootSystemType.parse(name).rank
    minus = tuple(tuple(-1 if i == j else 0 for j in range(dim)) for i in range(dim))
    u = next(i for i in range(g.order) if g.element_data[i] == minus)
    return quotient_by_central_involution(CentralInvolution(g, u)).quotient


def test_criterion_1_schur_multipliers():
    with criterion(1, "Schur multipliers match the paper's list"):
        fast_cases = [
            (symmetric_group(3), (), 60.0, "S3"),
            (symmetric_group(4), (2,), 60.0, "S4"),
            (_fresh_weyl_group("B2"), (2,), 60.0, "W(B2)"),
            (_fresh_weyl_group("G2"), (2,), 60.0, "W(G2)"),
            (_fresh_weyl_group("B3"), (2, 2), 60.0, "W(B3)"),
            (_fresh_weyl_group("D4"), (2, 2, 2), 600.0, "W(D4)"),
        ]
        for g, want, limit, label in fast_cases:
            t0 = time.perf_counter()
            got = h2_closed_field(g).invariants
            dt = time.perf_counter() - t0
            assert got == want, (label, got, want)
            assert dt < limit, (label, dt, limit)


def test_criterion_2_quotient_cohomology():
    with criterion(2, "quotient cohomology H^2(W/U) matches the paper"):
        t0 = time.perf_counter()
        cases = [("B2", (2,)), ("D4", (2, 2, 2)), ("B3", (2,)), ("G2", ())]
        for name, want in cases:
            q = _fresh_quotient(name)
            got = h2_closed_field(q).invariants
            assert got == want, (name, got, want)
        assert time.perf_counter() - t0 < 600.0


# computed-mode expected rows; the A2/A3 BM entries follow the paper's own
# split-case theorem BM = Z2 x H^2(G(Phi)) x C with H^2(G(Phi)) = H^2(W) x Z2
# (the final printed display drops that Z2 factor; see the decisions ledger)
EXPECTED_ROWS = {
    "A1": ((), (2,)),
    "A2": ((), (2, 2)),
    "A3": ((2,), (2, 2, 2)),
    "B2": ((2,), (2,)),
    "B3": ((2,), (2, 2, 2)),
    "D4": ((2, 2, 2), (2, 2, 2)),
    "G2": ((), (2, 2)),
}


def test_criterion_3_final_tables_computed():
    with criterion(3, "final tables reproduced in computed mode for the seven types"):
        for name, (h2l, bm) in EXPECTED_ROWS.items():
            row = table_row(RootSystemType.parse(name))
            assert row.mode == "computed", name
            assert row.h2l_invariants == h2l, (name, row.h2l_invariants, h2l)
            assert row.bm_invariants == bm, (name, row.bm_invariants, bm)
            assert row.h2l_linear_dim == 1 and row.bm_linear_dim == 1, name


def test_criterion_4_invariant_form_dimension():
    with criterion(4, "dim S^2(V*)^W = 1 for every constructed standard representation"):
        from superbrauer import group_datum

        for name in EXPECTED_ROWS:
            datum = group_datum(RootSystemType.parse(name))
            assert invariant_symmetric_forms(datum.rep).dim == 1, name


def test_criterion_5_example_2_2():
    with criterion(5, "Example 2.2 end to end over both descriptors"):
        t0 = time.perf_counter()
        g = direct_product(cyclic_group(2), cyclic_group(2))
        inv = CentralInvolution(g, 2)  # u = x
        # closed: H^2_sharp = H^2 = Z2
        assert h2_closed_field(g).invariants == (2,)
        assert h2_sharp(g, inv, ALG_CLOSED).invariants == (2,)
        # real: H^2 = Z2^3 but H^2_sharp has an element of order 4
        H = h2(g, 2)
        assert H.invariants == (2, 2, 2)
        hs = h2_sharp(g, inv, REAL_CLOSED)
        assert hs.invariants == (4, 2)
        lam = Cochain2(g, 2, np.array([[(i // 2) * (j % 2) for j in range(4)] for i in range(4)]))
        om = Cochain2(g, 2, np.array([[(i % 2) * (j % 2) for j in range(4)] for i in range(4)]))
        sq = H.class_of(sharp(lam, lam, inv))
        assert sq == H.class_of(om) and not sq.is_trivial()
        # the full real structure (4, 2) is confirmed by enumeration inside h2_sharp
        assert time.perf_counter() - t0 < 1.0


def test_criterion_6_bw_real_z8():
    with criterion(6, "BM(real, k[Z2], R_u) is cyclic of order 8 generated by [C(1)]"):
        t0 = time.perf_counter()
        z2 = cyclic_group(2)
        bm = bm_group(z2, CentralInvolution(z2, 1), REAL_CLOSED)
        assert bm.order == 8 and bm.invariants == (8,)
        c1 = 1  # row (b |H^2| + class) 2 + parity of (0, zero class, 1)
        assert table_order(bm.table, c1, 0) == 8
        assert time.perf_counter() - t0 < 1.0


def _small_sharp_cases():
    z2z2 = direct_product(cyclic_group(2), cyclic_group(2))
    z4 = cyclic_group(4)
    z2z4 = direct_product(cyclic_group(2), cyclic_group(4))
    return [(z2z2, 2), (z4, 2), (z2z4, 4), (z2z4, 2)]


def test_criterion_7a_sharp_group_axioms():
    with criterion(7, "(a) sharp group axioms and class descent, |G| <= 8"):
        for g, u in _small_sharp_cases():
            inv = CentralInvolution(g, u)
            for field in (REAL_CLOSED, ALG_CLOSED):
                hs = h2_sharp(g, inv, field)
                table, classes = hs.table, hs.classes
                m = len(classes)
                ident = next(i for i, c in enumerate(classes) if c.is_trivial())
                assert (table[ident, :] == np.arange(m)).all() and (table == table.T).all()
                for a in range(m):
                    assert (table[table[a, :], :] == table[a, table]).all()
                    j = hs.index_of(hs.cohomology.class_of(sharp_inverse(representative(classes[a]), inv)))
                    assert table[a, j] == ident
            # class descent: coboundary shifts change nothing
            H = hs.cohomology
            n = H.coeff.n
            rng = np.random.default_rng(1)
            for c in classes[: min(4, m)]:
                gamma = rng.integers(0, n, g.order).astype(np.int64)
                gamma[g.identity] = 0
                shifted = representative(c) + coboundary(g, n, gamma)
                assert (theta(shifted, inv).degree == theta(representative(c), inv).degree).all()
                assert H.class_of(sharp(shifted, shifted, inv)) == H.class_of(
                    sharp(representative(c), representative(c), inv)
                )


def test_criterion_7b_hochschild_serre():
    with criterion(7, "(b) ker(Infl) = im(T) and Infl-then-res triviality"):
        qi = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        qj = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
        q8 = close_generators([qi, qj])
        q8_minus = next(
            x for x in range(8)
            if q8.element_data[x] == tuple(tuple(-1 if a == b else 0 for b in range(4)) for a in range(4))
        )
        cases = _small_sharp_cases() + [
            (cyclic_group(8), 4),
            (direct_product(cyclic_group(4), cyclic_group(4)), 8),
            (direct_product(cyclic_group(2), symmetric_group(3)), 6),
            (q8, q8_minus),
            (_fresh_weyl_group("B2"), None),  # u located below
        ]
        for g, u in cases:
            if u is None:
                dim = 2
                minus = tuple(tuple(-1 if a == b else 0 for b in range(dim)) for a in range(dim))
                u = next(x for x in range(g.order) if g.element_data[x] == minus)
            inv = CentralInvolution(g, u)
            qd = quotient_by_central_involution(inv)
            for mode in (2, 4, "closed"):
                if mode == "closed":
                    q = qd.quotient
                    n = q.order if q.order % 2 == 0 else 2 * q.order
                    HQ = h2_closed_field(q, modulus=n)
                    HG = h2_closed_field(g)
                else:
                    n = mode
                    HQ = h2(qd.quotient, n)
                    HG = h2(g, n)
                ug, _ = u_subgroup(inv)
                HU = None if mode == "closed" else h2(ug, n)
                image = set()
                for val in (0, n // 2):
                    f = GroupCharacter(group=ug, target_order=n, values=np.array([0, val]))
                    image.add(transgression(f, qd, HQ).coords)
                kernel = set()
                for c in HQ.all_classes():
                    infl = inflation(qd, c, HG)
                    if infl.is_trivial():
                        kernel.add(c.coords)
                    res = restriction(inv, infl, HU) if HU is not None else restriction(inv, infl)
                    assert res.is_trivial()
                assert kernel == image, (g.order, u, mode)


def test_criterion_7c_closed_sharp_coincides():
    with criterion(7, "(c) H^2_sharp = H^2 invariants over the closed descriptor"):
        for g, u in _small_sharp_cases() + [(direct_product(cyclic_group(2), symmetric_group(3)), 6)]:
            inv = CentralInvolution(g, u)
            assert h2_sharp(g, inv, ALG_CLOSED).invariants == h2_closed_field(g).invariants


def test_criterion_7d_coincide_cases():
    with criterion(7, "(d) coincide cases 2-3 on Z4xZ4 and Z2xZ4 over the real descriptor"):
        z4z4 = direct_product(cyclic_group(4), cyclic_group(4))
        inv = CentralInvolution(z4z4, 2 * 4)
        assert h2_sharp(z4z4, inv, REAL_CLOSED).invariants == h2(z4z4, 2).invariants
        z2z4 = direct_product(cyclic_group(2), cyclic_group(4))
        inv = CentralInvolution(z2z4, 2)
        assert h2_sharp(z2z4, inv, REAL_CLOSED).invariants == h2(z2z4, 2).invariants
        # contrast: the key example where they differ
        z2z2 = direct_product(cyclic_group(2), cyclic_group(2))
        inv = CentralInvolution(z2z2, 2)
        assert h2_sharp(z2z2, inv, REAL_CLOSED).invariants != h2(z2z2, 2).invariants


def test_criterion_7e_order_identity():
    with criterion(7, "(e) |BM| = |Br| * |H^2_sharp| * 2^split"):
        cases = _small_sharp_cases() + [
            (cyclic_group(2), 1),
            (direct_product(cyclic_group(2), symmetric_group(3)), 6),
        ]
        for g, u in cases:
            inv = CentralInvolution(g, u)
            for field in (ALG_CLOSED, REAL_CLOSED):
                bm = bm_group(g, inv, field)
                hs = h2_sharp(g, inv, field)
                split = splitting_character(inv) is not None
                assert bm.order == field.brauer_order * hs.size * (2 if split else 1)


def test_criterion_8_hopf_r_matrix_suite():
    with criterion(8, "Hopf and R-matrix verification suite"):
        t0 = time.perf_counter()
        from superbrauer import group_datum

        # Hopf axioms for H(Phi) with dim <= 64, for W(B3) (dim 384, exhaustive
        # above the dim budget too) and for E(n), n <= 4
        for name in ("A1", "A2", "B2", "G2", "B3"):
            datum = group_datum(RootSystemType.parse(name))
            alg = build_supergroup(datum.group, datum.inv, datum.rep)
            assert alg.dim <= 64 or (name, alg.dim) == ("B3", 384)
            rep = verify_hopf(alg)
            assert rep.passed and not rep.sampled, name
        for n in (1, 2, 3, 4):
            assert verify_hopf(build_en(n)).passed
        # triangularity of R_A for n <= 3 over 21 seeded random symmetric A
        rng = random.Random(2026)
        checked = 0
        for n in (1, 2, 3):
            alg = build_en(n)
            for _ in range(7):
                A = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
                for i in range(n):
                    for j in range(i):
                        A[i][j] = A[j][i]
                assert verify_triangular(alg, r_matrix_RA(A, alg)).passed
                checked += 1
        assert checked >= 20
        # omega_Sigma lazy-cocycle checks exhaustive for n <= 3
        for n in (1, 2, 3):
            alg = build_en(n)
            S = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    S[i][j] = S[j][i]
            om = omega_sigma(S, alg)
            r1, r2 = is_left_cocycle(om), is_lazy(om)
            assert r1.passed and r2.passed and not r1.sampled
        # exhaustive lambda check on (W(B2) signed permutations, Sigma = I), dim 32
        g = close_generators([[[0, 1], [1, 0]], [[1, 0], [0, -1]]])
        minus = tuple(tuple(-1 if i == j else 0 for j in range(2)) for i in range(2))
        u = next(i for i in range(g.order) if g.element_data[i] == minus)
        inv = CentralInvolution(g, u)
        rmats = [tuple(tuple(Fraction(x) for x in row) for row in g.element_data[s]) for s in g.gens]
        alg = build_supergroup(g, inv, Representation(group=g, dim=2, gen_matrices=rmats))
        assert alg.dim == 32
        lam = lambda_cocycle(alg, [[1, 0], [0, 1]])
        r1, r2 = is_left_cocycle(lam), is_lazy(lam)
        assert r1.passed and r2.passed and not r1.sampled
        # perturbation off the invariant space is detected
        bad = lambda_cocycle(alg, [[1, 0], [0, 2]], require_invariant=False)
        rbad = is_left_cocycle(bad)
        assert not rbad.passed and rbad.counterexample is not None
        assert time.perf_counter() - t0 < 300.0


def test_criterion_9_literature_rows():
    with criterion(9, "F4/E6/E7/E8 rows in literature mode match the printed tables"):
        printed = {
            "F4": ((2, 2), (2, 2)),
            "E6": ((2,), (2, 2)),
            "E7": ((2,), (2, 2)),
            "E8": ((2,), (2,)),
        }
        for name, (h2l, bm) in printed.items():
            t = RootSystemType.parse(name)
            row = table_row(t)
            assert row.mode == "literature", name
            assert row.h2l_invariants == h2l == literature_h2l(t), name
            assert row.bm_invariants == bm == literature_bm(t), name
            assert row.h2l_linear_dim == row.bm_linear_dim == 1
