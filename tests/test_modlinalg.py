"""Randomized exactness checks for the Z_{p^e} linear algebra core."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superbrauer import RootSystemType, build_weyl, cohomology, cyclic_group, direct_product, group_datum
from superbrauer.modlinalg import (
    cokernel_mod,
    crt,
    direct_sum,
    kernel_from_snf,
    kernel_mod,
    prime_power_factors,
    snf_mod,
    solve_from_snf,
)

from .oracles import coo_frontier_system, count_image_mod, dense_snf_mod, gf_rank


def test_prime_power_factors():
    assert prime_power_factors(1) == []
    assert prime_power_factors(192) == [(2, 6), (3, 1)]
    assert prime_power_factors(360) == [(2, 3), (3, 2), (5, 1)]


@pytest.mark.parametrize("p,e", [(2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (5, 1)])
def test_snf_transforms_random(p, e):
    q = p**e
    rng = np.random.default_rng(p * 100 + e)
    for _ in range(25):
        rows, cols = rng.integers(1, 13, 2)
        M = rng.integers(0, q, (rows, cols)).astype(np.int64)
        snf = snf_mod(M, p, e, want_l=True, want_linv=True, want_r=True)
        D = np.zeros((rows, cols), dtype=np.int64)
        for i, a in enumerate(snf.diag):
            D[i, i] = p**a % q
        assert ((snf.L @ M @ snf.R) % q == D % q).all()
        assert ((snf.L @ snf.Linv) % q == np.eye(rows, dtype=np.int64)).all()


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 1)])
def test_kernel_complete_small(p, e):
    q = p**e
    rng = np.random.default_rng(11 * p + e)
    for _ in range(20):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        M = rng.integers(0, q, (rows, cols)).astype(np.int64)
        K = kernel_mod(M, p, e)
        assert ((M @ K) % q == 0).all()
        brute = {
            v
            for v in itertools.product(range(q), repeat=cols)
            if not ((M @ np.array(v, dtype=np.int64)) % q).any()
        }
        span = set()
        kk = K.shape[1]
        for coef in itertools.product(range(q), repeat=kk):
            vec = (K @ np.array(coef, dtype=np.int64)) % q if kk else np.zeros(cols, dtype=np.int64)
            span.add(tuple(int(x) for x in vec))
        assert span == brute


def test_solve_consistency():
    rng = np.random.default_rng(5)
    for p, e in [(2, 4), (3, 2)]:
        q = p**e
        for _ in range(20):
            rows, cols = rng.integers(1, 10, 2)
            M = rng.integers(0, q, (rows, cols)).astype(np.int64)
            X = rng.integers(0, q, (cols, 3)).astype(np.int64)
            B = (M @ X) % q
            S = solve_from_snf(snf_mod(M, p, e, want_l=True, want_r=True), B)
            assert S is not None
            assert ((M @ S) % q == B).all()


def test_solve_detects_unsolvable():
    # x * 2 = 1 has no solution mod 4
    M = np.array([[2]], dtype=np.int64)
    assert solve_from_snf(snf_mod(M, 2, 2, want_l=True, want_r=True), np.array([1])) is None


def test_cokernel_invariants():
    # Z_8^2 / <(2,0), (0,1)> = Z_2
    ck = cokernel_mod(np.array([[2, 0], [0, 1]]).T, 2, 3)
    assert sorted(ck.orders) == [2]
    assert tuple(ck.class_coords(np.array([2, 0]))) == (0,)
    # Z_8^2 / <(4,0), (0,1)> = Z_4 and the generator has order 4
    ck = cokernel_mod(np.array([[4, 0], [0, 1]]).T, 2, 3)
    assert sorted(ck.orders) == [4]
    assert tuple(ck.class_coords(np.array([4, 0]))) == (0,)
    gen = ck.Linv[:, 0]
    seen = {tuple(ck.class_coords((k * gen) % 8)) for k in range(4)}
    assert len(seen) == 4


def test_cokernel_factors_largest_first():
    """Z_8^3 / <(0,4,0), (2,0,0)> = Z_8 + Z_4 + Z_2, listed largest first,
    with class_coords of a row matrix equal to those of each row."""
    ck = cokernel_mod(np.array([[0, 4, 0], [2, 0, 0]]).T, 2, 3)
    assert ck.orders == (8, 4, 2)
    xs = np.random.default_rng(3).integers(0, 8, (20, 3))
    assert np.array_equal(ck.class_coords(xs), np.array([ck.class_coords(x) for x in xs]))
    assert np.array_equal(ck.class_coords(ck.Linv.T), np.eye(3, dtype=np.int64))


def test_empty_column_matrix():
    """An f x 0 matrix has no pivots: its kernel is 0, M X = B is solvable
    exactly for B = 0, and its cokernel is all of Z_q^f."""
    M = np.zeros((3, 0), dtype=np.int64)
    snf = snf_mod(M, 2, 2, want_l=True, want_r=True)
    assert snf.diag == []
    assert kernel_from_snf(snf).shape == (0, 0)
    assert solve_from_snf(snf, np.zeros((3, 2), dtype=np.int64)).shape == (0, 2)
    assert solve_from_snf(snf, np.array([0, 1, 0])) is None
    ck = cokernel_mod(M, 2, 2)
    assert ck.orders == (4, 4, 4)
    assert tuple(ck.class_coords(np.array([1, 2, 7]))) == (1, 2, 3)
    # a (0, b) system, as the cocycle kernel of a group without cocycles gives
    ck = cokernel_mod(np.zeros((0, 2), dtype=np.int64), 3, 1)
    assert ck.orders == () and ck.class_coords(np.zeros(0, dtype=np.int64)).shape == (0,)


def test_crt_and_direct_sum():
    assert crt([1, 2], [4, 3]) == 5
    assert crt([np.array([3, 0]), 0], [4, 1]).tolist() == [3, 0]
    # Z_4 + Z_2 (2-part) plus Z_3 (3-part) is Z_12 + Z_2
    orders, coords = direct_sum([((4, 2), np.array([[1, 1], [2, 0]])), ((3,), np.array([[2], [0]]))])
    assert orders == (12, 2)
    assert [c.tolist() for c in coords] == [[5, 6], [1, 0]]
    assert direct_sum([((), np.zeros((5, 0)))]) == ((), [])


def _assert_same_snf(M, p, e):
    flags = dict(want_l=True, want_linv=True, want_r=True)
    got, want = snf_mod(M, p, e, **flags), dense_snf_mod(M, p, e, **flags)
    assert got.diag == want.diag
    for name in ("L", "Linv", "R"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@st.composite
def _matrices_mod_prime_power(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    e = draw(st.integers(1, 4))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    density = draw(st.floats(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.integers(0, p**e, (rows, cols)) * (rng.random((rows, cols)) < density)
    # rows scaled by p^k can leave a column without units, so the any-unit and
    # minimal-valuation pivot searches run too
    return (M * p ** rng.integers(0, e + 1, (rows, 1))) % p**e, p, e


@settings(max_examples=300, deadline=None)
@given(_matrices_mod_prime_power())
def test_snf_mod_matches_dense_oracle(case):
    """The sparse pivot updates give the dense elimination's diag, L, Linv, R."""
    _assert_same_snf(*case)


def test_snf_mod_matches_dense_oracle_on_zero_and_frontier_sample():
    _assert_same_snf(np.zeros((7, 5), dtype=np.int64), 2, 3)
    # a strided sample of the W(B3) frontier equations, over Z_16
    sys = coo_frontier_system(build_weyl(RootSystemType.parse("B3")).group)
    picks = np.arange(0, sys.eq_count, sys.eq_count // max(3 * sys.fprime, 512))
    keep = np.isin(sys.eq_rows, picks)
    M = np.zeros((len(picks), sys.fprime), dtype=np.int64)
    np.add.at(M, (np.searchsorted(picks, sys.eq_rows[keep]), sys.eq_cols[keep]), sys.eq_vals[keep])
    assert np.count_nonzero(M % 16) < M.size // 10
    _assert_same_snf(M % 16, 2, 4)


def test_gf_rank_matches_the_image_order():
    """|image of M mod p| = p^rank, the image order from the integer SNF."""
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        for _ in range(40):
            M = rng.integers(0, p, tuple(rng.integers(1, 8, 2))) * (rng.random() < 0.9)
            assert p ** gf_rank(M, p) == count_image_mod(M, p)


_CERTIFIED_GROUPS = {
    "Z2xZ4": lambda: direct_product(cyclic_group(2), cyclic_group(4)),
    "G(A3)": lambda: group_datum(RootSystemType.parse("A3")).group,
    "W(B3)": lambda: build_weyl(RootSystemType.parse("B3")).group,
    "G(D4)": lambda: group_datum(RootSystemType.parse("D4")).group,
}


@pytest.mark.parametrize("name", list(_CERTIFIED_GROUPS))
def test_snf_certifies_the_cocycle_module(name):
    """On the frontier rows C of each q = p^e || |G|: L C R = D mod q with L
    and R of full rank mod p, C K = 0 for K = kernel_mod(C), and the span of
    K has the order of ker D, prod p^a_i q^(cols - rank).  So span K = ker C,
    whatever the pivot code did."""
    g = _CERTIFIED_GROUPS[name]()
    for p, e in prime_power_factors(g.order):
        q = p**e
        C = cohomology._presentation(g).system(q)[1]
        rows, cols = C.shape
        snf = snf_mod(C, p, e, want_l=True, want_r=True)
        D = np.zeros((rows, cols), dtype=np.int64)
        D[range(len(snf.diag)), range(len(snf.diag))] = [p**a % q for a in snf.diag]
        assert (((snf.L @ C) % q @ snf.R) % q == D).all()
        assert gf_rank(snf.L, p) == rows and gf_rank(snf.R, p) == cols
        K = kernel_mod(C, p, e)
        assert not ((C @ K) % q).any()
        order = q ** (cols - len(snf.diag)) * math.prod(p**a for a in snf.diag)
        assert count_image_mod(K.T, q) == order
