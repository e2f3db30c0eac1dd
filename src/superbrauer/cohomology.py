"""Second group cohomology H^2(G, Z_N) from the normalized bar complex.

A normalized 2-cocycle is determined by its values on G x S for any
generating set S: peeling the last generator off the second argument gives

    sigma(g, h s) = sigma(g, h) + sigma(g h, s) - sigma(h, s)

so sigma(g, h) expands along the BFS word of h into a signed sum of the
unknowns T(x, s) = sigma(x, s).  The d(d sigma) = 0 pentagon identity shows
that imposing the cocycle equation for all (g, h, s) with s in S forces it
for every triple, which keeps the bar-complex system at |G| * |S| unknowns.
Each prime power of N is solved by exact Z_{p^e} elimination and the pieces
are recombined by CRT.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, NotCocycle, ParseError
from .groups import (
    AbelianInvariants,
    CentralInvolution,
    FiniteGroup,
    GroupCharacter,
    QuotientData,
    abelianization,
    cyclic_group,
)
from .modlinalg import (
    SnfMod,
    cokernel_mod,
    inverse_mod,
    kernel_from_snf,
    kernel_mod,
    prime_power_factors,
    snf_mod,
    solve_from_snf,
)

DEFAULT_H2_BUDGET = 150_000


@dataclass(frozen=True)
class CoefficientModule:
    """Trivial coefficients Z_N, written additively (Z_N = mu_N)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParseError("coefficient modulus must be positive")


@dataclass(eq=False)
class Cochain2:
    """Normalized 2-cochain on G with values in Z_N."""

    group: FiniteGroup
    modulus: int
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.int64) % self.modulus
        e = self.group.identity
        if v[e, :].any() or v[:, e].any():
            raise ParseError("cochain is not normalized")
        self.values = v

    @classmethod
    def zero(cls, group: FiniteGroup, modulus: int) -> "Cochain2":
        return cls(group, modulus, np.zeros((group.order, group.order), dtype=np.int64))

    def copy_with(self, values: np.ndarray) -> "Cochain2":
        return Cochain2(self.group, self.modulus, values)

    def __add__(self, other: "Cochain2") -> "Cochain2":
        self._compat(other)
        return self.copy_with(self.values + other.values)

    def __sub__(self, other: "Cochain2") -> "Cochain2":
        self._compat(other)
        return self.copy_with(self.values - other.values)

    def __neg__(self) -> "Cochain2":
        return self.copy_with(-self.values)

    def equals(self, other: "Cochain2") -> bool:
        return (
            self.group is other.group
            and self.modulus == other.modulus
            and bool((self.values == other.values).all())
        )

    def _compat(self, other: "Cochain2") -> None:
        if self.group is not other.group or self.modulus != other.modulus:
            raise ParseError("cochains live on different groups or moduli")

    def to_sparse(self) -> dict:
        ii, jj = np.nonzero(self.values)
        return {
            "modulus": self.modulus,
            "order": self.group.order,
            "entries": [[int(i), int(j), int(self.values[i, j])] for i, j in zip(ii, jj)],
        }


def cochain_from_sparse(group: FiniteGroup, data: dict) -> Cochain2:
    n = int(data["modulus"])
    if int(data.get("order", group.order)) != group.order:
        raise ParseError("cocycle order does not match the group")
    vals = np.zeros((group.order, group.order), dtype=np.int64)
    for i, j, v in data["entries"]:
        vals[int(i), int(j)] = int(v) % n
    return Cochain2(group, n, vals)


def coboundary(group: FiniteGroup, modulus: int, gamma) -> Cochain2:
    """d(gamma)(g, h) = gamma(g) + gamma(h) - gamma(gh), gamma(1) = 0."""
    g = np.asarray(gamma, dtype=np.int64) % modulus
    if g[group.identity] != 0:
        raise ParseError("1-cochain must vanish at the identity")
    vals = g[:, None] + g[None, :] - g[np.asarray(group.mul)]
    return Cochain2(group, modulus, vals)


def is_cocycle(sigma: Cochain2) -> bool:
    """sigma(g,h) + sigma(gh,s) = sigma(h,s) + sigma(g,hs) for s in G.gens.

    For a normalized cochain this forces the equation on every triple, by
    the d(d sigma) = 0 argument of the module docstring.
    """
    v = sigma.values
    mul = np.asarray(sigma.group.mul)
    for s in sigma.group.gens:
        col = v[:, s]
        if ((v + col[mul] - col[None, :] - v[:, mul[:, s]]) % sigma.modulus).any():
            return False
    return True


# ---------------------------------------------------------------------------
# frontier system: unknowns T(x, s) for x != 1 and s a generator


@dataclass(eq=False)
class _FrontierSystem:
    group: FiniteGroup
    num_gens: int
    fprime: int
    xpos: np.ndarray  # element -> frontier row, identity -> -1
    nonid: np.ndarray
    chain_x: list[np.ndarray]
    chain_k: list[np.ndarray]
    eq_rows: np.ndarray
    eq_cols: np.ndarray
    eq_vals: np.ndarray
    eq_count: int

    def frontier_vector(self, values: np.ndarray) -> np.ndarray:
        gen_els = np.array(self.group.gens, dtype=np.int64)
        return values[np.ix_(self.nonid, gen_els)].reshape(-1)

    def reconstruct(self, tvec: np.ndarray, modulus: int) -> np.ndarray:
        """Expand frontier values into the full cochain they determine."""
        g = self.group
        n = g.order
        mul = np.asarray(g.mul)
        vfull = np.zeros((n, self.num_gens), dtype=np.int64)
        vfull[self.nonid, :] = np.asarray(tvec, dtype=np.int64).reshape(len(self.nonid), self.num_gens)
        out = np.zeros((n, n), dtype=np.int64)
        for h in range(n):
            cx, ck = self.chain_x[h], self.chain_k[h]
            if len(cx) == 0:
                continue
            acc = np.zeros(n, dtype=np.int64)
            for x, k in zip(cx, ck):
                acc += vfull[mul[:, x], k] - vfull[x, k]
            out[:, h] = acc % modulus
        return out


def _build_frontier_system(g: FiniteGroup) -> _FrontierSystem:
    n = g.order
    num_gens = len(g.gens)
    mul = np.asarray(g.mul, dtype=np.int64)
    xpos = np.full(n, -1, dtype=np.int64)
    nonid = np.array([x for x in range(n) if x != g.identity], dtype=np.int64)
    xpos[nonid] = np.arange(len(nonid))
    fprime = len(nonid) * num_gens

    chain_x: list[np.ndarray] = []
    chain_k: list[np.ndarray] = []
    for h in range(n):
        word = g.words[h]
        xs, x = [], g.identity
        for k in word:
            xs.append(x)
            x = int(mul[x, g.gens[k]])
        chain_x.append(np.array(xs, dtype=np.int64))
        chain_k.append(np.array(word, dtype=np.int64))

    rows_acc, cols_acc, vals_acc = [], [], []

    def emit(rows, cols, vals, mask):
        rows_acc.append(np.asarray(rows)[mask].astype(np.int32))
        cols_acc.append(np.asarray(cols)[mask].astype(np.int32))
        vals_acc.append(np.asarray(vals)[mask].astype(np.int8))

    ng = len(nonid)
    eq = 0
    for h in range(n):
        if h == g.identity:
            continue
        cxh, ckh = chain_x[h], chain_k[h]
        gxh = mul[np.ix_(nonid, cxh)]
        exp_h_cols = xpos[gxh] * num_gens + ckh[None, :]
        exp_h_mask = xpos[gxh] >= 0
        const_h_cols = xpos[cxh] * num_gens + ckh
        const_h_mask = xpos[cxh] >= 0
        for k in range(num_gens):
            s_el = g.gens[k]
            hs = int(mul[h, s_el])
            cxs, cks = chain_x[hs], chain_k[hs]
            rids = eq + np.arange(ng, dtype=np.int64)
            ones = np.ones(ng, dtype=np.int8)
            # + expansion of sigma(g, h)
            rr = np.repeat(rids, len(cxh))
            emit(rr, exp_h_cols.reshape(-1), np.ones(ng * len(cxh)), exp_h_mask.reshape(-1))
            emit(rr, np.tile(const_h_cols, ng), -np.ones(ng * len(cxh)), np.tile(const_h_mask, ng))
            # + T(g h, k)
            gh = mul[nonid, h]
            emit(rids, xpos[gh] * num_gens + k, ones, xpos[gh] >= 0)
            # - T(h, k)
            emit(rids, np.full(ng, xpos[h] * num_gens + k), -ones, np.ones(ng, dtype=bool))
            # - expansion of sigma(g, h s)
            if len(cxs):
                gxs = mul[np.ix_(nonid, cxs)]
                rr = np.repeat(rids, len(cxs))
                cc = (xpos[gxs] * num_gens + cks[None, :]).reshape(-1)
                emit(rr, cc, -np.ones(ng * len(cxs)), (xpos[gxs] >= 0).reshape(-1))
                emit(rr, np.tile(xpos[cxs] * num_gens + cks, ng), np.ones(ng * len(cxs)), np.tile(xpos[cxs] >= 0, ng))
            eq += ng
    rows = np.concatenate(rows_acc) if rows_acc else np.zeros(0, dtype=np.int32)
    cols = np.concatenate(cols_acc) if cols_acc else np.zeros(0, dtype=np.int32)
    vals = np.concatenate(vals_acc) if vals_acc else np.zeros(0, dtype=np.int8)
    order = np.argsort(rows, kind="stable")
    return _FrontierSystem(
        group=g,
        num_gens=num_gens,
        fprime=fprime,
        xpos=xpos,
        nonid=nonid,
        chain_x=chain_x,
        chain_k=chain_k,
        eq_rows=rows[order],
        eq_cols=cols[order],
        eq_vals=vals[order],
        eq_count=eq,
    )


def _frontier_system(g: FiniteGroup) -> _FrontierSystem:
    sys = getattr(g, "_h2_system", None)
    if sys is None:
        sys = _build_frontier_system(g)
        object.__setattr__(g, "_h2_system", sys)
    return sys


def _cocycle_kernel(sys: _FrontierSystem, p: int, e: int) -> np.ndarray:
    """Generators of the frontier cocycle module over Z_{p^e}.

    Solves a strided subsample exactly, then intersects once with the
    equations that the sample's kernel violates.
    """
    q = p**e
    f = sys.fprime
    if f == 0:
        return np.zeros((0, 0), dtype=np.int64)
    rows, cols, vals = sys.eq_rows, sys.eq_cols, sys.eq_vals
    total = sys.eq_count
    if f * q * q >= 2**62:
        raise BudgetExceeded("coefficient modulus too large for exact elimination")

    def dense_block(lo: int, hi: int) -> np.ndarray:
        a = np.searchsorted(rows, lo)
        b = np.searchsorted(rows, hi)
        flat = (rows[a:b].astype(np.int64) - lo) * f + cols[a:b]
        blk = np.bincount(flat, weights=vals[a:b].astype(np.float64), minlength=(hi - lo) * f)
        return blk.astype(np.int64).reshape(hi - lo, f) % q

    sample_rows = min(total, max(3 * f, 512))
    step = max(1, total // sample_rows)
    picks = np.arange(0, total, step, dtype=np.int64)
    rmap = np.full(total, -1, dtype=np.int64)
    rmap[picks] = np.arange(len(picks))
    sel = rmap[rows.astype(np.int64)] >= 0
    flat = rmap[rows[sel].astype(np.int64)] * f + cols[sel]
    sample = (
        np.bincount(flat, weights=vals[sel].astype(np.float64), minlength=len(picks) * f)
        .astype(np.int64)
        .reshape(len(picks), f)
        % q
    )
    K = kernel_mod(sample, p, e)
    if K.shape[1] == 0:
        return K
    # Rows that K satisfies stay satisfied by K Y, and K ker(C) satisfies the
    # violated rows, so one refinement solves every equation.
    use_float = f * q * q < 2**52
    Kf = K.astype(np.float64) if use_float else K
    bad = []
    for lo in range(0, total, 4096):
        blk = dense_block(lo, min(lo + 4096, total))
        if use_float:
            res = np.rint(blk.astype(np.float64) @ Kf).astype(np.int64) % q
        else:
            res = (blk @ K) % q
        viol = np.nonzero(res.any(axis=1))[0]
        if len(viol):
            bad.append(blk[viol])
    if not bad:
        return K
    C = (np.vstack(bad) @ K) % q
    return (K @ kernel_mod(C, p, e)) % q


@dataclass(eq=False)
class _PrimePiece:
    p: int
    e: int
    q: int
    K: np.ndarray
    ksnf: SnfMod | None
    ck: object | None
    ck_orders: list[int]  # nontrivial factor orders, descending
    ck_sel: list[int]  # positions into ck.class_coords output

    def coords_of(self, tvec: np.ndarray) -> tuple[int, ...] | None:
        if self.K.shape[1] == 0:
            return () if not (tvec % self.q).any() else None
        x = solve_from_snf(self.ksnf, tvec % self.q)
        if x is None:
            return None
        raw = self.ck.class_coords(x)
        return tuple(raw[i] for i in self.ck_sel)


@dataclass(eq=False)
class CohomologyClass:
    """Element of a CohomologyGroup; coordinates reduced mod the invariants."""

    parent: "CohomologyGroup"
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        inv = self.parent.invariants
        if len(self.coords) != len(inv):
            raise ParseError("coordinate length mismatch")
        self.coords = tuple(int(c) % d for c, d in zip(self.coords, inv))

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if other.parent is not self.parent:
            raise ParseError("classes from different cohomology groups")
        return CohomologyClass(self.parent, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "CohomologyClass":
        return CohomologyClass(self.parent, tuple(-a for a in self.coords))

    def __sub__(self, other: "CohomologyClass") -> "CohomologyClass":
        return self + (-other)

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        o = 1
        for c, d in zip(self.coords, self.parent.invariants):
            if c:
                o = int(np.lcm(o, d // np.gcd(c, d)))
        return o

    def representative(self) -> Cochain2:
        return self.parent.rep_of_coords(self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohomologyClass)
            and other.parent is self.parent
            and other.coords == self.coords
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.coords))


@dataclass(eq=False)
class CohomologyGroup:
    """H^2(G, Z_N) with invariant factors, representatives and a class map."""

    group: FiniteGroup
    coeff: CoefficientModule
    field_mode: str  # "muN" or "closed"
    invariants: tuple[int, ...]
    reps: list[Cochain2]
    _pieces: list[_PrimePiece] = field(default_factory=list)
    _sys: _FrontierSystem | None = None

    @property
    def size(self) -> int:
        out = 1
        for d in self.invariants:
            out *= d
        return out

    def zero_class(self) -> CohomologyClass:
        return CohomologyClass(self, (0,) * len(self.invariants))

    def all_classes(self):
        for coords in itertools.product(*(range(d) for d in self.invariants)):
            yield CohomologyClass(self, coords)

    def rep_of_coords(self, coords) -> Cochain2:
        n = self.coeff.n
        vals = np.zeros((self.group.order, self.group.order), dtype=np.int64)
        for c, rep in zip(coords, self.reps):
            vals = (vals + int(c) * rep.values) % n
        return Cochain2(self.group, n, vals)

    def class_of(self, sigma: Cochain2) -> CohomologyClass:
        if sigma.group is not self.group:
            raise ParseError("cochain lives on a different group")
        if sigma.modulus != self.coeff.n:
            raise ParseError("cochain modulus does not match the coefficient module")
        if self._sys is None:
            # order-1 group or modulus 1: everything is the trivial cocycle
            return CohomologyClass(self, ())
        sys = self._sys
        tvec = sys.frontier_vector(sigma.values)
        if not (sys.reconstruct(tvec, self.coeff.n) == sigma.values).all():
            raise NotCocycle("cochain is not determined by its generator values")
        per_prime: list[tuple[list[int], tuple[int, ...]]] = []
        for piece in self._pieces:
            sel = piece.coords_of(tvec)
            if sel is None:
                raise NotCocycle("cochain fails the cocycle equations")
            per_prime.append((piece.ck_orders, sel))
        coords_out = []
        for i, d in enumerate(self.invariants):
            c, m = 0, 1
            for orders, sel in per_prime:
                if i < len(orders):
                    o, r = orders[i], sel[i]
                    t = ((r - c) * inverse_mod(m % o, o)) % o
                    c, m = c + m * t, m * o
            coords_out.append(c % d)
        return CohomologyClass(self, tuple(coords_out))


def _trivial_cohomology(g: FiniteGroup, coeff: CoefficientModule, mode: str) -> CohomologyGroup:
    return CohomologyGroup(group=g, coeff=coeff, field_mode=mode, invariants=(), reps=[])


def _coboundary_rows(g: FiniteGroup, sys: _FrontierSystem) -> np.ndarray:
    """Frontier coordinates of d(gamma_y), one row per non-identity y."""
    num_gens = sys.num_gens
    xpos = sys.xpos
    mul = np.asarray(g.mul)
    gen_els = np.array(g.gens, dtype=np.int64)
    nonid = sys.nonid
    B = np.zeros((len(nonid), sys.fprime), dtype=np.int64)
    tcols = (xpos[nonid][:, None] * num_gens + np.arange(num_gens)[None, :]).reshape(-1)
    xs = np.repeat(nonid, num_gens)
    ss = np.tile(gen_els, len(nonid))
    np.add.at(B, (xpos[xs], tcols), 1)
    np.add.at(B, (xpos[ss], tcols), 1)
    prods = mul[xs, ss]
    mask = prods != g.identity
    np.add.at(B, (xpos[prods[mask]], tcols[mask]), -1)
    return B


def _delta_rows(g: FiniteGroup, ab: AbelianInvariants, sys: _FrontierSystem, m: int) -> np.ndarray:
    """Connecting-map cocycles delta(phi), one per character generator.

    For phi: G -> Z_m the carry (phi(x) + phi(s) - phi(xs)) / m is a
    2-cocycle valued in Z_m; its classes exhaust the kernel of the
    comparison between mu_m and divisible coefficients.
    """
    mul = np.asarray(g.mul)
    gen_els = np.array(g.gens, dtype=np.int64)
    nonid = sys.nonid
    rows = []
    for i, d in enumerate(ab.cyclic_orders):
        step = m // int(np.gcd(d, m))
        phi = (ab.projection[:, i] * step) % m
        carry = (phi[nonid][:, None] + phi[gen_els][None, :] - phi[mul[np.ix_(nonid, gen_els)]]) // m
        rows.append(carry.reshape(-1))
    if not rows:
        return np.zeros((0, sys.fprime), dtype=np.int64)
    return np.stack(rows, axis=0)


def _check_h2_budget(g: FiniteGroup, budget: int) -> None:
    n = g.order
    if (n - 1) ** 2 > budget:
        raise BudgetExceeded(f"H^2 needs ({n}-1)^2 unknowns > budget {budget}")


def _h2_impl(g: FiniteGroup, coeff: CoefficientModule, mode: str) -> CohomologyGroup:
    n = g.order
    N = coeff.n
    if n == 1 or N == 1:
        return _trivial_cohomology(g, coeff, mode)
    sys = _frontier_system(g)
    B = _coboundary_rows(g, sys)
    if mode == "closed":
        B = np.vstack([B, _delta_rows(g, abelianization(g), sys, N)])

    pieces: list[_PrimePiece] = []
    for p, e in prime_power_factors(N):
        q = p**e
        K = _cocycle_kernel(sys, p, e)
        if K.shape[1] == 0:
            pieces.append(_PrimePiece(p=p, e=e, q=q, K=K, ksnf=None, ck=None, ck_orders=[], ck_sel=[]))
            continue
        ksnf = snf_mod(K, p, e, want_l=True, want_r=True)
        X = solve_from_snf(ksnf, B.T % q)
        if X is None:
            raise ParseError("coboundary outside the cocycle module (internal error)")
        rel = kernel_from_snf(ksnf)
        P = np.hstack([X, rel]) if rel.shape[1] else X
        ck = cokernel_mod(P, p, e)
        nontrivial = [i for i, o in enumerate(ck.orders) if o > 1]
        factors = sorted(((ck.orders[i], i) for i in nontrivial), key=lambda t: -t[0])
        pos_in_output = {i: j for j, i in enumerate(nontrivial)}
        pieces.append(
            _PrimePiece(
                p=p,
                e=e,
                q=q,
                K=K,
                ksnf=ksnf,
                ck=ck,
                ck_orders=[o for o, _ in factors],
                ck_sel=[pos_in_output[i] for _, i in factors],
            )
        )

    depth = max((len(piece.ck_orders) for piece in pieces), default=0)
    invariants = tuple(
        int(np.prod([piece.ck_orders[i] for piece in pieces if i < len(piece.ck_orders)]))
        for i in range(depth)
    )

    reps: list[Cochain2] = []
    for i in range(depth):
        vals = np.zeros((n, n), dtype=np.int64)
        for piece in pieces:
            if i >= len(piece.ck_orders):
                continue
            q = piece.q
            basis = piece.ck.basis_vectors()
            xvec = basis[piece.ck_sel[i]]
            tvec = (piece.K @ xvec) % q
            table = sys.reconstruct(tvec, q)
            ep = (N // q) * inverse_mod((N // q) % q, q) % N
            vals = (vals + table * ep) % N
        reps.append(Cochain2(g, N, vals))

    return CohomologyGroup(
        group=g,
        coeff=coeff,
        field_mode=mode,
        invariants=invariants,
        reps=reps,
        _pieces=pieces,
        _sys=sys,
    )


def _h2_cache(g: FiniteGroup) -> dict:
    cache = getattr(g, "_h2_results", None)
    if cache is None:
        cache = {}
        object.__setattr__(g, "_h2_results", cache)
    return cache


def h2(g: FiniteGroup, coeff: CoefficientModule | int, budget: int = DEFAULT_H2_BUDGET) -> CohomologyGroup:
    """H^2(G, Z_N) with trivial action, as invariant factors plus representatives."""
    if isinstance(coeff, int):
        coeff = CoefficientModule(coeff)
    _check_h2_budget(g, budget)
    cache = _h2_cache(g)
    key = ("muN", coeff.n)
    if key not in cache:
        cache[key] = _h2_impl(g, coeff, "muN")
    return cache[key]


def group_exponent(g: FiniteGroup) -> int:
    out = 1
    for x in range(g.order):
        out = int(np.lcm(out, g.element_order(x)))
    return out


def h2_closed_field(
    g: FiniteGroup, budget: int = DEFAULT_H2_BUDGET, modulus: int | None = None
) -> CohomologyGroup:
    """H^2(G, k*) for algebraically closed k of characteristic zero.

    Computed as H^2(G, Z_M) with M = |G|, or a given multiple of |G|, modulo
    the image of the connecting map from Hom(G, Z_M); that image is exactly
    the kernel of the comparison with divisible coefficients.  The comparison
    is onto because M kills the Schur multiplier, so the quotient is the
    Schur multiplier.  A multiple of exp(G) alone is not enough: exp M(G)
    need not divide exp(G) (Moravec, J. Algebra 2007).
    """
    m = g.order if modulus is None else modulus
    m = max(m, 1)
    if m % g.order:
        raise ParseError("closed-field modulus must be a multiple of |G|")
    _check_h2_budget(g, budget)
    cache = _h2_cache(g)
    key = ("closed", m)
    if key not in cache:
        cache[key] = _h2_impl(g, CoefficientModule(m), "closed")
    return cache[key]


def h2_real_closed(g: FiniteGroup, budget: int = DEFAULT_H2_BUDGET) -> CohomologyGroup:
    """H^2(G, k*) for real closed k: positive elements are uniquely divisible,
    so the coefficients reduce to {+1, -1} = Z_2."""
    return h2(g, CoefficientModule(2), budget)


# ---------------------------------------------------------------------------
# inflation, restriction, transgression


def _embed_values(vals: np.ndarray, src_mod: int, dst_mod: int) -> np.ndarray:
    """Push Z_m values into Z_M along mu_m -> mu_M (requires m | M)."""
    if dst_mod == src_mod:
        return vals
    if dst_mod % src_mod:
        raise ParseError("coefficients do not embed into the target module")
    return vals * (dst_mod // src_mod)


def inflation(qd: QuotientData, cls: CohomologyClass, target: CohomologyGroup | None = None) -> CohomologyClass:
    """Pull a class on G/U back to G through the projection."""
    if cls.parent.group is not qd.quotient:
        raise ParseError("class does not live on the quotient group")
    if target is None:
        if cls.parent.field_mode == "closed":
            target = h2_closed_field(qd.group)
        else:
            target = h2(qd.group, cls.parent.coeff)
    rep = cls.representative()
    proj = np.asarray(qd.projection)
    vals = _embed_values(rep.values[np.ix_(proj, proj)], rep.modulus, target.coeff.n)
    return target.class_of(Cochain2(qd.group, target.coeff.n, vals))


def u_subgroup(inv: CentralInvolution) -> tuple[FiniteGroup, np.ndarray]:
    """U = {1, u} as a standalone group plus its embedding into G.

    Memoized per (group, u) so repeated calls share one group instance and
    its cohomology caches.
    """
    g = inv.group
    cache = getattr(g, "_u_subgroups", None)
    if cache is None:
        cache = {}
        object.__setattr__(g, "_u_subgroups", cache)
    if inv.u not in cache:
        if inv.is_trivial:
            cache[inv.u] = (cyclic_group(1), np.array([g.identity], dtype=np.int64))
        else:
            cache[inv.u] = (cyclic_group(2), np.array([g.identity, inv.u], dtype=np.int64))
    return cache[inv.u]


def restriction(inv: CentralInvolution, cls: CohomologyClass, target: CohomologyGroup | None = None) -> CohomologyClass:
    """Restrict a class on G to U = {1, u}."""
    if cls.parent.group is not inv.group:
        raise ParseError("class does not live on the ambient group")
    ugroup, embed = u_subgroup(inv)
    rep = cls.representative()
    if target is None:
        if cls.parent.field_mode == "closed":
            target = h2_closed_field(ugroup, modulus=rep.modulus)
        else:
            target = h2(ugroup, cls.parent.coeff)
    vals = _embed_values(rep.values[np.ix_(embed, embed)], rep.modulus, target.coeff.n)
    return target.class_of(Cochain2(ugroup, target.coeff.n, vals))


def restriction_square_class(inv: CentralInvolution, sigma: Cochain2) -> int:
    """sigma(u, u) as a square-class bit: 0 for +1, 1 for -1 (even modulus)."""
    if sigma.modulus % 2:
        raise ParseError("square class needs an even modulus")
    v = int(sigma.values[inv.u, inv.u])
    half = sigma.modulus // 2
    if v % half:
        raise ParseError("sigma(u,u) is not a +-1 value")
    return (v // half) % 2


def transgression(
    f: GroupCharacter,
    qd: QuotientData,
    target: CohomologyGroup | None = None,
    section: np.ndarray | None = None,
) -> CohomologyClass:
    """T(f)(x, y) = f(phi(x) phi(y) phi(xy)^{-1}) for a section phi of G -> G/U."""
    g = qd.group
    q = qd.quotient
    if f.group.order != 2:
        raise ParseError("transgression input must be a character of U = {1, u}")
    sec = qd.section if section is None else np.asarray(section, dtype=np.int64)
    proj = np.asarray(qd.projection)
    if (proj[sec] != np.arange(q.order)).any():
        raise ParseError("section is not a section of the projection")
    mul, invt = np.asarray(g.mul), np.asarray(g.inv)
    w = mul[mul[np.ix_(sec, sec)], invt[sec[np.asarray(q.mul)]]]
    uval = np.zeros(g.order, dtype=np.int64)
    uval[qd.involution.u] = f(1)
    if target is None:
        target = h2(q, CoefficientModule(f.target_order))
    vals = _embed_values(uval[w], f.target_order, target.coeff.n)
    return target.class_of(Cochain2(q, target.coeff.n, vals))
