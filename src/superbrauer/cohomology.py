"""Second group cohomology H^2(G, Z_N) from a presentation of G.

A normalized 2-cocycle is determined by its labels T(x, s) = sigma(x, s) on
the edges of the Cayley graph, x in G and s in the generating set S:
peeling the last generator off the second argument gives

    sigma(g, h s) = sigma(g, h) + sigma(g h, s) - sigma(h, s)

so sigma(g, h) is the label sum along the BFS word of h from g, minus the
sum from 1.  The d(d sigma) = 0 pentagon identity shows that the cocycle
equation for all (g, h, s) with s in S forces it for every triple.  Adding
the coboundary of the label sum from 1 along the BFS tree gives the
cohomologous cocycle that vanishes on the tree (the gauge).

A labelling comes from a cocycle exactly when every relator r of a
presentation <S | R> of G has the same label sum z_r from every start x
(Hopf 1942; Gruenberg, LNM 143, 1970): z_r is the central value of the
lifted r, and conversely the maps (a, x) -> (a + T(x, s), x s) generate a
central extension.  In the gauge the central values fix every label: the
Schreier fill that proves the presentation fills each edge as the one open
edge of some cycle x r, so T = L z.  The cocycle module is the kernel of the
|G| |R| + |S| rows C over the |R| unknowns z, the coboundaries are z = A c
(A the exponent sums of the relators), and H^2 = ker C / im A is Hopf's
formula.

Each prime power of N is solved by exact Z_{p^e} elimination and the pieces
are recombined by CRT.  Only primes that can contribute are solved: |G| and
p^e both kill H^2(G, Z_{p^e}), and on the closed field the p-part of M(G)
restricts injectively to a Sylow p-subgroup, whose multiplier is 0 when it is
cyclic (Karpilovsky 1987), i.e. when p does not divide |G| / exp(G).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, NotCocycle, ParseError
from .groups import (
    CentralInvolution,
    FiniteGroup,
    GroupCharacter,
    QuotientData,
    abelianization,
    cyclic_group,
)
from .modlinalg import (
    CokernelData,
    SnfMod,
    cokernel_mod,
    crt,
    direct_sum,
    kernel_from_snf,
    kernel_mod,
    prime_power_factors,
    snf_mod,
    solve_from_snf,
)

DEFAULT_H2_BUDGET = 150_000


@dataclass(frozen=True)
class CoefficientModule:
    """Trivial coefficients Z_N, written additively (Z_N = mu_N), N < 2^62
    so that the sum of two int64 cochain values is exact."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParseError("coefficient modulus must be positive")
        if self.n >= 2**62:
            raise ParseError(f"coefficient modulus {self.n} is not below 2^62")


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
    """Inverse of Cochain2.to_sparse; ParseError on any malformed document."""
    try:
        n = CoefficientModule(int(data["modulus"])).n
        order = int(data.get("order", group.order))
        entries = [[int(x) for x in entry] for entry in data["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed sparse cochain: {exc}") from exc
    if order != group.order:
        raise ParseError("cocycle order does not match the group")
    vals = np.zeros((group.order, group.order), dtype=np.int64)
    for entry in entries:
        if len(entry) != 3 or not (0 <= entry[0] < order and 0 <= entry[1] < order):
            raise ParseError(f"sparse cochain entry {entry} is not [i, j, value] with 0 <= i, j < {order}")
        vals[entry[0], entry[1]] = entry[2] % n
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
# the presentation: edge labels T(x, s) as linear forms in the central values


@dataclass(eq=False)
class _Presentation:
    """Edge (x, s_k) of the Cayley graph has id x |S| + k.  Relators are
    words of (generator index, +-1) steps; cycles[j] holds the edge ids
    (n x len) of the cycles x r_j from every start x and the sign with which
    each step crosses its edge.  The Schreier fill is recorded as batches
    (j, starts, pos): each start's cycle x r_j had one open edge, at `pos`,
    which the batch filled."""

    group: FiniteGroup
    relators: list
    cycles: list
    schedule: list

    def system(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        """L and C over Z_q.  Replaying the fill, every edge label of the
        cocycle that vanishes on the tree is a linear form in the central
        values z, T = L z (L is n |S| x |R|): a filled edge is
        sign (z_j - the other signed labels of its cycle).  The rows of C
        are every cycle's L-sum minus its z_j and, for normalization, L on
        the edges from 1; the cocycle module is ker C."""
        g, r = self.group, len(self.relators)
        L = np.zeros((g.order * len(g.gens), r), dtype=np.int64)
        eye = np.eye(r, dtype=np.int64)
        for j, starts, pos in self.schedule:
            ids, signs = self.cycles[j]
            rows = ids[starts]
            # the open edge is crossed once and still has label 0
            L[rows[np.arange(len(starts)), pos]] = signs[pos][:, None] * (eye[j] - np.tensordot(signs, L[rows.T], 1)) % q
        m, e = len(g.gens), g.identity
        C = np.vstack([np.tensordot(signs, L[ids.T], 1) - eye[j] for j, (ids, signs) in enumerate(self.cycles)]
                      + [L[e * m : (e + 1) * m]])
        return L, C % q

    def central_values(self, labels: np.ndarray) -> np.ndarray:
        """z_j, the signed sum of the edge labels (n |S|,) along r_j from 1."""
        e = self.group.identity
        return np.array([signs @ labels[ids[e]] for ids, signs in self.cycles], dtype=np.int64)

    def reconstruct(self, labels: np.ndarray, modulus: int) -> np.ndarray:
        """The cochain with edge labels `labels` (n |S|,) vanishing on the
        tree: sigma(g, x s) = sigma(g, x) + T(g x, s) on each tree edge x s."""
        n, m = self.group.order, len(self.group.gens)
        mul = np.asarray(self.group.mul)
        out = np.zeros((n, n), dtype=np.int64)
        for x, k, y in self.group.tree:
            out[:, y] = out[:, x] + labels[mul[:, x] * m + k]
        return out % modulus


def _cycle_edges(g: FiniteGroup, relator) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids (n x len) of the cycle x r from every start x, and the sign
    with which each step crosses its edge."""
    mul, inv = np.asarray(g.mul), np.asarray(g.inv)
    x = np.arange(g.order)
    ids = []
    for k, sign in relator:
        if sign < 0:
            x = mul[x, inv[g.gens[k]]]
        ids.append(x * len(g.gens) + k)
        if sign > 0:
            x = mul[x, g.gens[k]]
    return np.stack(ids, axis=1), np.array([sign for _, sign in relator], dtype=np.int64)


def _presentation(g: FiniteGroup) -> _Presentation:
    """The presentation of g, built once per group."""
    return g.memo("presentation", lambda: _presentation_impl(g))


def _presentation_impl(g: FiniteGroup) -> _Presentation:
    """Relators that provably present G.  An edge is filled if it is a tree
    edge or the only open edge of some relator cycle x r, crossed once; its
    loop then bounds.  Once every edge is filled, the Cayley complex is
    simply connected, so the relators present G.  The first open edge
    (x, s) adds its Schreier relator w_x s w_{xs}^-1, until none is left."""
    m = len(g.gens)
    filled = np.zeros(g.order * m, dtype=bool)
    filled[[x * m + k for x, k, _ in g.tree]] = True
    relators, cycles, schedule = [], [], []
    while True:
        before = -1
        while before != filled.sum():
            before = filled.sum()
            for j, (ids, _) in enumerate(cycles):
                open_ = ~filled[ids]
                starts = np.flatnonzero(open_.sum(axis=1) == 1)
                pos = open_[starts].argmax(axis=1)
                edges, first = np.unique(ids[starts, pos], return_index=True)
                if len(edges):
                    filled[edges] = True
                    schedule.append((j, starts[first], pos[first]))
        rest = np.flatnonzero(~filled)
        if not len(rest):
            return _Presentation(group=g, relators=relators, cycles=cycles, schedule=schedule)
        x, k = divmod(int(rest[0]), m)
        xs = int(g.mul[x, g.gens[k]])
        relators.append([(j, 1) for j in g.words[x]] + [(k, 1)] + [(j, -1) for j in reversed(g.words[xs])])
        cycles.append(_cycle_edges(g, relators[-1]))


def _cocycle_kernel(C: np.ndarray, p: int, e: int) -> np.ndarray:
    """Generators of the cocycle module over Z_{p^e}, in central values."""
    q = p**e
    r = C.shape[1]
    if r * q * q >= 2**62:
        raise BudgetExceeded(
            f"exact elimination over Z_{q} needs |R|*q^2 < 2^62 with |R| = {r} relators; no budget flag admits this job"
        )
    return kernel_mod(C, p, e)


@dataclass(eq=False)
class _PrimePiece:
    q: int
    ksnf: SnfMod
    ck: CokernelData


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
    _sys: _Presentation | None = None

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
        if not is_cocycle(sigma):
            raise NotCocycle("cochain fails the cocycle equations")
        if self._sys is None:
            # no prime can contribute: every cocycle is in the zero class
            return self.zero_class()
        labels = sigma.values[:, list(self.group.gens)].ravel()
        parts = []
        for piece in self._pieces:
            # a cocycle's z lies in ker C; a coboundary moves it inside im A
            z = self._sys.central_values(labels % piece.q) % piece.q
            parts.append((piece.ck.orders, piece.ck.class_coords(solve_from_snf(piece.ksnf, z))))
        return CohomologyClass(self, tuple(int(c) for c in direct_sum(parts)[1]))


def _coboundary_values(sys: _Presentation, mode: str, N: int) -> np.ndarray:
    """Central values (columns) of the coboundaries.  By telescoping,
    z(d gamma) = A gamma(S) with A the |R| x |S| exponent sums of the
    relators, spanned by the point masses gamma at the generators other than
    1.  On the closed field add A phi(S) / N, the carries delta(phi) of the
    character generators phi: G -> Z_N lifted to [0, N); phi kills every
    relator, so the division is exact.  The delta(phi) classes exhaust the
    kernel of the comparison between mu_N and divisible coefficients."""
    g = sys.group
    A = np.zeros((len(sys.relators), len(g.gens)), dtype=np.int64)
    for j, r in enumerate(sys.relators):
        for k, sign in r:
            A[j, k] += sign
    gens = np.array(g.gens)
    B = A @ ((gens[:, None] == gens[None, :]) & (gens != g.identity))
    if mode != "closed":
        return B
    ab = abelianization(g)
    steps = N // np.gcd(np.array(ab.cyclic_orders, dtype=np.int64), N)
    phi = (ab.projection[gens] * steps % N).astype(object)
    return np.hstack([B, (A.astype(object) @ phi // N).astype(np.int64)])


def _check_h2_budget(g: FiniteGroup, budget: int) -> None:
    n = g.order
    if (n - 1) ** 2 > budget:
        raise BudgetExceeded(f"H^2 budget {budget} is below (|G|-1)^2 = {(n - 1) ** 2}; raise --budget-h2")


def _h2_impl(g: FiniteGroup, coeff: CoefficientModule, mode: str) -> CohomologyGroup:
    n = g.order
    N = coeff.n
    # a prime contributes only if it divides |G| (Z_N), or |G| / exp(G) (closed)
    live = n // group_exponent(g) if mode == "closed" else n
    # v_p(N) is the first e with p^(e+1) not dividing N; N itself is never factored
    primes = [(p, next(e for e in itertools.count() if N % p ** (e + 1))) for p, _ in prime_power_factors(live) if N % p == 0]
    if not primes:
        return CohomologyGroup(group=g, coeff=coeff, field_mode=mode, invariants=(), reps=[])
    sys = _presentation(g)
    B = _coboundary_values(sys, mode, N)

    pieces: list[_PrimePiece] = []
    gen_labels = []
    for p, e in primes:
        q = p**e
        L, C = sys.system(q)
        K = _cocycle_kernel(C, p, e)
        ksnf = snf_mod(K, p, e, want_l=True, want_r=True)
        X = solve_from_snf(ksnf, B % q)
        if X is None:
            raise ParseError("coboundary outside the cocycle module (internal error)")
        ck = cokernel_mod(np.hstack([X, kernel_from_snf(ksnf)]), p, e)
        pieces.append(_PrimePiece(q=q, ksnf=ksnf, ck=ck))
        gen_labels.append(L @ (K @ ck.Linv % q) % q)
    # H^2 is the sum of the prime pieces; only its factors are needed here
    invariants, _ = direct_sum([(piece.ck.orders, np.zeros(len(piece.ck.orders), dtype=np.int64)) for piece in pieces])

    qs = [piece.q for piece in pieces]
    reps: list[Cochain2] = []
    for i in range(len(invariants)):
        # factor i of each piece mod its q; 0 mod the q of a piece with fewer
        # factors and mod the prime powers of N that no piece solves
        tables = [sys.reconstruct(labels[:, i], q) if i < labels.shape[1] else 0 for labels, q in zip(gen_labels, qs)]
        reps.append(Cochain2(g, N, crt(tables + [0], qs + [N // math.prod(qs)])))

    return CohomologyGroup(
        group=g,
        coeff=coeff,
        field_mode=mode,
        invariants=invariants,
        reps=reps,
        _pieces=pieces,
        _sys=sys,
    )


def h2(g: FiniteGroup, coeff: CoefficientModule | int, budget: int = DEFAULT_H2_BUDGET) -> CohomologyGroup:
    """H^2(G, Z_N) with trivial action, as invariant factors plus representatives."""
    if isinstance(coeff, int):
        coeff = CoefficientModule(coeff)
    _check_h2_budget(g, budget)
    return g.memo(("h2", "muN", coeff.n), lambda: _h2_impl(g, coeff, "muN"))


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
    return g.memo(("h2", "closed", m), lambda: _h2_impl(g, CoefficientModule(m), "closed"))


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
    its memo.  The embedding lists the identity first: element 0 of U is 1.
    """
    g = inv.group
    embed = np.array([g.identity] if inv.is_trivial else [g.identity, inv.u], dtype=np.int64)
    return g.memo(("u_subgroup", inv.u), lambda: (cyclic_group(len(embed)), embed))


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
