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

import numpy as np

from .errors import BudgetExceeded, NotCocycle, ParseError
from .groups import DEFAULT_H2_BUDGET, FiniteGroup, abelianization, is_character
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


class CoefficientModule:
    """Trivial coefficients Z_N, written additively (Z_N = mu_N), N < 2^62
    so that the sum of two int64 cochain values is exact."""

    def __init__(self, n: int) -> None:
        self.n = n
        if n < 1:
            raise ParseError("coefficient modulus must be positive")
        if n >= 2**62:
            raise ParseError(f"coefficient modulus {n} is not below 2^62")


class Cochain2:
    """Normalized 2-cochain on G with values in Z_N."""

    def __init__(self, group: FiniteGroup, modulus: int, values: np.ndarray) -> None:
        self.group = group
        self.modulus = modulus
        self.values = v = np.asarray(values, dtype=np.int64) % modulus
        e = group.identity
        if v[e, :].any() or v[:, e].any():
            raise ParseError("cochain is not normalized")

    def copy_with(self, values: np.ndarray) -> "Cochain2":
        return Cochain2(self.group, self.modulus, values)

    def __add__(self, other: "Cochain2") -> "Cochain2":
        self._compat(other)
        return self.copy_with(self.values + other.values)

    def _compat(self, other: "Cochain2") -> None:
        if self.group is not other.group or self.modulus != other.modulus:
            raise ParseError("cochains live on different groups or moduli")


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
        col, right = v[:, s], mul[:, s]
        for lo in range(0, len(v), 64):  # row blocks keep the temporaries small
            rows = v[lo:lo + 64]
            if ((rows + col[mul[lo:lo + 64]] - col[None, :] - rows[:, right]) % sigma.modulus).any():
                return False
    return True


# ---------------------------------------------------------------------------
# the presentation: edge labels T(x, s) as linear forms in the central values


class _Presentation:
    """Edge (x, s_k) of the Cayley graph has id x |S| + k.  Relators are
    words of (generator index, +-1) steps; cycles[j] holds the edge ids
    (n x len) of the cycles x r_j from every start x and the sign with which
    each step crosses its edge.  The Schreier fill is recorded as batches
    (j, starts, pos): each start's cycle x r_j had one open edge, at `pos`,
    which the batch filled."""

    def __init__(self, group: FiniteGroup, relators: list, cycles: list, schedule: list) -> None:
        self.group = group
        self.relators = relators
        self.cycles = cycles
        self.schedule = schedule

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


def cycle_edges(g: FiniteGroup, relator) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids (n x len, also for an empty walk) of the cycle x r from every
    start x, and the sign with which each step crosses its edge."""
    mul, inv = np.asarray(g.mul), np.asarray(g.inv)
    x = np.arange(g.order)
    ids = []
    for k, sign in relator:
        if sign < 0:
            x = mul[x, inv[g.gens[k]]]
        ids.append(x * len(g.gens) + k)
        if sign > 0:
            x = mul[x, g.gens[k]]
    return np.array(ids, dtype=np.int64).reshape(-1, g.order).T, np.array([sign for _, sign in relator], dtype=np.int64)


def walk_sums(ids: np.ndarray, signs: np.ndarray, labels: np.ndarray, modulus: int) -> np.ndarray:
    """Signed sums mod `modulus` of the edge labels (n |S|,) in [0, modulus) along a
    cycle_edges walk from every start, reduced at each step to stay exact.  On a
    cocycle's labels a closed walk sums to the central value of its lift."""
    acc = np.zeros(len(ids), dtype=np.int64)
    for col, sign in zip(ids.T, signs):
        acc = (acc + sign * labels[col]) % modulus
    return acc


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
        relators.append([(j, 1) for j in g.word(x)] + [(k, 1)] + [(j, -1) for j in reversed(g.word(xs))])
        cycles.append(cycle_edges(g, relators[-1]))


def _cocycle_kernel(C: np.ndarray, p: int, e: int) -> np.ndarray:
    """Generators of the cocycle module over Z_{p^e}, in central values."""
    q = p**e
    r = C.shape[1]
    if r * q * q >= 2**62:
        raise BudgetExceeded(
            f"exact elimination over Z_{q} needs |R|*q^2 < 2^62 with |R| = {r} relators; no budget flag admits this job"
        )
    return kernel_mod(C, p, e)


class _PrimePiece:
    """The Z_q part of H^2: the kernel SNF and cokernel of the class map,
    and the edge labels (n |S| x factors) of its factor generators mod q."""

    def __init__(self, q: int, ksnf: SnfMod, ck: CokernelData, labels: np.ndarray) -> None:
        self.q = q
        self.ksnf = ksnf
        self.ck = ck
        self.labels = labels


class CohomologyClass:
    """Element of a CohomologyGroup; coordinates reduced mod the invariants."""

    def __init__(self, parent: CohomologyGroup, coords: tuple[int, ...]) -> None:
        self.parent = parent
        inv = parent.invariants
        if len(coords) != len(inv):
            raise ParseError("coordinate length mismatch")
        self.coords = tuple(int(c) % d for c, d in zip(coords, inv))

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if other.parent is not self.parent:
            raise ParseError("classes from different cohomology groups")
        return CohomologyClass(self.parent, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohomologyClass)
            and other.parent is self.parent
            and other.coords == self.coords
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.coords))


class CohomologyGroup:
    """H^2(G, Z_N) with invariant factors and a class map.

    A class lives as the edge labels (n |S|,) of its representative that
    vanishes on the BFS tree, T(x, s) = sigma(x, s) mod N (labels_of_coords):
    n |S| values where the cochain would take n^2.  No method builds a dense
    n x n cochain; class_of takes one from the caller."""

    def __init__(self, group: FiniteGroup, coeff: CoefficientModule, field_mode: str, invariants: tuple[int, ...],
                 _pieces: list[_PrimePiece] | None = None, _sys: _Presentation | None = None) -> None:
        self.group = group
        self.coeff = coeff
        self.field_mode = field_mode  # "muN" or "closed"
        self.invariants = invariants
        self._pieces = [] if _pieces is None else _pieces
        self._sys = _sys

    @property
    def size(self) -> int:
        out = 1
        for d in self.invariants:
            out *= d
        return out

    def generators(self) -> list[CohomologyClass]:
        return [CohomologyClass(self, tuple(e)) for e in np.eye(len(self.invariants), dtype=np.int64)]

    def zero_class(self) -> CohomologyClass:
        return CohomologyClass(self, (0,) * len(self.invariants))

    def all_classes(self):
        for coords in itertools.product(*(range(d) for d in self.invariants)):
            yield CohomologyClass(self, coords)

    def labels_of_coords(self, coords) -> np.ndarray:
        """The edge labels (n |S|,) of the class sum_i c_i gen_i: sum_i c_i labels_i mod q per piece (below
        |R| q^2 < 2^62), glued by CRT with 0 mod the prime powers of N that no piece solves."""
        g, n = self.group, self.coeff.n
        labels = []
        for piece in self._pieces:
            c = np.array([int(x) % piece.q for x in coords[: piece.labels.shape[1]]], dtype=np.int64)
            labels.append(piece.labels @ c % piece.q)
        qs = [piece.q for piece in self._pieces]
        return crt(labels + [np.zeros(g.order * len(g.gens), dtype=np.int64)], qs + [n // math.prod(qs)])

    def is_cocycle_labels(self, labels: np.ndarray) -> bool:
        """The rows of C on edge labels (n |S|,) in [0, N): the edges from 1
        carry 0, and every relator has one signed label sum from every start."""
        g, m = self.group, len(self.group.gens)
        return not labels[g.identity * m : (g.identity + 1) * m].any() and all(
            np.ptp(walk_sums(ids, signs, labels, self.coeff.n)) == 0 for ids, signs in _presentation(g).cycles)

    def class_of(self, sigma: Cochain2) -> CohomologyClass:
        if sigma.group is not self.group:
            raise ParseError("cochain lives on a different group")
        if sigma.modulus != self.coeff.n:
            raise ParseError("cochain modulus does not match the coefficient module")
        if not is_cocycle(sigma):
            raise NotCocycle("cochain fails the cocycle equations")
        return self._class_of_labels(sigma.values[:, list(self.group.gens)].ravel())

    def pairing_class(self, a, b) -> CohomologyClass:
        """The class of (N/2) a (x) b for characters a, b: G -> Z_2 (values
        one per element).  A bilinear pairing of characters is a normalized
        cocycle, so its labels (N/2) a(x) b(s) need no cocycle check."""
        g = self.group
        a, b = (np.asarray(v, dtype=np.int64) % 2 for v in (a, b))
        if a.shape != (g.order,) or b.shape != (g.order,):
            raise ParseError("a character needs one value per group element")
        if not is_character(g, np.stack([a, b], axis=1), 2):
            raise NotCocycle("a Z_2 pairing needs two characters G -> Z_2")
        half, odd = divmod(self.coeff.n, 2)
        if odd and a.any() and b.any():
            raise ParseError("a nonzero Z_2 pairing needs an even coefficient modulus")
        return self._class_of_labels((half * np.outer(a, b[list(g.gens)])).ravel())

    def _class_of_labels(self, labels: np.ndarray) -> CohomologyClass:
        """The class of the cocycle with edge labels `labels` (n |S|,)."""
        if self._sys is None:
            # no prime can contribute: every cocycle is in the zero class
            return self.zero_class()
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


def _check_h2_budget(order: int, budget: int) -> None:
    """Refuse the H^2 of a group of this order when (|G|-1)^2 exceeds the budget."""
    if (order - 1) ** 2 > budget:
        raise BudgetExceeded(f"H^2 budget {budget} is below (|G|-1)^2 = {(order - 1) ** 2}; raise --budget-h2")


def _h2_impl(g: FiniteGroup, coeff: CoefficientModule, mode: str) -> CohomologyGroup:
    n = g.order
    N = coeff.n
    # a prime contributes only if it divides |G| (Z_N), or |G| / exp(G) (closed)
    live = n // group_exponent(g) if mode == "closed" else n
    # v_p(N) is the first e with p^(e+1) not dividing N; N itself is never factored
    primes = [(p, next(e for e in itertools.count() if N % p ** (e + 1))) for p, _ in prime_power_factors(live) if N % p == 0]
    if not primes:
        return CohomologyGroup(group=g, coeff=coeff, field_mode=mode, invariants=())
    sys = _presentation(g)
    B = _coboundary_values(sys, mode, N)

    pieces: list[_PrimePiece] = []
    for p, e in primes:
        q = p**e
        L, C = sys.system(q)
        K = _cocycle_kernel(C, p, e)
        ksnf = snf_mod(K, p, e, want_l=True, want_r=True)
        X = solve_from_snf(ksnf, B % q)
        if X is None:
            raise ParseError("coboundary outside the cocycle module (internal error)")
        ck = cokernel_mod(np.hstack([X, kernel_from_snf(ksnf)]), p, e)
        pieces.append(_PrimePiece(q=q, ksnf=ksnf, ck=ck, labels=L @ (K @ ck.Linv % q) % q))
    # H^2 is the sum of the prime pieces; only its factors are needed here
    invariants, _ = direct_sum([(piece.ck.orders, np.zeros(len(piece.ck.orders), dtype=np.int64)) for piece in pieces])
    return CohomologyGroup(group=g, coeff=coeff, field_mode=mode, invariants=invariants, _pieces=pieces, _sys=sys)


def h2(g: FiniteGroup, coeff: CoefficientModule | int, budget: int = DEFAULT_H2_BUDGET) -> CohomologyGroup:
    """H^2(G, Z_N) with trivial action, as invariant factors plus generator labels."""
    if isinstance(coeff, int):
        coeff = CoefficientModule(coeff)
    _check_h2_budget(g.order, budget)
    return g.memo(("h2", "muN", coeff.n), lambda: _h2_impl(g, coeff, "muN"))


def group_exponent(g: FiniteGroup) -> int:
    """exp(G) from power maps over the table: for p^v || |G| the p-part of
    exp(G) is the least p^a with (x^(|G|/p^v))^(p^a) = 1 for every x."""
    mul, e = np.asarray(g.mul), g.identity
    out = 1
    for p, v in prime_power_factors(g.order):
        y = _power_map(mul, e, np.arange(g.order), g.order // p**v)
        while (y != e).any():
            y = _power_map(mul, e, y, p)
            out *= p
    return out


def _power_map(mul: np.ndarray, identity: int, x: np.ndarray, k: int) -> np.ndarray:
    """x^k for every element of the array x, by repeated squaring."""
    out = np.full_like(x, identity)
    while k:
        if k & 1:
            out = mul[out, x]
        x, k = mul[x, x], k >> 1
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
    _check_h2_budget(g.order, budget)
    return g.memo(("h2", "closed", m), lambda: _h2_impl(g, CoefficientModule(m), "closed"))


def h2_real_closed(g: FiniteGroup, budget: int = DEFAULT_H2_BUDGET) -> CohomologyGroup:
    """H^2(G, k*) for real closed k: positive elements are uniquely divisible,
    so the coefficients reduce to {+1, -1} = Z_2."""
    return h2(g, CoefficientModule(2), budget)
