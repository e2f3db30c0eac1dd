"""The Hopf algebra k[G] (x) Lambda(V) with exact structure constants,
its triangular R-matrices, lazy 2-cocycles and the resulting lazy
cohomology and Brauer group reports.

Basis elements are g * v_P for P an increasing subset of {1..n}, encoded as
an integer g_index * 2**n + bitmask.  Products use Koszul signs inside the
exterior algebra and the reindexing rule v_i g = g (g^{-1}.v_i); the
coproduct is determined by Delta(g) = g (x) g and Delta(v) = v (x) 1 + u (x) v,
which matches E(n) under c -> u, x_i -> u v_i.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotInvariant, NotMinusOne, NotSymmetric, ParseError
from .cohomology import CohomologyGroup, h2_closed_field
from .forms import (
    Matrix,
    Representation,
    SymFormSpace,
    acts_as_minus_one,
    as_matrix,
    invariant_symmetric_forms,
    is_invariant_form,
    is_symmetric,
)
from .groups import CentralInvolution, FiniteGroup, _det, cyclic_group, quotient_by_central_involution, splitting_character
from .sharp import BMGroup, FieldDescriptor, bm_group

DEFAULT_DIM_BUDGET = 64
SAMPLED_TRIPLES = 1500

Element = dict[int, Fraction]
Tensor = dict[tuple[int, int], Fraction]
Tensor3 = dict[tuple[int, int, int], Fraction]


def _popcount_above(mask: int, j: int) -> int:
    return bin(mask >> (j + 1)).count("1")


def wedge_sign(m1: int, m2: int) -> int:
    """Sign of v_{m1} ^ v_{m2} merged into increasing order; 0 on overlap."""
    if m1 & m2:
        return 0
    sign = 1
    m = m2
    while m:
        j = (m & -m).bit_length() - 1
        if _popcount_above(m1, j) % 2:
            sign = -sign
        m &= m - 1
    return sign


@dataclass(eq=False)
class SupergroupAlgebra:
    """k[G] (x) Lambda(V) for a group datum (G, u, rho) with rho(u) = -1."""

    group: FiniteGroup
    inv: CentralInvolution
    rep: Representation
    nv: int = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        if self.rep.group is not self.group or self.inv.group is not self.group:
            raise ParseError("group datum components live on different groups")
        if not acts_as_minus_one(self.rep, self.inv):
            raise NotMinusOne("u must act as -1 on V")
        self.nv = self.rep.dim
        self.dim = self.group.order * (1 << self.nv)
        self._prod: dict[tuple[int, int], Element] = {}
        self._cop: dict[int, list[tuple[int, int, Fraction]]] = {}
        self._anti: dict[int, Element] = {}
        self._action: dict[tuple[int, int], dict[int, Fraction]] = {}

    # encoding ---------------------------------------------------------

    def encode(self, g: int, mask: int) -> int:
        return g * (1 << self.nv) + mask

    def decode(self, b: int) -> tuple[int, int]:
        return divmod(b, 1 << self.nv)

    def basis(self) -> range:
        return range(self.dim)

    @property
    def unit(self) -> int:
        return self.encode(self.group.identity, 0)

    @property
    def u_element(self) -> int:
        return self.encode(self.inv.u, 0)

    def v_element(self, i: int) -> int:
        return self.encode(self.group.identity, 1 << i)

    def label(self, b: int) -> str:
        g, mask = self.decode(b)
        vs = "".join(f"v{i}" for i in range(self.nv) if (mask >> i) & 1)
        return f"g{g}{('*' + vs) if vs else ''}"

    # structure constants ----------------------------------------------

    def inverse_action(self, h: int, mask: int) -> dict[int, Fraction]:
        """h^{-1}.v_P as {mask R: coefficient}, computed once per (h, P): the
        image of v_{P minus its top index} wedged with h^{-1}.v_top."""
        key = (h, mask)
        out = self._action.get(key)
        if out is not None:
            return out
        out = {}
        if mask == 0:
            out[0] = Fraction(1)
        else:
            i = mask.bit_length() - 1
            mat = self.rep.matrix(int(self.group.inv[h]))
            for em, c in self.inverse_action(h, mask & ~(1 << i)).items():
                for j in range(self.nv):
                    a = mat[j][i]
                    if a == 0 or (em >> j) & 1:
                        continue
                    sign = -1 if _popcount_above(em, j) % 2 else 1
                    _tns_add(out, em | (1 << j), c * a * sign)
        self._action[key] = out
        return out

    def product_basis(self, b1: int, b2: int) -> Element:
        key = (b1, b2)
        out = self._prod.get(key)
        if out is not None:
            return out
        g, pmask = self.decode(b1)
        h, qmask = self.decode(b2)
        gh = int(self.group.mul[g, h])
        out = {}
        for rmask, c in self.inverse_action(h, pmask).items():
            s = wedge_sign(rmask, qmask)
            if s:
                _tns_add(out, self.encode(gh, rmask | qmask), c * s)
        self._prod[key] = out
        return out

    def mul_elements(self, x: Element, y: Element) -> Element:
        out: Element = {}
        for b1, c1 in x.items():
            for b2, c2 in y.items():
                for b3, c3 in self.product_basis(b1, b2).items():
                    val = out.get(b3, Fraction(0)) + c1 * c2 * c3
                    if val:
                        out[b3] = val
                    elif b3 in out:
                        del out[b3]
        return out

    def coproduct_basis(self, b: int) -> list[tuple[int, int, Fraction]]:
        got = self._cop.get(b)
        if got is not None:
            return got
        g, mask = self.decode(b)
        cur: Tensor = {(self.encode(g, 0), self.encode(g, 0)): Fraction(1)}
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            vi = self.v_element(i)
            u = self.u_element
            nxt: Tensor = {}
            for (b1, b2), c in cur.items():
                for nb1, c1 in self.product_basis(b1, vi).items():
                    _tns_add(nxt, (nb1, b2), c * c1)
                for nb1, c1 in self.product_basis(b1, u).items():
                    for nb2, c2 in self.product_basis(b2, vi).items():
                        _tns_add(nxt, (nb1, nb2), c * c1 * c2)
            cur = nxt
        out = [(b1, b2, c) for (b1, b2), c in cur.items() if c]
        self._cop[b] = out
        return out

    def counit_basis(self, b: int) -> Fraction:
        _, mask = self.decode(b)
        return Fraction(1) if mask == 0 else Fraction(0)

    def antipode_basis(self, b: int) -> Element:
        got = self._anti.get(b)
        if got is not None:
            return got
        g, mask = self.decode(b)
        acc: Element = {self.unit: Fraction(1)}
        bits = [i for i in range(self.nv) if (mask >> i) & 1]
        for i in reversed(bits):
            term = self.mul_elements({self.u_element: Fraction(1)}, {self.v_element(i): Fraction(1)})
            acc = self.mul_elements(acc, term)
        acc = self.mul_elements(acc, {self.encode(int(self.group.inv[g]), 0): Fraction(1)})
        if len(bits) % 2:
            acc = {k: -v for k, v in acc.items()}
        self._anti[b] = acc
        return acc


def _tns_add(t: dict, key, val: Fraction) -> None:
    cur = t.get(key, Fraction(0)) + val
    if cur:
        t[key] = cur
    elif key in t:
        del t[key]


def build_supergroup(g: FiniteGroup, inv: CentralInvolution, rep: Representation) -> SupergroupAlgebra:
    """Construct k[G] (x) Lambda(V); requires rho(u) = -1 exactly."""
    return SupergroupAlgebra(group=g, inv=inv, rep=rep)


def build_en(n: int) -> SupergroupAlgebra:
    """E(n): the supergroup algebra of G = Z_2 with V = n copies of the sign
    representation (E(1) is Sweedler's 4-dimensional Hopf algebra)."""
    g = cyclic_group(2)
    inv = CentralInvolution(g, 1)
    minus = tuple(tuple(Fraction(-1) if i == j else Fraction(0) for j in range(n)) for i in range(n))
    rep = Representation(group=g, dim=n, gen_matrices=[minus])
    return build_supergroup(g, inv, rep)


# ---------------------------------------------------------------------------
# tensors in H (x) H and H (x) H (x) H


def tensor_mul(h: SupergroupAlgebra, t1: Tensor, t2: Tensor) -> Tensor:
    out: Tensor = {}
    for (a, b), c1 in t1.items():
        for (c, d), c2 in t2.items():
            for x, cx in h.product_basis(a, c).items():
                for y, cy in h.product_basis(b, d).items():
                    _tns_add(out, (x, y), c1 * c2 * cx * cy)
    return out


def tensor3_mul(h: SupergroupAlgebra, t1: Tensor3, t2: Tensor3) -> Tensor3:
    out: Tensor3 = {}
    for (a, b, c), c1 in t1.items():
        for (d, e, f), c2 in t2.items():
            for x, cx in h.product_basis(a, d).items():
                for y, cy in h.product_basis(b, e).items():
                    for z, cz in h.product_basis(c, f).items():
                        _tns_add(out, (x, y, z), c1 * c2 * cx * cy * cz)
    return out


def tensor_flip(t: Tensor) -> Tensor:
    return {(b, a): c for (a, b), c in t.items()}


def embed_13(h: SupergroupAlgebra, t: Tensor) -> Tensor3:
    return {(a, h.unit, b): c for (a, b), c in t.items()}


def embed_12(h: SupergroupAlgebra, t: Tensor) -> Tensor3:
    return {(a, b, h.unit): c for (a, b), c in t.items()}


def embed_23(h: SupergroupAlgebra, t: Tensor) -> Tensor3:
    return {(h.unit, a, b): c for (a, b), c in t.items()}


def coproduct_first(h: SupergroupAlgebra, t: Tensor) -> Tensor3:
    out: Tensor3 = {}
    for (a, b), c in t.items():
        for a1, a2, ca in h.coproduct_basis(a):
            _tns_add(out, (a1, a2, b), c * ca)
    return out


def coproduct_second(h: SupergroupAlgebra, t: Tensor) -> Tensor3:
    out: Tensor3 = {}
    for (a, b), c in t.items():
        for b1, b2, cb in h.coproduct_basis(b):
            _tns_add(out, (a, b1, b2), c * cb)
    return out


def r_u(h: SupergroupAlgebra) -> Tensor:
    """R_u = (1/2)(1x1 + 1xu + ux1 - uxu)."""
    one, u = h.unit, h.u_element
    half = Fraction(1, 2)
    return {(one, one): half, (one, u): half, (u, one): half, (u, u): -half}


def _checked_form(a, h: SupergroupAlgebra, what: str, en: bool = False) -> Matrix:
    """a as a symmetric dim V x dim V matrix; with en, h must also be some E(n)."""
    A = as_matrix(a)
    if not is_symmetric(A):
        raise NotSymmetric(f"{what} needs a symmetric matrix")
    if en and h.group.order != 2:
        raise ParseError(f"{what} lives on E(n), i.e. G = Z_2")
    if len(A) != h.nv:
        raise ParseError("matrix size must match dim V")
    return A


def _signed_minors(a: Matrix) -> dict[tuple[int, int], Fraction]:
    """{(mask P, mask Q): (-1)^(s(s-1)/2) det A[P,Q]} over |P| = |Q| = s, nonzero values only."""
    n = len(a)
    out: dict[tuple[int, int], Fraction] = {}
    for s in range(n + 1):
        pref = (-1) ** (s * (s - 1) // 2)
        subsets = [(sum(1 << i for i in P), P) for P in itertools.combinations(range(n), s)]
        for pm, P in subsets:
            for qm, Q in subsets:
                d = _det([[a[i][j] for j in Q] for i in P])
                if d:
                    out[(pm, qm)] = pref * d
    return out


def r_matrix_RA(a, h: SupergroupAlgebra) -> Tensor:
    """The triangular R-matrix of E(n) attached to a symmetric matrix A.

    R_A = (1/2) sum_{|P|=|F|} (-1)^(s(s-1)/2) det A[P,F]
          (v_P x v_F + u v_P x v_F + (-1)^s v_P x u v_F - (-1)^s u v_P x u v_F).
    """
    A = _checked_form(a, h, "R_A", en=True)
    e, uu = h.group.identity, h.inv.u
    out: Tensor = {}
    for (pm, fm), minor in _signed_minors(A).items():
        coef = minor / 2
        sgn = -1 if bin(pm).count("1") % 2 else 1
        _tns_add(out, (h.encode(e, pm), h.encode(e, fm)), coef)
        _tns_add(out, (h.encode(uu, pm), h.encode(e, fm)), coef)
        _tns_add(out, (h.encode(e, pm), h.encode(uu, fm)), coef * sgn)
        _tns_add(out, (h.encode(uu, pm), h.encode(uu, fm)), -coef * sgn)
    return out


def dual_r_matrix(a, h: SupergroupAlgebra) -> HCochain2:
    """The dual triangular structure r_A of the self-dual E(n), as a functional
    on H (x) H; omega_Sigma = r_0 * r_{-Sigma} in the convolution algebra."""
    A = _checked_form(a, h, "r_A", en=True)
    vals = [[Fraction(0)] * h.dim for _ in range(h.dim)]
    e, uu = h.group.identity, h.inv.u
    for (pm, fm), coef in _signed_minors(A).items():
        sgn = -1 if bin(pm).count("1") % 2 else 1
        vals[h.encode(e, pm)][h.encode(e, fm)] += coef
        vals[h.encode(e, pm)][h.encode(uu, fm)] += coef
        vals[h.encode(uu, pm)][h.encode(e, fm)] += coef * sgn
        vals[h.encode(uu, pm)][h.encode(uu, fm)] += -coef * sgn
    return HCochain2(h, vals)


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class VerifyReport:
    check: str
    passed: bool
    detail: str = ""
    counterexample: tuple | None = None
    sampled: bool = False

    def __bool__(self) -> bool:
        return self.passed


def _basis_tuples(h: SupergroupAlgebra, arity: int, budget: int, seed: int):
    """All arity-tuples of basis elements while dim <= budget, else
    SAMPLED_TRIPLES tuples drawn from random.Random(seed); returns (tuples, sampled)."""
    if h.dim <= budget:
        return itertools.product(h.basis(), repeat=arity), False
    rng = random.Random(seed)
    return [tuple(rng.randrange(h.dim) for _ in range(arity)) for _ in range(SAMPLED_TRIPLES)], True


def verify_hopf(h: SupergroupAlgebra, budget: int = DEFAULT_DIM_BUDGET, seed: int = 0) -> VerifyReport:
    """Bialgebra and antipode axioms on basis elements (pairs exhaustive up to
    the dim budget, sampled beyond)."""
    pairs, sampled = _basis_tuples(h, 2, budget, seed)
    pairs = list(pairs)
    singles = sorted({a for p in pairs for a in p})
    # counit and antipode laws
    for b in singles:
        cop = h.coproduct_basis(b)
        left = {}
        right = {}
        anti1: Element = {}
        anti2: Element = {}
        for b1, b2, c in cop:
            _tns_add(left, b2, c * h.counit_basis(b1))
            _tns_add(right, b1, c * h.counit_basis(b2))
            for z, cz in h.mul_elements(h.antipode_basis(b1), {b2: Fraction(1)}).items():
                _tns_add(anti1, z, c * cz)
            for z, cz in h.mul_elements({b1: Fraction(1)}, h.antipode_basis(b2)).items():
                _tns_add(anti2, z, c * cz)
        if left != {b: Fraction(1)} or right != {b: Fraction(1)}:
            return VerifyReport("hopf", False, "counit law fails", (h.label(b),), sampled)
        eps = {h.unit: h.counit_basis(b)} if h.counit_basis(b) else {}
        if anti1 != eps or anti2 != eps:
            return VerifyReport("hopf", False, "antipode axiom fails", (h.label(b),), sampled)
        # coassociativity
        lhs: Tensor3 = {}
        rhs: Tensor3 = {}
        for b1, b2, c in cop:
            for x1, x2, cx in h.coproduct_basis(b1):
                _tns_add(lhs, (x1, x2, b2), c * cx)
            for y1, y2, cy in h.coproduct_basis(b2):
                _tns_add(rhs, (b1, y1, y2), c * cy)
        if lhs != rhs:
            return VerifyReport("hopf", False, "coassociativity fails", (h.label(b),), sampled)
    # Delta is an algebra map
    for a, b in pairs:
        prod = h.product_basis(a, b)
        lhs2: Tensor = {}
        for z, cz in prod.items():
            for z1, z2, c in h.coproduct_basis(z):
                _tns_add(lhs2, (z1, z2), cz * c)
        rhs2 = tensor_mul(h, _cop_tensor(h, a), _cop_tensor(h, b))
        if lhs2 != rhs2:
            return VerifyReport("hopf", False, "coproduct not multiplicative", (h.label(a), h.label(b)), sampled)
    return VerifyReport("hopf", True, f"dim {h.dim}", None, sampled)


def _cop_tensor(h: SupergroupAlgebra, b: int) -> Tensor:
    return {(b1, b2): c for b1, b2, c in h.coproduct_basis(b)}


def verify_quasitriangular(h: SupergroupAlgebra, r: Tensor, budget: int = DEFAULT_DIM_BUDGET, seed: int = 0) -> VerifyReport:
    """(Delta x id)R = R13 R23, (id x Delta)R = R13 R12, R Delta = Delta^op R."""
    lhs = coproduct_first(h, r)
    rhs = tensor3_mul(h, embed_13(h, r), embed_23(h, r))
    if lhs != rhs:
        return VerifyReport("quasitriangular", False, "(Delta x id)R != R13 R23")
    lhs = coproduct_second(h, r)
    rhs = tensor3_mul(h, embed_13(h, r), embed_12(h, r))
    if lhs != rhs:
        return VerifyReport("quasitriangular", False, "(id x Delta)R != R13 R12")
    # counit normalization
    eps1: Element = {}
    eps2: Element = {}
    for (a, b), c in r.items():
        _tns_add(eps1, b, c * h.counit_basis(a))
        _tns_add(eps2, a, c * h.counit_basis(b))
    if eps1 != {h.unit: Fraction(1)} or eps2 != {h.unit: Fraction(1)}:
        return VerifyReport("quasitriangular", False, "(eps x id)R != 1")
    elems, sampled = _basis_tuples(h, 1, budget, seed)
    for (b,) in elems:
        d = _cop_tensor(h, b)
        dop = tensor_flip(d)
        if tensor_mul(h, r, d) != tensor_mul(h, dop, r):
            return VerifyReport("quasitriangular", False, "R Delta != Delta^op R", (h.label(b),), sampled)
    return VerifyReport("quasitriangular", True, "", None, sampled)


def verify_triangular(h: SupergroupAlgebra, r: Tensor, budget: int = DEFAULT_DIM_BUDGET, seed: int = 0) -> VerifyReport:
    rep = verify_quasitriangular(h, r, budget, seed)
    if not rep.passed:
        return VerifyReport("triangular", False, rep.detail, rep.counterexample, rep.sampled)
    prod = tensor_mul(h, tensor_flip(r), r)
    if prod != {(h.unit, h.unit): Fraction(1)}:
        return VerifyReport("triangular", False, "R21 * R != 1 x 1")
    return VerifyReport("triangular", True, "", None, rep.sampled)


# ---------------------------------------------------------------------------
# cochains on H


@dataclass(eq=False)
class HCochain2:
    """Normalized 2-cochain on H: sigma(1, x) = sigma(x, 1) = eps(x).

    values[a] is the row sigma(a, .); rows may be shared between basis
    elements (lambda_cocycle shares one immutable row per subset P)."""

    algebra: SupergroupAlgebra
    values: Sequence[Sequence[Fraction]]

    def __post_init__(self) -> None:
        h = self.algebra
        one = h.unit
        for b in h.basis():
            if self.values[one][b] != h.counit_basis(b) or self.values[b][one] != h.counit_basis(b):
                raise ParseError("H-cochain is not normalized")

    def __call__(self, b1: int, b2: int) -> Fraction:
        return self.values[b1][b2]

    def equals(self, other: "HCochain2") -> bool:
        return len(self.values) == len(other.values) and all(
            a is b or tuple(a) == tuple(b) for a, b in zip(self.values, other.values)
        )


def eps_tensor_eps(h: SupergroupAlgebra) -> HCochain2:
    vals = [[h.counit_basis(a) * h.counit_basis(b) for b in h.basis()] for a in h.basis()]
    return HCochain2(h, vals)


def convolve(s1: HCochain2, s2: HCochain2) -> HCochain2:
    """(s1 * s2)(a, b) = sum s1(a1, b1) s2(a2, b2)."""
    h = s1.algebra
    vals = [[Fraction(0)] * h.dim for _ in range(h.dim)]
    for a in h.basis():
        ca = h.coproduct_basis(a)
        for b in h.basis():
            cb = h.coproduct_basis(b)
            acc = Fraction(0)
            for a1, a2, x in ca:
                for b1, b2, y in cb:
                    acc += x * y * s1.values[a1][b1] * s2.values[a2][b2]
            vals[a][b] = acc
    return HCochain2(h, vals)


def _cocycle_check(sigma: HCochain2, coproduct, check: str, detail: str, budget: int, seed: int) -> VerifyReport:
    """sum sigma(a1,b1) sigma(a2 b2, c) = sum sigma(b1,c1) sigma(a, b2 c2), where
    coproduct(b) lists the splits (b1, b2, coefficient) of Delta(b)."""
    h = sigma.algebra
    triples, sampled = _basis_tuples(h, 3, budget, seed)
    for a, b, c in triples:
        lhs = Fraction(0)
        for a1, a2, x in coproduct(a):
            for b1, b2, y in coproduct(b):
                s1 = sigma.values[a1][b1]
                if not s1:
                    continue
                inner = Fraction(0)
                for z, cz in h.product_basis(a2, b2).items():
                    inner += cz * sigma.values[z][c]
                lhs += x * y * s1 * inner
        rhs = Fraction(0)
        for b1, b2, y in coproduct(b):
            for c1, c2, w in coproduct(c):
                s1 = sigma.values[b1][c1]
                if not s1:
                    continue
                inner = Fraction(0)
                for z, cz in h.product_basis(b2, c2).items():
                    inner += cz * sigma.values[a][z]
                rhs += y * w * s1 * inner
        if lhs != rhs:
            return VerifyReport(check, False, detail, (h.label(a), h.label(b), h.label(c)), sampled)
    return VerifyReport(check, True, "", None, sampled)


def is_left_cocycle(sigma: HCochain2, budget: int = DEFAULT_DIM_BUDGET, seed: int = 0) -> VerifyReport:
    """sum sigma(a1,b1) sigma(a2 b2, c) = sum sigma(b1,c1) sigma(a, b2 c2)."""
    return _cocycle_check(sigma, sigma.algebra.coproduct_basis, "left-cocycle", "cocycle equation fails", budget, seed)


def is_right_cocycle(sigma: HCochain2, budget: int = DEFAULT_DIM_BUDGET, seed: int = 0) -> VerifyReport:
    """sum sigma(a1 b1, c) sigma(a2, b2) = sum sigma(a, b1 c1) sigma(b2, c2):
    the left cocycle equation on H^cop, whose coproduct swaps the two factors."""
    h = sigma.algebra
    cop: dict[int, list[tuple[int, int, Fraction]]] = {}

    def coproduct_op(b: int) -> list[tuple[int, int, Fraction]]:
        if b not in cop:
            cop[b] = [(b2, b1, c) for b1, b2, c in h.coproduct_basis(b)]
        return cop[b]

    return _cocycle_check(sigma, coproduct_op, "right-cocycle", "right cocycle equation fails", budget, seed)


def is_lazy(sigma: HCochain2, budget: int = DEFAULT_DIM_BUDGET, seed: int = 0) -> VerifyReport:
    """sum sigma(a1,b1) a2 b2 = sum sigma(a2,b2) a1 b1 in H."""
    h = sigma.algebra
    pairs, sampled = _basis_tuples(h, 2, budget, seed)
    for a, b in pairs:
        lhs: Element = {}
        rhs: Element = {}
        for a1, a2, x in h.coproduct_basis(a):
            for b1, b2, y in h.coproduct_basis(b):
                c = x * y
                s = sigma.values[a1][b1]
                if s:
                    for z, cz in h.product_basis(a2, b2).items():
                        _tns_add(lhs, z, c * s * cz)
                s = sigma.values[a2][b2]
                if s:
                    for z, cz in h.product_basis(a1, b1).items():
                        _tns_add(rhs, z, c * s * cz)
        if lhs != rhs:
            return VerifyReport("lazy", False, "lazy condition fails", (h.label(a), h.label(b)), sampled)
    return VerifyReport("lazy", True, "", None, sampled)


def is_convolution_invertible(sigma: HCochain2) -> tuple[bool, HCochain2 | None]:
    """Solve sigma * tau = eps x eps degree by degree along the Lambda V filtration.

    The top split of Delta(g v_P) is g u^|P| (x) g v_P with coefficient 1, so
    the system is triangular once sigma is nonzero on grouplike pairs.
    """
    h = sigma.algebra
    vals = [[Fraction(0)] * h.dim for _ in range(h.dim)]
    order = sorted(
        ((a, b) for a in h.basis() for b in h.basis()),
        key=lambda ab: bin(h.decode(ab[0])[1]).count("1") + bin(h.decode(ab[1])[1]).count("1"),
    )
    for a, b in order:
        ga, ma = h.decode(a)
        gb, mb = h.decode(b)
        top_a = h.encode(int(_u_power(h, ga, bin(ma).count("1"))), 0)
        top_b = h.encode(int(_u_power(h, gb, bin(mb).count("1"))), 0)
        lead = sigma.values[top_a][top_b]
        if lead == 0:
            return False, None
        target = h.counit_basis(a) * h.counit_basis(b)
        acc = Fraction(0)
        for a1, a2, x in h.coproduct_basis(a):
            for b1, b2, y in h.coproduct_basis(b):
                if a2 == a and b2 == b:
                    continue  # the leading term, solved for below
                acc += x * y * sigma.values[a1][b1] * vals[a2][b2]
        vals[a][b] = (target - acc) / lead
    tau = HCochain2(h, vals)
    if not convolve(sigma, tau).equals(eps_tensor_eps(h)):
        return False, None
    if not convolve(tau, sigma).equals(eps_tensor_eps(h)):
        return False, None
    return True, tau


def _u_power(h: SupergroupAlgebra, g: int, k: int) -> int:
    out = g
    for _ in range(k % 2):
        out = int(h.group.mul[out, h.inv.u])
    return out


# ---------------------------------------------------------------------------
# omega_Sigma and the lazy cocycle lambda


def omega_sigma(sigma_matrix, h: SupergroupAlgebra) -> HCochain2:
    """The lazy E(n)-cocycle with omega(v_P, v_Q) = +-det of the (P,Q) minor.

    omega(u^a v_P, u^b v_Q) = 0 unless |P| = |Q| = s, in which case it is
    (-1)^(b s) (-1)^(s(s-1)/2) det_{PQ}(Sigma); in particular
    omega(v_i, v_j) = Sigma_ij and omega = eps x eps when Sigma = 0.
    This is lambda on E(n), where u acts on V as -1.
    """
    return lambda_cocycle(h, _checked_form(sigma_matrix, h, "omega_Sigma", en=True))


def lambda_cocycle(h: SupergroupAlgebra, sigma_matrix, require_invariant: bool = True) -> HCochain2:
    """lambda(g v_P, h v_Q) = omega_Sigma(h^{-1}.v_P, v_Q), the lazy cocycle
    attached to an invariant symmetric form.

    The row lambda(g v_P, .) does not depend on g, so one immutable row is
    built per subset P and shared by every g v_P."""
    S = _checked_form(sigma_matrix, h, "lambda")
    if require_invariant and not is_invariant_form(h.rep, S):
        raise NotInvariant("symmetric form is not G-invariant")
    by_first: dict[int, list[tuple[int, Fraction]]] = {}
    for (rm, qm), minor in _signed_minors(S).items():
        by_first.setdefault(rm, []).append((qm, minor))
    rows = []
    for pm in range(1 << h.nv):
        row = [Fraction(0)] * h.dim
        for hh in range(h.group.order):
            for rm, c in h.inverse_action(hh, pm).items():
                for qm, minor in by_first.get(rm, ()):
                    row[h.encode(hh, qm)] += c * minor
        rows.append(tuple(row))
    return HCochain2(h, [rows[h.decode(b)[1]] for b in h.basis()])


# ---------------------------------------------------------------------------
# lazy cohomology and the Brauer group of the supergroup algebra


@dataclass(eq=False)
class LazyCohomology:
    """H^2_L(H) = S^2(V*)^G x H^2(G/U, k*): linear dimension plus group part."""

    algebra: SupergroupAlgebra
    linear_dim: int
    group_part: CohomologyGroup
    k_trivial: bool  # CoInt/CoInn is trivial iff a splitting character exists
    sym_forms: SymFormSpace | None

    @property
    def invariants(self) -> tuple[int, ...]:
        return self.group_part.invariants


def lazy_cohomology(h: SupergroupAlgebra, budget: int | None = None) -> LazyCohomology:
    kwargs = {} if budget is None else {"budget": budget}
    if h.nv == 0:
        group_part = h2_closed_field(h.group, **kwargs)
        if h.inv.is_trivial:
            k_trivial = True
        else:
            k_trivial = splitting_character(h.inv) is not None
        return LazyCohomology(h, 0, group_part, k_trivial, None)
    forms = invariant_symmetric_forms(h.rep)
    qd = quotient_by_central_involution(h.inv)
    group_part = h2_closed_field(qd.quotient, **kwargs)
    k_trivial = splitting_character(h.inv) is not None
    return LazyCohomology(h, forms.dim, group_part, k_trivial, forms)


@dataclass(eq=False)
class BMSupergroup:
    """BM(k, k[G] (x) Lambda V, R_u) = BM(k, k[G], R_u) x S^2(V*)^G."""

    bm: BMGroup
    linear_dim: int

    @property
    def invariants(self) -> tuple[int, ...]:
        return self.bm.invariants


def bm_supergroup(
    g: FiniteGroup,
    inv: CentralInvolution,
    rep: Representation,
    field: FieldDescriptor,
    budget: int | None = None,
) -> BMSupergroup:
    if not acts_as_minus_one(rep, inv):
        raise NotMinusOne("u must act as -1 on V")
    forms = invariant_symmetric_forms(rep)
    kwargs = {} if budget is None else {"budget": budget}
    bm = bm_group(g, inv, field, **kwargs)
    return BMSupergroup(bm=bm, linear_dim=forms.dim)
