"""The Hopf algebra k[G] (x) Lambda(V) with exact structure constants,
its triangular R-matrices, lazy 2-cocycles and the resulting lazy
cohomology and Brauer group reports.

Basis elements are g * v_P for P an increasing subset of {1..n}, encoded as
an integer g_index * 2**n + bitmask.  Products use Koszul signs inside the
exterior algebra and the reindexing rule v_i g = g (g^{-1}.v_i); the
coproduct is determined by Delta(g) = g (x) g and Delta(v) = v (x) 1 + u (x) v,
which matches E(n) under c -> u, x_i -> u v_i.

One routine, _compound, builds the exterior power Lambda(M) of a matrix: the
group action h^{-1}.v_P is column P of Lambda rho(h^{-1}), and R_A, r_A,
omega_Sigma and lambda read their signed minors det A[P,Q] off Lambda(A).
Delta and S are written in closed form, with A = P minus B:
  Delta(g v_P) = sum_{B in P} wedge_sign(B, A) g u^|B| v_A (x) g v_B,
  S(g v_P) = (-1)^|P| u^|P| g^{-1} (g.v_P).
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotInvariant, NotMinusOne, NotSymmetric, ParseError
from .cohomology import DEFAULT_H2_BUDGET, CohomologyGroup, h2_closed_field
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
from .groups import CentralInvolution, FiniteGroup, cyclic_group, quotient_by_central_involution, splitting_character
from .sharp import ENUMERATION_BUDGET, BMGroup, FieldDescriptor, bm_group

DEFAULT_DIM_BUDGET = 64
SAMPLED_TRIPLES = 1500

# coefficients are int wherever a value is integral and Fraction where a
# denominator survives; both are exact and compare equal across the types
Element = dict[int, int | Fraction]
Tensor = dict[tuple[int, int], int | Fraction]
Tensor3 = dict[tuple[int, int, int], int | Fraction]


def _exact(x: int | Fraction) -> int | Fraction:
    """x as an int when it is integral: int arithmetic is several times
    faster than Fraction arithmetic and stays exact."""
    return x.numerator if x.denominator == 1 else x


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
        self._cop: dict[int, list[tuple[int, int, int]]] = {}
        self._anti: dict[int, Element] = {}
        self._action: dict[int, list[Element]] = {}  # h -> the columns of Lambda rho(h^{-1})

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

    def inverse_action(self, h: int, mask: int) -> Element:
        """h^{-1}.v_P as {mask R: coefficient}: column P of Lambda rho(h^{-1}),
        built once per h."""
        cols = self._action.get(h)
        if cols is None:
            cols = self._action[h] = _compound(self.rep.matrix(int(self.group.inv[h])), self.nv)
        return cols[mask]

    def times_u(self, g: int, k: int) -> int:
        """The group element g u^k (u is central of order 2)."""
        return int(self.group.mul[g, self.inv.u]) if k % 2 else g

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
                    val = out.get(b3, 0) + c1 * c2 * c3
                    if val:
                        out[b3] = val
                    elif b3 in out:
                        del out[b3]
        return out

    def coproduct_basis(self, b: int) -> list[tuple[int, int, int]]:
        """Delta(g v_P) = sum_{B in P} wedge_sign(B, A) g u^|B| v_A (x) g v_B, A = P minus B:
        in (g x g) prod_i (v_i x 1 + u x v_i) each u moves left past the v_a with
        a < b, and v_a u = -u v_a."""
        got = self._cop.get(b)
        if got is None:
            g, mask = self.decode(b)
            got = self._cop[b] = [
                (self.encode(self.times_u(g, bin(sub).count("1")), mask ^ sub), self.encode(g, sub),
                 wedge_sign(sub, mask ^ sub))
                for sub in range(mask + 1) if sub & mask == sub
            ]
        return got

    def counit_basis(self, b: int) -> int:
        _, mask = self.decode(b)
        return 1 if mask == 0 else 0

    def antipode_basis(self, b: int) -> Element:
        """S(g v_P) = (-1)^|P| u^|P| g^{-1} (g.v_P), from S(v_i) = -u v_i: moving the u's
        of S(v_P) = S(v_ik)...S(v_i1) left and reordering the v's give the same sign."""
        got = self._anti.get(b)
        if got is None:
            g, mask = self.decode(b)
            gi, s = int(self.group.inv[g]), bin(mask).count("1")
            top, sign = self.times_u(gi, s), (-1) ** s
            got = self._anti[b] = {self.encode(top, r): sign * c for r, c in self.inverse_action(gi, mask).items()}
        return got


def _tns_add(t: dict, key, val: int | Fraction) -> None:
    cur = t.get(key, 0) + val
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
# tensors in H (x) H


def tensor_mul(h: SupergroupAlgebra, t1: Tensor, t2: Tensor) -> Tensor:
    out: Tensor = {}
    for (a, b), c1 in t1.items():
        for (c, d), c2 in t2.items():
            for x, cx in h.product_basis(a, c).items():
                for y, cy in h.product_basis(b, d).items():
                    _tns_add(out, (x, y), c1 * c2 * cx * cy)
    return out


def tensor_flip(t: Tensor) -> Tensor:
    return {(b, a): c for (a, b), c in t.items()}


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


def _compound(mat: Matrix, n: int) -> list[Element]:
    """The exterior power Lambda(mat) of an n x n matrix: entry P is the column
    mat.v_P = {mask R: det mat[R, P]}, nonzero minors only.  Column P is column
    P minus its top index i wedged with column i of mat."""
    cols: list[Element] = [{0: 1}]
    for mask in range(1, 1 << n):
        i = mask.bit_length() - 1
        out: Element = {}
        for em, c in cols[mask & ~(1 << i)].items():
            for j in range(n):
                a = mat[j][i]
                if a == 0 or (em >> j) & 1:
                    continue
                sign = -1 if _popcount_above(em, j) % 2 else 1
                _tns_add(out, em | (1 << j), c * _exact(a) * sign)
        cols.append({r: _exact(c) for r, c in out.items()})
    return cols


def _signed_minors(a: Matrix) -> list[Element]:
    """Column Q of Lambda(A) signed: {mask P: (-1)^(s(s-1)/2) det A[P,Q]}, s = |Q|."""
    signs = [(-1) ** (s * (s - 1) // 2) for s in range(len(a) + 1)]
    return [{pm: signs[bin(qm).count("1")] * c for pm, c in col.items()} for qm, col in enumerate(_compound(a, len(a)))]


def r_matrix_RA(a, h: SupergroupAlgebra) -> Tensor:
    """The triangular R-matrix of E(n) attached to a symmetric matrix A.

    R_A = (1/2) sum_{|P|=|F|} (-1)^(s(s-1)/2) det A[P,F]
          (v_P x v_F + u v_P x v_F + (-1)^s v_P x u v_F - (-1)^s u v_P x u v_F).
    """
    A = _checked_form(a, h, "R_A", en=True)
    out: Tensor = {}
    for x, y, c in _minor_terms(A, h, dual=False):
        _tns_add(out, (x, y), _exact(Fraction(c, 2)))
    return out


def dual_r_matrix(a, h: SupergroupAlgebra) -> HCochain2:
    """The dual triangular structure r_A of the self-dual E(n), as a functional
    on H (x) H; omega_Sigma = r_0 * r_{-Sigma} in the convolution algebra."""
    A = _checked_form(a, h, "r_A", en=True)
    vals = [[0] * h.dim for _ in range(h.dim)]
    for x, y, c in _minor_terms(A, h, dual=True):
        vals[x][y] += c
    return HCochain2(h, vals)


def _minor_terms(A: Matrix, h: SupergroupAlgebra, dual: bool):
    """(x, y, c) for the four terms c (v_P x v_F + u v_P x v_F + (-1)^s v_P x u v_F
    - (-1)^s u v_P x u v_F) of each signed minor c of A, the sum of R_A without
    its 1/2; the dual r_A exchanges u v_P x v_F and v_P x u v_F."""
    e, uu = h.group.identity, h.inv.u
    middle = ((e, uu), (uu, e)) if dual else ((uu, e), (e, uu))
    for fm, col in enumerate(_signed_minors(A)):
        sgn = -1 if bin(fm).count("1") % 2 else 1
        for pm, c in col.items():
            for (g1, g2), coef in zip(((e, e), *middle, (uu, uu)), (c, c, c * sgn, -c * sgn)):
                yield h.encode(g1, pm), h.encode(g2, fm), coef


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


def _generators(h: SupergroupAlgebra) -> list[int]:
    """g for g in G.gens, then v_0 .. v_{n-1}: the algebra generators of H."""
    return [h.encode(int(g), 0) for g in h.group.gens] + [h.v_element(i) for i in range(h.nv)]


def verify_hopf(h: SupergroupAlgebra) -> VerifyReport:
    """Bialgebra and antipode axioms, exhaustive at every dimension.  With Delta(1) = 1 x 1,
    Delta(as) = Delta(a)Delta(s), eps(as) = eps(a)eps(s) and S(as) = S(s)S(a) on basis x
    generators hold on all pairs (induction on words); the counit, antipode and coassociativity
    laws are closed under products, so 1 and the generators suffice: dim (|S| + n) products."""
    gens = _generators(h)
    if _cop_tensor(h, h.unit) != {(h.unit, h.unit): 1}:
        return VerifyReport("hopf", False, "coproduct not unital", (h.label(h.unit),))
    for b in [h.unit, *gens]:
        cop = h.coproduct_basis(b)
        left = {}
        right = {}
        anti1: Element = {}
        anti2: Element = {}
        for b1, b2, c in cop:
            _tns_add(left, b2, c * h.counit_basis(b1))
            _tns_add(right, b1, c * h.counit_basis(b2))
            for z, cz in h.mul_elements(h.antipode_basis(b1), {b2: 1}).items():
                _tns_add(anti1, z, c * cz)
            for z, cz in h.mul_elements({b1: 1}, h.antipode_basis(b2)).items():
                _tns_add(anti2, z, c * cz)
        if left != {b: 1} or right != {b: 1}:
            return VerifyReport("hopf", False, "counit law fails", (h.label(b),))
        eps = {h.unit: h.counit_basis(b)} if h.counit_basis(b) else {}
        if anti1 != eps or anti2 != eps:
            return VerifyReport("hopf", False, "antipode axiom fails", (h.label(b),))
        # coassociativity
        lhs: Tensor3 = {}
        rhs: Tensor3 = {}
        for b1, b2, c in cop:
            for x1, x2, cx in h.coproduct_basis(b1):
                _tns_add(lhs, (x1, x2, b2), c * cx)
            for y1, y2, cy in h.coproduct_basis(b2):
                _tns_add(rhs, (b1, y1, y2), c * cy)
        if lhs != rhs:
            return VerifyReport("hopf", False, "coassociativity fails", (h.label(b),))
    for a in h.basis():
        for s in gens:
            prod = h.product_basis(a, s)
            delta: Tensor = {}
            anti: Element = {}
            for z, cz in prod.items():
                for z1, z2, c in h.coproduct_basis(z):
                    _tns_add(delta, (z1, z2), cz * c)
                for y, cy in h.antipode_basis(z).items():
                    _tns_add(anti, y, cz * cy)
            pair = (h.label(a), h.label(s))
            if delta != tensor_mul(h, _cop_tensor(h, a), _cop_tensor(h, s)):
                return VerifyReport("hopf", False, "coproduct not multiplicative", pair)
            if sum(cz * h.counit_basis(z) for z, cz in prod.items()) != h.counit_basis(a) * h.counit_basis(s):
                return VerifyReport("hopf", False, "counit not multiplicative", pair)
            if anti != h.mul_elements(h.antipode_basis(s), h.antipode_basis(a)):
                return VerifyReport("hopf", False, "antipode not anti-multiplicative", pair)
    return VerifyReport("hopf", True, f"dim {h.dim}")


def _cop_tensor(h: SupergroupAlgebra, b: int) -> Tensor:
    return {(b1, b2): c for b1, b2, c in h.coproduct_basis(b)}


def _r_legs(h: SupergroupAlgebra, r: Tensor) -> tuple[Tensor3, Tensor3, Tensor3, Tensor3]:
    """(Delta x id)R, R13 R23, (id x Delta)R and R13 R12 in one pass over R.

    By the unit law R13 R23 = sum r(a,b) r(c,d) a (x) c (x) bd and
    R13 R12 = sum r(a,b) r(c,d) ac (x) d (x) b: one product per pair of terms."""
    cop1: Tensor3 = {}
    r13r23: Tensor3 = {}
    cop2: Tensor3 = {}
    r13r12: Tensor3 = {}
    for (a, b), c in r.items():
        for a1, a2, ca in h.coproduct_basis(a):
            _tns_add(cop1, (a1, a2, b), c * ca)
        for b1, b2, cb in h.coproduct_basis(b):
            _tns_add(cop2, (a, b1, b2), c * cb)
        for (x, y), cxy in r.items():
            for z, cz in h.product_basis(b, y).items():
                _tns_add(r13r23, (a, x, z), c * cxy * cz)
            for z, cz in h.product_basis(a, x).items():
                _tns_add(r13r12, (z, y, b), c * cxy * cz)
    return cop1, r13r23, cop2, r13r12


def _cleared(r: Tensor) -> tuple[Tensor, int]:
    """(D R, D) with D the least common denominator of the coefficients of R,
    so that D R has int coefficients; D = 2 for R_A of an integral A, whose
    odd minors (the empty one among them) give halves."""
    d = 1
    for c in r.values():
        d *= (d * c).denominator  # lcm(d, denominator of c)
    return {k: _exact(d * c) for k, c in r.items()}, d


def verify_quasitriangular(h: SupergroupAlgebra, r: Tensor) -> VerifyReport:
    """(Delta x id)R = R13 R23, (id x Delta)R = R13 R12, R Delta = Delta^op R.  Presumes a
    bialgebra (verify_hopf): Delta and Delta^op are algebra maps, so the b with
    R Delta(b) = Delta^op(b) R form a subalgebra and the generators suffice.

    Each identity is homogeneous in R, so it is checked on the int numerator R' = D R
    with the degrees balanced by D: D (Delta x id)R' = R'13 R'23, D (id x Delta)R' =
    R'13 R'12, (eps x id)R' = (id x eps)R' = D 1 and R' Delta = Delta^op R'."""
    r, d = _cleared(r)
    cop1, r13r23, cop2, r13r12 = _r_legs(h, r)
    if {k: d * c for k, c in cop1.items()} != r13r23:
        return VerifyReport("quasitriangular", False, "(Delta x id)R != R13 R23")
    if {k: d * c for k, c in cop2.items()} != r13r12:
        return VerifyReport("quasitriangular", False, "(id x Delta)R != R13 R12")
    # counit normalization
    eps1: Element = {}
    eps2: Element = {}
    for (a, b), c in r.items():
        _tns_add(eps1, b, c * h.counit_basis(a))
        _tns_add(eps2, a, c * h.counit_basis(b))
    if eps1 != {h.unit: d} or eps2 != {h.unit: d}:
        return VerifyReport("quasitriangular", False, "(eps x id)R != 1")
    for s in _generators(h):
        dl = _cop_tensor(h, s)
        if tensor_mul(h, r, dl) != tensor_mul(h, tensor_flip(dl), r):
            return VerifyReport("quasitriangular", False, "R Delta != Delta^op R", (h.label(s),))
    return VerifyReport("quasitriangular", True)


def verify_triangular(h: SupergroupAlgebra, r: Tensor) -> VerifyReport:
    """Quasitriangular and R21 R = 1 x 1, checked as R'21 R' = D^2 (1 x 1) on R' = D R."""
    rep = verify_quasitriangular(h, r)
    if not rep.passed:
        return VerifyReport("triangular", False, rep.detail, rep.counterexample)
    r, d = _cleared(r)
    if tensor_mul(h, tensor_flip(r), r) != {(h.unit, h.unit): d * d}:
        return VerifyReport("triangular", False, "R21 * R != 1 x 1")
    return VerifyReport("triangular", True)


# ---------------------------------------------------------------------------
# cochains on H


@dataclass(eq=False)
class HCochain2:
    """Normalized 2-cochain on H: sigma(1, x) = sigma(x, 1) = eps(x).

    values[a] is the row sigma(a, .); rows may be shared between basis
    elements (lambda_cocycle shares one immutable row per subset P)."""

    algebra: SupergroupAlgebra
    values: Sequence[Sequence[int | Fraction]]

    def __post_init__(self) -> None:
        h = self.algebra
        one = h.unit
        for b in h.basis():
            if self.values[one][b] != h.counit_basis(b) or self.values[b][one] != h.counit_basis(b):
                raise ParseError("H-cochain is not normalized")

    def __call__(self, b1: int, b2: int) -> int | Fraction:
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
    vals = [[0] * h.dim for _ in range(h.dim)]
    for a in h.basis():
        ca = h.coproduct_basis(a)
        for b in h.basis():
            cb = h.coproduct_basis(b)
            acc = 0
            for a1, a2, x in ca:
                for b1, b2, y in cb:
                    acc += x * y * s1.values[a1][b1] * s2.values[a2][b2]
            vals[a][b] = acc
    return HCochain2(h, vals)


def _twisted_product(sigma: HCochain2, a: int, b: int, op: bool = False) -> Element:
    """m(a,b) = sum sigma(a1,b1) a2 b2, or with op m^op(a,b) = sum sigma(a2,b2) a1 b1."""
    h = sigma.algebra
    out: Element = {}
    for a1, a2, x in h.coproduct_basis(a):
        for b1, b2, y in h.coproduct_basis(b):
            s, p, q = (sigma.values[a2][b2], a1, b1) if op else (sigma.values[a1][b1], a2, b2)
            if s:
                for z, cz in h.product_basis(p, q).items():
                    _tns_add(out, z, x * y * s * cz)
    return out


def _cocycle_check(sigma: HCochain2, op: bool, check: str, detail: str, budget: int, seed: int) -> VerifyReport:
    """sigma(m(a,b), c) = sigma(a, m(b,c)) with m the (op-)twisted product,
    memoized per pair for this call."""
    h = sigma.algebra
    m = functools.cache(functools.partial(_twisted_product, sigma, op=op))
    triples, sampled = _basis_tuples(h, 3, budget, seed)
    for a, b, c in triples:
        lhs = sum(cz * sigma.values[z][c] for z, cz in m(a, b).items())
        rhs = sum(cz * sigma.values[a][z] for z, cz in m(b, c).items())
        if lhs != rhs:
            return VerifyReport(check, False, detail, (h.label(a), h.label(b), h.label(c)), sampled)
    return VerifyReport(check, True, "", None, sampled)


def is_left_cocycle(sigma: HCochain2, budget: int = DEFAULT_DIM_BUDGET, seed: int = 0) -> VerifyReport:
    """sum sigma(a1,b1) sigma(a2 b2, c) = sum sigma(b1,c1) sigma(a, b2 c2)."""
    return _cocycle_check(sigma, False, "left-cocycle", "cocycle equation fails", budget, seed)


def is_right_cocycle(sigma: HCochain2, budget: int = DEFAULT_DIM_BUDGET, seed: int = 0) -> VerifyReport:
    """sum sigma(a1 b1, c) sigma(a2, b2) = sum sigma(a, b1 c1) sigma(b2, c2):
    the left cocycle equation with the mirrored product m^op."""
    return _cocycle_check(sigma, True, "right-cocycle", "right cocycle equation fails", budget, seed)


def is_lazy(sigma: HCochain2, budget: int = DEFAULT_DIM_BUDGET, seed: int = 0) -> VerifyReport:
    """sum sigma(a1,b1) a2 b2 = sum sigma(a2,b2) a1 b1 in H, i.e. m(a,b) = m^op(a,b)."""
    h = sigma.algebra
    pairs, sampled = _basis_tuples(h, 2, budget, seed)
    for a, b in pairs:
        if _twisted_product(sigma, a, b) != _twisted_product(sigma, a, b, op=True):
            return VerifyReport("lazy", False, "lazy condition fails", (h.label(a), h.label(b)), sampled)
    return VerifyReport("lazy", True, "", None, sampled)


def is_convolution_invertible(sigma: HCochain2) -> tuple[bool, HCochain2 | None]:
    """Solve sigma * tau = eps x eps degree by degree along the Lambda V filtration.

    The top split of Delta(g v_P) is g u^|P| (x) g v_P with coefficient 1, so
    the system is triangular once sigma is nonzero on grouplike pairs.
    """
    h = sigma.algebra
    vals = [[0] * h.dim for _ in range(h.dim)]
    order = sorted(
        ((a, b) for a in h.basis() for b in h.basis()),
        key=lambda ab: bin(h.decode(ab[0])[1]).count("1") + bin(h.decode(ab[1])[1]).count("1"),
    )
    for a, b in order:
        ga, ma = h.decode(a)
        gb, mb = h.decode(b)
        top_a = h.encode(h.times_u(ga, bin(ma).count("1")), 0)
        top_b = h.encode(h.times_u(gb, bin(mb).count("1")), 0)
        lead = sigma.values[top_a][top_b]
        if lead == 0:
            return False, None
        target = h.counit_basis(a) * h.counit_basis(b)
        acc = 0
        for a1, a2, x in h.coproduct_basis(a):
            for b1, b2, y in h.coproduct_basis(b):
                if a2 == a and b2 == b:
                    continue  # the leading term, solved for below
                acc += x * y * sigma.values[a1][b1] * vals[a2][b2]
        vals[a][b] = _exact(Fraction(target - acc, lead))
    tau = HCochain2(h, vals)
    if not convolve(sigma, tau).equals(eps_tensor_eps(h)):
        return False, None
    if not convolve(tau, sigma).equals(eps_tensor_eps(h)):
        return False, None
    return True, tau


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
    minors = _signed_minors(S)  # column R: +-det S[Q, R] = +-det S[R, Q], S symmetric
    rows = []
    for pm in range(1 << h.nv):
        row = [0] * h.dim
        for hh in range(h.group.order):
            for rm, c in h.inverse_action(hh, pm).items():
                for qm, minor in minors[rm].items():
                    row[h.encode(hh, qm)] += c * minor
        rows.append(tuple(map(_exact, row)))
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


def lazy_cohomology(h: SupergroupAlgebra, budget: int = DEFAULT_H2_BUDGET) -> LazyCohomology:
    if h.nv == 0:
        group_part = h2_closed_field(h.group, budget)
        if h.inv.is_trivial:
            k_trivial = True
        else:
            k_trivial = splitting_character(h.inv) is not None
        return LazyCohomology(h, 0, group_part, k_trivial, None)
    forms = invariant_symmetric_forms(h.rep)
    qd = quotient_by_central_involution(h.inv)
    group_part = h2_closed_field(qd.quotient, budget)
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


def bm_supergroup(g: FiniteGroup, inv: CentralInvolution, rep: Representation, field: FieldDescriptor,
                  budget: int = ENUMERATION_BUDGET) -> BMSupergroup:
    if not acts_as_minus_one(rep, inv):
        raise NotMinusOne("u must act as -1 on V")
    return BMSupergroup(bm=bm_group(g, inv, field, budget), linear_dim=invariant_symmetric_forms(rep).dim)
