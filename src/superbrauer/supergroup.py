"""The Hopf algebra k[G] (x) Lambda(V) with exact structure constants,
its triangular R-matrices, lazy 2-cocycles and the resulting lazy
cohomology and Brauer group reports.

Basis elements are g * v_P for P an increasing subset of {1..n}, encoded as
an integer g_index * 2**n + bitmask.  Products use Koszul signs inside the
exterior algebra and the reindexing rule v_i g = g (g^{-1}.v_i); the
coproduct is determined by Delta(g) = g (x) g and Delta(v) = v (x) 1 + u (x) v,
which matches E(n) under c -> u, x_i -> u v_i.  Delta, S and the product
live in one place, the integer tables of the twisted module
(SupergroupAlgebra.product_tables), on which every verify check runs.

The action h^{-1}.v_P is column P of the exterior power Lambda rho(h^{-1}), and
R_A, r_A and lambda read their signed minors det A[P,Q] off Lambda(A); a cochain
on H is kept as integer rows over its least common denominator.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import NotInvariant, NotMinusOne, NotSymmetric, ParseError
from .cohomology import DEFAULT_H2_BUDGET, CohomologyGroup, h2_closed_field
from .forms import (
    Matrix,
    Representation,
    acts_as_minus_one,
    as_matrix,
    invariant_symmetric_forms,
    is_invariant_form,
    is_symmetric,
    numerators,
)
from .groups import CentralInvolution, FiniteGroup, cyclic_group, quotient_by_central_involution, splitting_character
from .sharp import ENUMERATION_BUDGET, BMGroup, FieldDescriptor, bm_group

if TYPE_CHECKING:
    from .twisted import ProductTables

DEFAULT_DIM_BUDGET = 64
SAMPLED_TRIPLES = 1500

# coefficients are int wherever a value is integral and Fraction where a
# denominator survives; both are exact and compare equal across the types
Element = dict[int, int | Fraction]
Tensor = dict[tuple[int, int], int | Fraction]


def _exact(x: int | Fraction) -> int | Fraction:
    """x as an int when it is integral: int arithmetic is several times
    faster than Fraction arithmetic and stays exact."""
    return x.numerator if x.denominator == 1 else x


class SupergroupAlgebra:
    """k[G] (x) Lambda(V) for a group datum (G, u, rho) with rho(u) = -1."""

    def __init__(self, group: FiniteGroup, inv: CentralInvolution, rep: Representation) -> None:
        self.group = group
        self.inv = inv
        self.rep = rep
        if rep.group is not group or inv.group is not group:
            raise ParseError("group datum components live on different groups")
        if not acts_as_minus_one(rep, inv):
            raise NotMinusOne("u must act as -1 on V")
        self.nv = rep.dim
        self.dim = group.order * (1 << self.nv)
        self._tables: ProductTables | None = None

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

    def product_tables(self) -> ProductTables:
        """The product, coproduct and antipode as integer tables, built once."""
        if self._tables is None:
            from .twisted import product_tables

            self._tables = product_tables(self)
        return self._tables


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


def r_matrix_RA(a, h: SupergroupAlgebra) -> Tensor:
    """The triangular R-matrix of E(n) attached to a symmetric matrix A.

    R_A = (1/2) sum_{|P|=|F|} (-1)^(s(s-1)/2) det A[P,F]
          (v_P x v_F + u v_P x v_F + (-1)^s v_P x u v_F - (-1)^s u v_P x u v_F).
    """
    A = _checked_form(a, h, "R_A", en=True)
    return {(x, y): _exact(Fraction(c, 2)) for x, y, c in _minor_terms(A, h, dual=False)}


def dual_r_matrix(a, h: SupergroupAlgebra) -> HCochain2:
    """The dual triangular structure r_A of the self-dual E(n), as a functional
    on H (x) H; omega_Sigma = r_0 * r_{-Sigma} in the convolution algebra."""
    A = _checked_form(a, h, "r_A", en=True)
    vals: list[list[int | Fraction]] = [[0] * h.dim for _ in range(h.dim)]
    for x, y, c in _minor_terms(A, h, dual=True):
        vals[x][y] += c
    return HCochain2(h, vals)


def _minor_terms(A: Matrix, h: SupergroupAlgebra, dual: bool):
    """(x, y, c) for the four terms c (v_P x v_F + u v_P x v_F + (-1)^s v_P x u v_F
    - (-1)^s u v_P x u v_F) of each signed minor c of A, the sum of R_A without
    its 1/2; the dual r_A exchanges u v_P x v_F and v_P x u v_F.  Minors come
    column F by column, P ascending."""
    from .twisted import signed_minors

    e, uu = h.group.identity, h.inv.u
    middle = ((e, uu), (uu, e)) if dual else ((uu, e), (e, uu))
    start, mask, minors, d = signed_minors(A)
    column = np.repeat(np.arange(len(start) - 1), np.diff(start))
    for fm, pm, c in zip(column.tolist(), mask.tolist(), minors.tolist()):
        c = _exact(Fraction(c, d))
        sgn = -1 if bin(fm).count("1") % 2 else 1
        for (g1, g2), coef in zip(((e, e), *middle, (uu, uu)), (c, c, c * sgn, -c * sgn)):
            yield h.encode(g1, pm), h.encode(g2, fm), coef


# ---------------------------------------------------------------------------
# verification reports


class VerifyReport:
    def __init__(self, check: str, passed: bool, detail: str = "", counterexample: tuple | None = None,
                 sampled: bool = False) -> None:
        self.check = check
        self.passed = passed
        self.detail = detail
        self.counterexample = counterexample
        self.sampled = sampled

    def __bool__(self) -> bool:
        return self.passed


def _report(h: SupergroupAlgebra, check: str, failure, sampled: bool = False, passed: str = "") -> VerifyReport:
    """The report of a check from its first failure (detail, basis elements,
    () for none) or None; only a failure's elements are labelled."""
    if failure is None:
        return VerifyReport(check, True, passed, None, sampled)
    detail, bad = failure
    return VerifyReport(check, False, detail, tuple(map(h.label, bad)) or None, sampled)


def verify_hopf(h: SupergroupAlgebra) -> VerifyReport:
    """Bialgebra and antipode axioms, exhaustive at every dimension.  With Delta(1) = 1 x 1,
    Delta(as) = Delta(a)Delta(s), eps(as) = eps(a)eps(s) and S(as) = S(s)S(a) on basis x
    generators hold on all pairs (induction on words); the counit, antipode and coassociativity
    laws are closed under products, so 1 and the generators suffice: dim (|S| + n) products,
    as batched passes over the product tables (twisted.hopf_failure)."""
    from .twisted import hopf_failure

    return _report(h, "hopf", hopf_failure(h), passed=f"dim {h.dim}")


def verify_quasitriangular(h: SupergroupAlgebra, r: Tensor) -> VerifyReport:
    """(Delta x id)R = R13 R23, (id x Delta)R = R13 R12, R Delta = Delta^op R.  Presumes
    a Hopf algebra (verify_hopf).  (Delta x id)R = R13 R23 says that f(phi) = (phi x id)R
    is an algebra map H* -> H, and (id x Delta)R = R13 R12 that f'(phi) = (id x phi)R is
    an anti-map.  For each, the psi with f(phi psi) = f(phi) f(psi) for every phi form a
    subalgebra of H*, which the functionals delta_{g,P} with |P| <= 1 generate (their
    span holds eps, and delta_{g,i} delta_{h,Q} = +-delta_{h,Q+i} for g = h u^|Q|, i not
    in Q).  So each identity is checked where psi's leg has degree <= 1: by the unit law
    R13 R23 = sum r(a,b) r(x,y) a (x) x (x) by and R13 R12 = sum r(x,y) r(a,b) xa (x) b (x) y,
    one product per pair of an R term and an R term of degree <= 1 on that leg.  Delta and
    Delta^op are algebra maps, so the b with R Delta(b) = Delta^op(b) R form a subalgebra
    and the generators suffice.  Each identity is homogeneous in R and is checked on the
    int numerator D R (twisted.quasitriangular_failure)."""
    from .twisted import quasitriangular_failure

    return _report(h, "quasitriangular", quasitriangular_failure(h, r))


def verify_triangular(h: SupergroupAlgebra, r: Tensor) -> VerifyReport:
    """Quasitriangular and R21 R = 1 x 1.  Presumes a Hopf algebra (verify_hopf).

    Applying m (S x id) x id to (Delta x id)R = R13 R23 gives (S x id)R . R =
    1 x (eps x id)R = 1 x 1, so R^{-1} = (S x id)R (Kassel, Quantum Groups,
    Prop. VIII.2.1).  Once R is quasitriangular, R21 R = 1 x 1 is therefore
    R21 = (S x id)R: linear in R, one antipode per term and no product."""
    from .twisted import r21_failure

    rep = verify_quasitriangular(h, r)
    if not rep.passed:
        return VerifyReport("triangular", False, rep.detail, rep.counterexample)
    return _report(h, "triangular", r21_failure(h, r))


# ---------------------------------------------------------------------------
# cochains on H


class HCochain2:
    """Normalized 2-cochain on H: sigma(1, x) = sigma(x, 1) = eps(x).

    Kept as sigma(a, b) = rows[rid[a], b] / D: the distinct rows of D sigma as one integer
    array (int64, or Python ints as dtype=object), row ids and the least D; none may change."""

    def __init__(self, algebra: SupergroupAlgebra, values, rid: np.ndarray | None = None, denominator: int = 1) -> None:
        """From integer rows, row ids and D; without rid, values[a] = sigma(a, .) are exact values, cleared once."""
        if rid is None:
            (values,), denominator = numerators([values])
            rid = np.arange(len(values))
        self.algebra = h = algebra
        self.rows, self.rid, self.denominator = values, rid, denominator
        eps = denominator * ((np.arange(h.dim) & ((1 << h.nv) - 1)) == 0)  # D eps(g v_P), 1 iff P is empty
        if not ((values[rid[h.unit]] == eps).all() and (values[rid, h.unit] == eps).all()):
            raise ParseError("H-cochain is not normalized")

    def __call__(self, b1: int, b2: int) -> int | Fraction:
        return self.values[b1][b2]

    @functools.cached_property
    def values(self) -> list[tuple[int | Fraction, ...]]:
        """values[a] = the row sigma(a, .) of exact values, one shared tuple per distinct row."""
        d = self.denominator
        rows = [tuple(row) if d == 1 else tuple(_exact(Fraction(x, d)) for x in row) for row in self.rows.tolist()]
        return [rows[i] for i in self.rid.tolist()]

    @functools.cached_property
    def cleared(self) -> tuple[list[tuple[int, ...]], list[int], int]:
        """(the distinct rows of D sigma as int tuples, the row id of each basis element, D)."""
        return [tuple(row) for row in self.rows.tolist()], self.rid.tolist(), self.denominator


def is_left_cocycle(sigma: HCochain2, budget: int = DEFAULT_DIM_BUDGET, seed: int = 0) -> VerifyReport:
    """sum sigma(a1,b1) sigma(a2 b2, c) = sum sigma(b1,c1) sigma(a, b2 c2)."""
    from .twisted import cocycle_failure

    return _report(sigma.algebra, "left-cocycle", *cocycle_failure(sigma, False, budget, seed))


def is_right_cocycle(sigma: HCochain2, budget: int = DEFAULT_DIM_BUDGET, seed: int = 0) -> VerifyReport:
    """sum sigma(a1 b1, c) sigma(a2, b2) = sum sigma(a, b1 c1) sigma(b2, c2):
    the left cocycle equation with the mirrored product m^op."""
    from .twisted import cocycle_failure

    return _report(sigma.algebra, "right-cocycle", *cocycle_failure(sigma, True, budget, seed))


def is_lazy(sigma: HCochain2, budget: int = DEFAULT_DIM_BUDGET, seed: int = 0) -> VerifyReport:
    """sum sigma(a1,b1) a2 b2 = sum sigma(a2,b2) a1 b1 in H, i.e. m(a,b) = m^op(a,b)."""
    from .twisted import lazy_failure

    return _report(sigma.algebra, "lazy", *lazy_failure(sigma, budget, seed))


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

    The row lambda(g v_P, .) does not depend on g: row P at h 2^n + Q is the sum of
    coef M[R, Q] over the entries (R, coef) of the action column (h, P), M the signed
    minors of Sigma, at most 2^n terms below max_coef max|M| each; one row per pass.
    Row R of M is column R of the signed exterior power, as Sigma is symmetric."""
    S = _checked_form(sigma_matrix, h, "lambda")
    if require_invariant and not is_invariant_form(h.rep, S):
        raise NotInvariant("symmetric form is not G-invariant")
    from .twisted import _entries, _lowest_terms, signed_minors

    t, (start, mask, minors, ds), top = h.product_tables(), signed_minors(S), 1 << h.nv
    dtype = np.int64 if top * t.max_coef * max(int(minors.max()), -int(minors.min())) < 2**63 else object
    coef, minors = t.act_coef.astype(dtype, copy=False), minors.astype(dtype, copy=False)
    rows = np.zeros((top, h.group.order, top), dtype)
    for pm in range(top):  # the entries (R, c) of the action columns (h, P) of every h, and those (Q, m) of M[R]
        j, e = _entries(t.act_start, np.arange(pm, h.dim, top))
        k, f = _entries(start, t.act_mask[e])
        np.add.at(rows[pm], (j[k], mask[f]), coef[e[k]] * minors[f])
    rows, d = _lowest_terms(rows.reshape(top, h.dim), t.denominator * ds)
    return HCochain2(h, rows, np.arange(h.dim) & (top - 1), d)


# ---------------------------------------------------------------------------
# lazy cohomology and the Brauer group of the supergroup algebra


class LazyCohomology:
    """H^2_L(H) = S^2(V*)^G x H^2(G/U, k*): linear dimension plus group part."""

    def __init__(self, algebra: SupergroupAlgebra, linear_dim: int, group_part: CohomologyGroup,
                 k_trivial: bool) -> None:
        self.algebra = algebra
        self.linear_dim = linear_dim
        self.group_part = group_part
        self.k_trivial = k_trivial  # CoInt/CoInn is trivial iff a splitting character exists

    @property
    def invariants(self) -> tuple[int, ...]:
        return self.group_part.invariants


def lazy_cohomology(h: SupergroupAlgebra, budget: int = DEFAULT_H2_BUDGET) -> LazyCohomology:
    # rho(u) = -1 on V != 0 forces u != 1
    k_trivial = h.inv.is_trivial or splitting_character(h.inv) is not None
    if h.nv == 0:
        return LazyCohomology(h, 0, h2_closed_field(h.group, budget), k_trivial)
    group_part = h2_closed_field(quotient_by_central_involution(h.inv).quotient, budget)
    return LazyCohomology(h, invariant_symmetric_forms(h.rep).dim, group_part, k_trivial)


class BMSupergroup:
    """BM(k, k[G] (x) Lambda V, R_u) = BM(k, k[G], R_u) x S^2(V*)^G."""

    def __init__(self, bm: BMGroup, linear_dim: int) -> None:
        self.bm = bm
        self.linear_dim = linear_dim

    @property
    def invariants(self) -> tuple[int, ...]:
        return self.bm.invariants


def bm_supergroup(g: FiniteGroup, inv: CentralInvolution, rep: Representation, field: FieldDescriptor,
                  budget: int = ENUMERATION_BUDGET) -> BMSupergroup:
    if not acts_as_minus_one(rep, inv):
        raise NotMinusOne("u must act as -1 on V")
    return BMSupergroup(bm=bm_group(g, inv, field, budget), linear_dim=invariant_symmetric_forms(rep).dim)
