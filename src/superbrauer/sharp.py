"""The grading attached to a 2-cocycle, the twisted sharp product on H^2,
and the Brauer group BM(k, k[G], R_u) and the group Q(k, G), whose Cayley
tables are built from generating data: the sharp table, the sigma(u,u)
markers and the class of C(1)^2 or the character pairing classes.

Only two base-field descriptors exist: algebraically closed of
characteristic zero, and real closed.  Anything else has square classes and
Brauer groups outside the scope of this library and is rejected up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, NotCocycle, NotSplit, ParseError, TrivialInvolution
from .cohomology import (
    DEFAULT_H2_BUDGET,
    CohomologyClass,
    CohomologyGroup,
    Cochain2,
    h2,
    h2_closed_field,
    is_cocycle,
    restriction_square_class,
)
from .groups import (
    CentralInvolution,
    FiniteGroup,
    abelianization,
    all_characters,
    group_from_table,
    is_character,
    quotient_by_central_involution,
    splitting_character,
)

ENUMERATION_BUDGET = 2**12


@dataclass(frozen=True)
class FieldDescriptor:
    """AlgClosedChar0 or RealClosed; fixes square classes, Br(k) and coefficients."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("closed", "real"):
            raise ParseError(
                f"unsupported field descriptor {self.kind!r}: only algebraically closed "
                "(char 0) and real closed fields are supported"
            )

    @property
    def square_class_order(self) -> int:
        return 1 if self.kind == "closed" else 2

    @property
    def brauer_order(self) -> int:
        return 1 if self.kind == "closed" else 2

    def cohomology(self, g: FiniteGroup, budget: int = DEFAULT_H2_BUDGET) -> CohomologyGroup:
        if self.kind == "closed":
            return h2_closed_field(g, budget)
        return h2(g, 2, budget)

    def square_class(self, x) -> int:
        """0 for squares, 1 for non-squares; x a nonzero rational."""
        x = Fraction(x)
        if x == 0:
            raise ParseError("square class of zero is undefined")
        if self.kind == "closed":
            return 0
        return 0 if x > 0 else 1


ALG_CLOSED = FieldDescriptor("closed")
REAL_CLOSED = FieldDescriptor("real")


def field_from_name(name: str) -> FieldDescriptor:
    if name in ("closed", "C", "algclosed"):
        return ALG_CLOSED
    if name in ("real", "R", "realclosed"):
        return REAL_CLOSED
    raise ParseError(f"unknown field descriptor {name!r}")


@dataclass(eq=False)
class ZGrading:
    """Z_2-grading of k[G] induced by a cocycle class; u is always even."""

    group: FiniteGroup
    degree: np.ndarray

    def __post_init__(self) -> None:
        self.degree = np.asarray(self.degree, dtype=np.int64) % 2
        if not is_character(self.group, self.degree, 2):
            raise ParseError("grading is not a homomorphism to Z_2")

    def is_trivial(self) -> bool:
        return not self.degree.any()


def theta(sigma: Cochain2, inv: CentralInvolution) -> ZGrading:
    """Degree map g -> sigma(g,u) - sigma(u,g), valued in {0, N/2} ~ Z_2."""
    if sigma.group is not inv.group:
        raise ParseError("cocycle and involution live on different groups")
    n = sigma.modulus
    if n % 2:
        raise ParseError("theta needs an even coefficient modulus")
    if not is_cocycle(sigma):
        raise NotCocycle("theta is only defined on cocycles")
    half = n // 2
    t = (sigma.values[:, inv.u] - sigma.values[inv.u, :]) % n
    if (t % half).any():
        raise NotCocycle("cocycle pairing with u is not +-1 valued")
    deg = (t // half) % 2
    if deg[inv.u] != 0:
        raise ParseError("u must be even in every induced grading")
    return ZGrading(group=sigma.group, degree=deg)


def sharp(sigma: Cochain2, omega: Cochain2, inv: CentralInvolution) -> Cochain2:
    """(sigma # omega)(g,h) = sigma(g,h) + omega(g,h) + (N/2) |g|_sigma |h|_omega."""
    sigma._compat(omega)
    n = sigma.modulus
    half = n // 2
    ds = theta(sigma, inv).degree
    dw = theta(omega, inv).degree
    vals = (sigma.values + omega.values + half * np.outer(ds, dw)) % n
    return Cochain2(sigma.group, n, vals)


def sharp_inverse(sigma: Cochain2, inv: CentralInvolution) -> Cochain2:
    """sigma'(g,h) = -sigma(g,h) + (N/2) |g|_sigma |h|_sigma, the sharp inverse."""
    n = sigma.modulus
    ds = theta(sigma, inv).degree
    vals = (-sigma.values + (n // 2) * np.outer(ds, ds)) % n
    return Cochain2(sigma.group, n, vals)


@dataclass(eq=False)
class SharpGroup:
    """H^2_sharp(G, k*): the classes of H^2 under the sharp product."""

    field: FieldDescriptor
    inv: CentralInvolution
    cohomology: CohomologyGroup
    classes: list[CohomologyClass]
    table: np.ndarray
    invariants: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.classes)

    def index_of(self, cls: CohomologyClass) -> int:
        return self._index[cls.coords]

    def __post_init__(self) -> None:
        self._index = {c.coords: i for i, c in enumerate(self.classes)}


def _positions(coords, orders) -> np.ndarray:
    """Position in all_classes order (last coordinate fastest) of each
    coordinate vector along the last axis, reduced mod the invariants."""
    orders = np.asarray(orders, dtype=np.int64)
    radix = np.array([np.prod(orders[k + 1:]) for k in range(len(orders))], dtype=np.int64)
    return (np.asarray(coords, dtype=np.int64) % orders) @ radix


def sharp_class_table(cg: CohomologyGroup, inv: CentralInvolution) -> tuple[list[CohomologyClass], np.ndarray]:
    """Cayley table of the sharp product on the classes of cg, in all_classes order.

    theta of rep_of_coords(x) is sum_a x_a theta_a mod 2, class_of is additive
    and (N/2) k mod N depends only on k mod 2, so
    x # y = x + y + sum_ab (x_a mod 2)(y_b mod 2) P_ab, where P_ab is the class
    of the twist (N/2) theta_a (x) theta_b of the generator representatives."""
    classes = list(cg.all_classes())
    n = cg.coeff.n
    degrees = [theta(rep, inv).degree for rep in cg.reps]
    r = len(degrees)
    twist = np.zeros((r, r, r), dtype=np.int64)
    for a, da in enumerate(degrees):
        for b, db in enumerate(degrees):
            twist[a, b] = cg.class_of(Cochain2(cg.group, n, (n // 2) * np.outer(da, db))).coords
    coords = np.array([c.coords for c in classes], dtype=np.int64)
    parity = coords % 2
    table = np.zeros((len(classes), len(classes)), dtype=np.int32)
    for i, x in enumerate(coords):
        table[i] = _positions(x + coords + parity @ np.tensordot(parity[i], twist, axes=1), cg.invariants)
    return classes, table


def h2_sharp(
    g: FiniteGroup,
    inv: CentralInvolution,
    field: FieldDescriptor,
    budget: int = ENUMERATION_BUDGET,
) -> SharpGroup:
    """Enumerate H^2 under the sharp product and extract its abelian invariants."""
    if inv.group is not g:
        raise ParseError("involution lives on a different group")
    if inv.is_trivial:
        raise TrivialInvolution("H^2_sharp needs u != 1")
    cg = field.cohomology(g)
    if cg.size > budget:
        raise BudgetExceeded(f"|H^2| = {cg.size} exceeds enumeration budget {budget}; raise --budget-enum")
    classes, table = sharp_class_table(cg, inv)
    ident = next(i for i, c in enumerate(classes) if c.is_trivial())
    invariants = _abelian_table_invariants(table, ident)
    return SharpGroup(field=field, inv=inv, cohomology=cg, classes=classes, table=table, invariants=invariants)


def _abelian_table_invariants(table: np.ndarray, ident: int) -> tuple[int, ...]:
    """Invariant factors, largest first, of an enumerated product table after
    checking that it is an abelian group table."""
    if (table != table.T).any():
        raise ParseError("enumerated product is not commutative")
    return abelianization(group_from_table(table, identity=ident)).cyclic_orders


def quaternion_symbol(a, b, field: FieldDescriptor):
    """Brauer class bit of the quaternion algebra <a, b / k>.

    Arguments are square-class bits (0 = square, 1 = non-square), ints or
    arrays; over a real closed field the symbol is nontrivial exactly for
    (-1, -1).
    """
    return (field.kind == "real") * (a % 2) * (b % 2)


@dataclass(eq=False)
class BMGroup:
    """BM(k, k[G], R_u): central extension of Br(k) by H^2_sharp or Q(k, G).

    Element (b, i, a) = (Brauer part, i-th class of cohomology.all_classes(),
    parity) is row (b |H^2| + i)(1 + split) + a of the Cayley table."""

    split: bool
    cohomology: CohomologyGroup
    table: np.ndarray
    invariants: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.table.shape[0]


def bm_group(
    g: FiniteGroup,
    inv: CentralInvolution,
    field: FieldDescriptor,
    budget: int = ENUMERATION_BUDGET,
) -> BMGroup:
    """BM(k, k[G], R_u) for u != 1, its Cayley table built from generating data.

    (b1, i1, a1)(b2, i2, a2) has class S[i1, i2], shifted by sharp with the
    class of C(1)^2 when a1 = a2 = 1; Brauer part b1 + b2 + <M1, M2> plus
    <M12, -1> when a1 = a2 = 1, with <,> the quaternion symbol and M the
    sigma(u,u) square-class markers; parity a1 + a2.  A marker is
    restriction_square_class of rep_of_coords, a sum of generator
    representatives whose sigma_a(u,u) lie in {0, N/2}, so it is linear mod 2
    in the class coordinates."""
    if inv.group is not g:
        raise ParseError("involution lives on a different group")
    if inv.is_trivial:
        raise TrivialInvolution("BM(k, k[G], R_u) machinery needs u != 1")
    chi = splitting_character(inv)
    split = chi is not None
    cg = field.cohomology(g)
    bo, h, s = field.brauer_order, cg.size, 1 + split
    if bo * h * s > budget:
        raise BudgetExceeded(f"|BM| = {bo * h * s} exceeds enumeration budget {budget}; raise --budget-enum")
    classes, S = sharp_class_table(cg, inv)
    M = np.zeros(h, dtype=np.int32)
    if field.kind == "real":
        coords = np.array([c.coords for c in classes], dtype=np.int64)
        M[:] = coords @ np.array([restriction_square_class(inv, rep) for rep in cg.reps], dtype=np.int64) % 2
    c11 = 0
    if split:
        n = cg.coeff.n
        c11_class = cg.class_of(Cochain2(g, n, (n // 2) * np.outer(chi.values, chi.values)))
        c11 = int(_positions(c11_class.coords, cg.invariants))
    b1, i1, a1, b2, i2, a2 = np.ix_(*(np.arange(d, dtype=np.int32) for d in (bo, h, s) * 2))
    ij = S[i1, i2]
    both = a1 * a2
    table = b1 + b2 + quaternion_symbol(M[i1], M[i2], field) + both * quaternion_symbol(M[ij], 1, field)
    # the row (b h + class) s + parity, in place: the table is the one array of full size
    table %= bo
    table *= h
    table += np.where(both, S[ij, c11], ij)
    table *= s
    table += (a1 + a2) % s
    table = table.reshape(bo * h * s, -1)
    # the identity (0, zero class, 0) is element 0
    return BMGroup(split=split, cohomology=cg, table=table, invariants=_abelian_table_invariants(table, 0))


@dataclass(eq=False)
class QGroup:
    """Q(k, G) for split G: H^2(G/U) x Hom(G/U, Z_2) x k*/(k*)^2 x Z_2.

    Element (c, x, s, e) = (c-th class of H^2(G/U).all_classes(), x-th
    character of all_characters(G/U, 2), square class, parity) is row
    ((c |Hom| + x) |k*/(k*)^2| + s) 2 + e of the Cayley table."""

    table: np.ndarray
    invariants: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.table.shape[0]


def q_group(
    g: FiniteGroup,
    inv: CentralInvolution,
    field: FieldDescriptor,
    budget: int = ENUMERATION_BUDGET,
) -> QGroup:
    """The group Q(k, G) of the split short exact sequence.

    (c1, x1, s1, e1)(c2, x2, s2, e2) = (c1 + c2 + P[x1, x2], x1 x2,
    s1 + s2 + e1 e2, e1 + e2), with P[x1, x2] the class of the pairing
    cocycle (N/2) x1 (x) x2: one class_of per pair of nontrivial characters."""
    if inv.is_trivial:
        raise TrivialInvolution("Q(k, G) needs u != 1")
    if splitting_character(inv) is None:
        raise NotSplit("U is not a direct summand of G")
    q = quotient_by_central_involution(inv).quotient
    cq = field.cohomology(q)
    chars = [c.values % 2 for c in all_characters(q, 2)]
    h, nc, sq = cq.size, len(chars), field.square_class_order
    if h * nc * sq * 2 > budget:
        raise BudgetExceeded(f"|Q(k,G)| = {h * nc * sq * 2} exceeds enumeration budget {budget}; raise --budget-enum")
    n = cq.coeff.n
    lookup = {v.tobytes(): i for i, v in enumerate(chars)}
    product = np.array([[lookup[((v + w) % 2).tobytes()] for w in chars] for v in chars], dtype=np.int32)
    pairing = _positions([[cq.class_of(Cochain2(q, n, (n // 2) * np.outer(v, w))).coords if v.any() and w.any()
                           else cq.zero_class().coords for w in chars] for v in chars], cq.invariants)
    coords = np.array([c.coords for c in cq.all_classes()], dtype=np.int64)
    add = _positions(coords[:, None] + coords[None, :], cq.invariants)
    c1, x1, s1, e1, c2, x2, s2, e2 = np.ix_(*(np.arange(d, dtype=np.int32) for d in (h, nc, sq, 2) * 2))
    cls = add[add[c1, c2], pairing[x1, x2]]
    table = ((cls * nc + product[x1, x2]) * sq + (s1 + s2 + e1 * e2) % sq) * 2 + (e1 + e2) % 2
    table = table.reshape(h * nc * sq * 2, -1)
    # the identity (zero class, trivial character, 0, 0) is element 0
    return QGroup(table=table, invariants=_abelian_table_invariants(table, 0))


# ---------------------------------------------------------------------------
# twisted group algebra k_sigma[G]


@dataclass(eq=False)
class TwistedGroupAlgebra:
    """Structure constants f_g f_h = zeta^{sigma(g,h)} f_{gh} for a fixed
    primitive N-th root marker zeta."""

    group: FiniteGroup
    sigma: Cochain2
    field: FieldDescriptor

    def __post_init__(self) -> None:
        if not is_cocycle(self.sigma):
            raise NotCocycle("twisted group algebra needs a 2-cocycle")

    def product(self, i: int, j: int) -> tuple[int, int]:
        """(exponent of zeta, index of the product basis element)."""
        return int(self.sigma.values[i, j]), int(self.group.mul[i, j])

    def degree_map(self) -> np.ndarray:
        """chi_h(g) = sigma(g, h) - sigma(h, g), one column per h."""
        return (self.sigma.values - self.sigma.values.T) % self.sigma.modulus

    def degrees_are_characters(self) -> bool:
        """Every column chi_h of the degree map is a character G -> Z_N."""
        return is_character(self.group, self.degree_map(), self.sigma.modulus)


def twisted_group_algebra(g: FiniteGroup, sigma: Cochain2, field: FieldDescriptor) -> TwistedGroupAlgebra:
    if sigma.group is not g:
        raise ParseError("cocycle lives on a different group")
    alg = TwistedGroupAlgebra(group=g, sigma=sigma, field=field)
    ab = abelianization(g)
    if len(ab.commutator_subgroup) == 1 and not alg.degrees_are_characters():
        raise ParseError("degree map failed the character check on an abelian group")
    return alg
