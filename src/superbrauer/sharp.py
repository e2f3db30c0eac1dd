"""The grading attached to a 2-cocycle, the twisted sharp product on H^2,
and the Brauer group BM(k, k[G], R_u) with element-level multiplication.

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
    GroupCharacter,
    _abelian_basis_from_table,
    abelianization,
    group_from_table,
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
    def minus_one_is_square(self) -> bool:
        return self.kind == "closed"

    @property
    def square_class_order(self) -> int:
        return 1 if self.kind == "closed" else 2

    @property
    def brauer_order(self) -> int:
        return 1 if self.kind == "closed" else 2

    def cohomology(self, g: FiniteGroup, budget: int | None = None) -> CohomologyGroup:
        if self.kind == "closed":
            return h2_closed_field(g) if budget is None else h2_closed_field(g, budget)
        return h2(g, 2) if budget is None else h2(g, 2, budget)

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
        d = np.asarray(self.degree, dtype=np.int64) % 2
        mul = np.asarray(self.group.mul)
        if not ((d[:, None] + d[None, :]) % 2 == d[mul]).all():
            raise ParseError("grading is not a homomorphism to Z_2")
        self.degree = d

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


def sharp_class_table(cg: CohomologyGroup, inv: CentralInvolution) -> tuple[list[CohomologyClass], np.ndarray]:
    classes = list(cg.all_classes())
    reps = [c.representative() for c in classes]
    index = {c.coords: i for i, c in enumerate(classes)}
    m = len(classes)
    table = np.zeros((m, m), dtype=np.int32)
    for i in range(m):
        for j in range(m):
            prod = cg.class_of(sharp(reps[i], reps[j], inv))
            table[i, j] = index[prod.coords]
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
        raise BudgetExceeded(f"|H^2| = {cg.size} exceeds enumeration budget {budget}")
    classes, table = sharp_class_table(cg, inv)
    ident = next(i for i, c in enumerate(classes) if c.is_trivial())
    invariants = _abelian_table_invariants(table, ident)
    return SharpGroup(field=field, inv=inv, cohomology=cg, classes=classes, table=table, invariants=invariants)


def _abelian_table_invariants(table: np.ndarray, ident: int) -> tuple[int, ...]:
    """Invariant factors, largest first, of an enumerated product table after
    checking that it is an abelian group table."""
    if (table != table.T).any():
        raise ParseError("enumerated product is not commutative")
    group_from_table(table, identity=ident)
    return tuple(_abelian_basis_from_table(table, ident)[1])


def quaternion_symbol(a: int, b: int, field: FieldDescriptor) -> int:
    """Brauer class bit of the quaternion algebra <a, b / k>.

    Arguments are square-class bits (0 = square, 1 = non-square); over a
    real closed field the symbol is nontrivial exactly for (-1, -1).
    """
    if field.kind == "closed":
        return 0
    return 1 if (a % 2 == 1 and b % 2 == 1) else 0


@dataclass(eq=False)
class BMElement:
    """(Brauer part, H^2 class with stored square-class marker, parity bit)."""

    brauer_part: int
    h2_class: CohomologyClass
    marker: int
    parity: int

    def key(self) -> tuple:
        return (self.brauer_part, self.h2_class.coords, self.parity)


@dataclass(eq=False)
class BMGroup:
    """BM(k, k[G], R_u): central extension of Br(k) by H^2_sharp or Q(k, G)."""

    field: FieldDescriptor
    group: FiniteGroup
    inv: CentralInvolution
    split: bool
    chi: GroupCharacter | None
    cohomology: CohomologyGroup
    classes: list[CohomologyClass]
    markers: list[int]
    sharp_table: np.ndarray
    c11_index: int
    elements: list[BMElement]
    table: np.ndarray
    invariants: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, el: BMElement) -> int:
        return self._index[el.key()]

    def __post_init__(self) -> None:
        self._index = {el.key(): i for i, el in enumerate(self.elements)}
        self._class_index = {c.coords: i for i, c in enumerate(self.classes)}

    def multiply(self, x: BMElement, y: BMElement) -> BMElement:
        """Product rules: Brauer parts twist by the quaternion symbol of the
        sigma(u,u) values, classes multiply by sharp, parities add, and
        C(1) * C(1) contributes the class with sigma(u,u) = -1."""
        bo = self.field.brauer_order
        i1 = self._class_index[x.h2_class.coords]
        i2 = self._class_index[y.h2_class.coords]
        s1, s2 = self.markers[i1], self.markers[i2]
        b = (x.brauer_part + y.brauer_part + quaternion_symbol(s1, s2, self.field)) % bo
        ci = int(self.sharp_table[i1, i2])
        parity = (x.parity + y.parity) % 2 if self.split else 0
        if x.parity and y.parity:
            s12 = self.markers[ci]
            b = (b + quaternion_symbol(s12, 1, self.field)) % bo
            ci = int(self.sharp_table[ci, self.c11_index])
        return BMElement(
            brauer_part=b, h2_class=self.classes[ci], marker=self.markers[ci], parity=parity
        )

    def identity_element(self) -> BMElement:
        zero = self.cohomology.zero_class()
        i = self._class_index[zero.coords]
        return BMElement(0, zero, self.markers[i], 0)

    def power(self, x: BMElement, k: int) -> BMElement:
        out = self.identity_element()
        for _ in range(k):
            out = self.multiply(out, x)
        return out

    def element_order(self, x: BMElement) -> int:
        ident = self.identity_element().key()
        k, y = 1, x
        while y.key() != ident:
            y = self.multiply(y, x)
            k += 1
        return k


def bm_group(
    g: FiniteGroup,
    inv: CentralInvolution,
    field: FieldDescriptor,
    budget: int = ENUMERATION_BUDGET,
) -> BMGroup:
    """Enumerate BM(k, k[G], R_u) for u != 1 under the stated product rules."""
    if inv.group is not g:
        raise ParseError("involution lives on a different group")
    if inv.is_trivial:
        raise TrivialInvolution("BM(k, k[G], R_u) machinery needs u != 1")
    chi = splitting_character(inv)
    split = chi is not None
    cg = field.cohomology(g)
    total = field.brauer_order * cg.size * (2 if split else 1)
    if total > budget:
        raise BudgetExceeded(f"|BM| = {total} exceeds enumeration budget {budget}")
    classes, sharp_table = sharp_class_table(cg, inv)
    index = {c.coords: i for i, c in enumerate(classes)}
    markers = [0 if field.kind == "closed" else restriction_square_class(inv, c.representative()) for c in classes]
    n = cg.coeff.n
    if split:
        c11 = Cochain2(g, n, (n // 2) * np.outer(chi.values, chi.values))
        c11_index = index[cg.class_of(c11).coords]
    else:
        c11_index = index[cg.zero_class().coords]
    elements = [
        BMElement(b, c, markers[i], a)
        for b in range(field.brauer_order)
        for i, c in enumerate(classes)
        for a in (range(2) if split else range(1))
    ]
    bm = BMGroup(
        field=field,
        group=g,
        inv=inv,
        split=split,
        chi=chi,
        cohomology=cg,
        classes=classes,
        markers=markers,
        sharp_table=sharp_table,
        c11_index=c11_index,
        elements=elements,
        table=np.zeros((len(elements), len(elements)), dtype=np.int32),
        invariants=(),
    )
    m = len(elements)
    for i in range(m):
        for j in range(m):
            bm.table[i, j] = bm.index_of(bm.multiply(elements[i], elements[j]))
    ident = bm.index_of(bm.identity_element())
    bm.invariants = _abelian_table_invariants(bm.table, ident)
    expected = field.brauer_order * cg.size * (2 if split else 1)
    if m != expected:
        raise ParseError("BM enumeration size mismatch")
    return bm


@dataclass(eq=False)
class QkGElement:
    quotient_class: CohomologyClass
    chi_index: int
    square_class: int
    parity: int

    def key(self) -> tuple:
        return (self.quotient_class.coords, self.chi_index, self.square_class, self.parity)


@dataclass(eq=False)
class QGroup:
    """Q(k, G) for split G: H^2(G/U) x Hom(G/U, Z_2) x k*/(k*)^2 x Z_2."""

    field: FieldDescriptor
    inv: CentralInvolution
    quotient_cohomology: CohomologyGroup
    characters: list[GroupCharacter]
    elements: list[QkGElement]
    table: np.ndarray
    invariants: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, el: QkGElement) -> int:
        return self._index[el.key()]

    def __post_init__(self) -> None:
        self._index = {el.key(): i for i, el in enumerate(self.elements)}
        self._char_lookup = {(c.values % 2).tobytes(): i for i, c in enumerate(self.characters)}

    def multiply(self, x: QkGElement, y: QkGElement) -> QkGElement:
        chi = self.characters[x.chi_index]
        chi2 = self.characters[y.chi_index]
        cls = x.quotient_class + y.quotient_class + self._pairing_class(chi, chi2)
        ci = self._char_product(x.chi_index, y.chi_index)
        s = (x.square_class + y.square_class + x.parity * y.parity) % max(self.field.square_class_order, 1)
        if self.field.square_class_order == 1:
            s = 0
        return QkGElement(cls, ci, s, (x.parity + y.parity) % 2)

    def _pairing_class(self, chi: GroupCharacter, chi2: GroupCharacter) -> CohomologyClass:
        cq = self.quotient_cohomology
        if not chi.values.any() or not chi2.values.any():
            return cq.zero_class()
        n = cq.coeff.n
        vals = (n // 2) * np.outer(chi.values % 2, chi2.values % 2)
        return cq.class_of(Cochain2(cq.group, n, vals))

    def _char_product(self, i: int, j: int) -> int:
        v = (self.characters[i].values + self.characters[j].values) % 2
        key = v.tobytes()
        return self._char_lookup[key]


def q_group(
    g: FiniteGroup,
    inv: CentralInvolution,
    field: FieldDescriptor,
    budget: int = ENUMERATION_BUDGET,
) -> QGroup:
    """The group Q(k, G) of the split short exact sequence, by enumeration."""
    if inv.is_trivial:
        raise TrivialInvolution("Q(k, G) needs u != 1")
    chi0 = splitting_character(inv)
    if chi0 is None:
        raise NotSplit("U is not a direct summand of G")
    qd = quotient_by_central_involution(inv)
    q = qd.quotient
    cq = field.cohomology(q)
    from .groups import all_characters

    chars = list(all_characters(q, 2))
    total = cq.size * len(chars) * field.square_class_order * 2
    if total > budget:
        raise BudgetExceeded(f"|Q(k,G)| = {total} exceeds enumeration budget {budget}")
    elements = [
        QkGElement(c, ci, s, e)
        for c in cq.all_classes()
        for ci in range(len(chars))
        for s in range(field.square_class_order)
        for e in range(2)
    ]
    qg = QGroup(
        field=field,
        inv=inv,
        quotient_cohomology=cq,
        characters=chars,
        elements=elements,
        table=np.zeros((len(elements), len(elements)), dtype=np.int32),
        invariants=(),
    )
    m = len(elements)
    for i in range(m):
        for j in range(m):
            qg.table[i, j] = qg.index_of(qg.multiply(elements[i], elements[j]))
    ident = qg.index_of(QkGElement(cq.zero_class(), qg._char_lookup[(np.zeros(q.order, dtype=np.int64)).tobytes()], 0, 0))
    qg.invariants = _abelian_table_invariants(qg.table, ident)
    return qg


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

    @property
    def root_order(self) -> int:
        return self.sigma.modulus

    def product(self, i: int, j: int) -> tuple[int, int]:
        """(exponent of zeta, index of the product basis element)."""
        return int(self.sigma.values[i, j]), int(self.group.mul[i, j])

    def degree_map(self) -> np.ndarray:
        """chi_h(g) = sigma(g, h) - sigma(h, g), one column per h."""
        return (self.sigma.values - self.sigma.values.T) % self.sigma.modulus

    def degrees_are_characters(self) -> bool:
        """chi_h(x s) = chi_h(x) + chi_h(s) for s in G.gens; chi_h(1) = 0 and
        the BFS words then give chi_h(x y) = chi_h(x) + chi_h(y) for all y."""
        gens = np.array(self.group.gens)
        deg = self.degree_map()
        xs = np.asarray(self.group.mul)[:, gens]
        return not ((deg[:, None, :] + deg[gens][None, :, :] - deg[xs]) % self.sigma.modulus).any()

    def associativity_holds(self) -> bool:
        return is_cocycle(self.sigma)


def twisted_group_algebra(g: FiniteGroup, sigma: Cochain2, field: FieldDescriptor) -> TwistedGroupAlgebra:
    if sigma.group is not g:
        raise ParseError("cocycle lives on a different group")
    alg = TwistedGroupAlgebra(group=g, sigma=sigma, field=field)
    ab = abelianization(g)
    if len(ab.commutator_subgroup) == 1 and not alg.degrees_are_characters():
        raise ParseError("degree map failed the character check on an abelian group")
    return alg
