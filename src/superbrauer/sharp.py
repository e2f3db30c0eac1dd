"""The grading attached to a 2-cocycle, the twisted sharp product on H^2,
and the Brauer group BM(k, k[G], R_u) and the group Q(k, G).  Each group is
its generator columns x g_k, built from generating data (the sharp twist,
the sigma(u,u) markers and the class of C(1)^2 or the character pairing
classes); its invariants come from the Schreier relations, as G^ab's do,
and its Cayley table is derived only when it is read.

Only two base-field descriptors exist: algebraically closed of
characteristic zero, and real closed.  Anything else has square classes and
Brauer groups outside the scope of this library and is rejected up front.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, NotCocycle, NotSplit, ParseError, TrivialInvolution
from .cohomology import (
    CohomologyClass,
    CohomologyGroup,
    Cochain2,
    h2,
    h2_closed_field,
    cycle_edges,
    is_cocycle,
    walk_sums,
)
from .groups import (
    DEFAULT_H2_BUDGET,
    ENUMERATION_BUDGET,
    CentralInvolution,
    FiniteGroup,
    abelian_invariants,
    all_characters,
    bfs_tree,
    is_character,
    quotient_by_central_involution,
    splitting_character,
)


class FieldDescriptor:
    """AlgClosedChar0 or RealClosed; fixes square classes, Br(k) and coefficients."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        if kind not in ("closed", "real"):
            raise ParseError(
                f"unsupported field descriptor {kind!r}: only algebraically closed "
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


ALG_CLOSED = FieldDescriptor("closed")
REAL_CLOSED = FieldDescriptor("real")


def field_from_name(name: str) -> FieldDescriptor:
    if name in ("closed", "C", "algclosed"):
        return ALG_CLOSED
    if name in ("real", "R", "realclosed"):
        return REAL_CLOSED
    raise ParseError(f"unknown field descriptor {name!r}")


class ZGrading:
    """Z_2-grading of k[G] induced by a cocycle class; u is always even."""

    def __init__(self, group: FiniteGroup, degree: np.ndarray) -> None:
        self.group = group
        self.degree = np.asarray(degree, dtype=np.int64) % 2
        if not is_character(group, self.degree, 2):
            raise ParseError("grading is not a homomorphism to Z_2")

    def is_trivial(self) -> bool:
        return not self.degree.any()


def theta(sigma: Cochain2 | CohomologyClass, inv: CentralInvolution) -> ZGrading:
    """Degree map g -> sigma(g,u) - sigma(u,g) in {0, N/2} ~ Z_2, the commutator of
    lifts of g and u: a character, as u is central.  theta(s) is the label walk
    s w_u s^-1 w_u^-1 from 1 (w_u the BFS word of u), carried to G by the tree.
    A class's labels must pass the relator rows, a cochain is_cocycle."""
    if isinstance(sigma, CohomologyClass):
        cg = sigma.parent
        g, n, labels = cg.group, cg.coeff.n, cg.labels_of_coords(sigma.coords)
        cocycle = cg.is_cocycle_labels(labels)
    else:
        g, n, labels = sigma.group, sigma.modulus, sigma.values[:, list(sigma.group.gens)].ravel()
        cocycle = is_cocycle(sigma)
    if g is not inv.group:
        raise ParseError("cocycle and involution live on different groups")
    if n % 2:
        raise ParseError("theta needs an even coefficient modulus")
    if not cocycle:
        raise NotCocycle("theta is only defined on cocycles")
    w = walk_sums(*cycle_edges(g, [(j, 1) for j in g.word(inv.u)]), labels, n)  # along w_u from every start
    from_1, from_u = labels.reshape(g.order, -1)[[g.identity, inv.u]]  # labels of the edges (1, s) and (u, s)
    t = (from_1 + w[list(g.gens)] - from_u - w[g.identity]) % n // (n // 2)  # s, w_u, s^-1 into u, w_u^-1 to 1
    deg = np.zeros(g.order, dtype=np.int64)
    for x, k, y in g.tree:
        deg[y] = deg[x] + t[k]
    return ZGrading(group=g, degree=deg)


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


class _GeneratedGroup:
    """A finite abelian group given by its generator columns right[x, k] = x g_k
    (n x k, identity 0), checked exhaustively on generators: each column
    permutes 0..n-1, the columns commute (x g_a g_b = x g_b g_a) and the BFS
    from 0 reaches every element.  A transitive abelian permutation group is
    regular, so the columns are the right-regular action of an abelian group
    of order n, whose invariants come from the Schreier relations as G^ab's do."""

    def __init__(self, right: np.ndarray) -> None:
        n, k = right.shape
        seen = np.zeros((n, k), dtype=bool)
        seen[right, np.arange(k)] = True
        if not seen.all():
            raise ParseError("a generator column is not a permutation")
        twice = right[right]  # x g_a g_b at [x, a, b]
        if (twice != twice.transpose(0, 2, 1)).any():
            raise ParseError("the generator columns do not commute")
        self.right = right
        self.tree = bfs_tree(right)
        if len(self.tree) != n - 1:
            raise ParseError("the generator columns do not reach every element")

    @property
    def order(self) -> int:
        return len(self.right)

    @cached_property
    def invariants(self) -> tuple[int, ...]:
        """Invariant factors, largest first."""
        return abelian_invariants(self.right, self.tree)[0]

    @cached_property
    def table(self) -> np.ndarray:
        """The Cayley table, derived on first read: row 0 is the identity's,
        and for each tree edge (p, k, y) row y is right[row p, k], because
        y x = p g_k x = (p x) g_k in an abelian group."""
        n = self.order
        table = np.empty((n, n), dtype=np.int32)
        table[0] = np.arange(n)
        for p, k, y in self.tree:
            table[y] = self.right[table[p], k]
        return table


def _completed(right: np.ndarray, column) -> np.ndarray:
    """right, then column(x) (y -> y x) for the lowest x the BFS from 0 misses, until it misses
    none: under the sharp twist the generator classes may not generate (Z2^3, u = g0 g1 g2)."""
    while len(tree := bfs_tree(right)) < len(right) - 1:
        x = min(set(range(len(right))) - {0, *(y for _, _, y in tree)})
        right = np.column_stack([right, column(x)]).astype(np.int32)
    return right


class SharpGroup(_GeneratedGroup):
    """H^2_sharp(G, k*): the classes of H^2 under the sharp product, generated
    by the generator classes of H^2 and the classes they miss."""

    def __init__(self, cohomology: CohomologyGroup, classes: list[CohomologyClass], right: np.ndarray) -> None:
        super().__init__(right)
        self.cohomology = cohomology
        self.classes = classes
        self._index = {c.coords: i for i, c in enumerate(classes)}

    size = _GeneratedGroup.order  # |H^2|

    def index_of(self, cls: CohomologyClass) -> int:
        return self._index[cls.coords]


def _positions(coords, orders) -> np.ndarray:
    """Position in all_classes order (last coordinate fastest) of each
    coordinate vector along the last axis, reduced mod the invariants."""
    orders = np.asarray(orders, dtype=np.int64)
    radix = np.array([np.prod(orders[k + 1:]) for k in range(len(orders))], dtype=np.int64)
    return (np.asarray(coords, dtype=np.int64) % orders) @ radix


def _sharp_products(cg: CohomologyGroup, inv: CentralInvolution):
    """The classes of cg in all_classes order, and a map from a matrix of
    second operands y (coordinate rows) to the positions of x # y (classes x
    rows) for every class x.

    theta of the class x is sum_a x_a theta_a mod 2, the class map is
    additive and (N/2) k mod N depends only on k mod 2, so
    x # y = x + y + sum_ab (x_a mod 2)(y_b mod 2) P_ab, where P_ab is the
    pairing_class of theta_a and theta_b of the generator classes."""
    classes = list(cg.all_classes())
    degrees = [theta(c, inv).degree for c in cg.generators()]
    pairings = [[cg.pairing_class(da, db).coords for db in degrees] for da in degrees]  # P_ab
    twist = np.array(pairings, dtype=np.int64).reshape((len(degrees),) * 3)
    coords = np.array([c.coords for c in classes], dtype=np.int64)
    parity = coords % 2

    def times(ys) -> np.ndarray:
        ys = np.asarray(ys, dtype=np.int64)
        twisted = np.einsum("xa,yb,abc->xyc", parity, ys % 2, twist)
        return _positions(coords[:, None] + ys + twisted, cg.invariants).astype(np.int32)

    return classes, times


def sharp_class_table(cg: CohomologyGroup, inv: CentralInvolution) -> tuple[list[CohomologyClass], np.ndarray]:
    """The classes of cg in all_classes order and the generator columns of the
    sharp product: x # e_a for the generator classes e_a, then x # c for the
    lowest class c they do not reach, until every class is reached."""
    classes, times = _sharp_products(cg, inv)
    right = times(np.eye(len(cg.invariants), dtype=np.int64))
    return classes, _completed(right, lambda c: times([classes[c].coords])[:, 0])


def h2_sharp(
    g: FiniteGroup,
    inv: CentralInvolution,
    field: FieldDescriptor,
    budget: int = ENUMERATION_BUDGET,
) -> SharpGroup:
    """H^2 under the sharp product, generated by the generator classes (and those they miss)."""
    if inv.group is not g:
        raise ParseError("involution lives on a different group")
    if inv.is_trivial:
        raise TrivialInvolution("H^2_sharp needs u != 1")
    cg = field.cohomology(g)
    if cg.size > budget:
        raise BudgetExceeded(f"|H^2| = {cg.size} exceeds enumeration budget {budget}; raise --budget-enum")
    return SharpGroup(cg, *sharp_class_table(cg, inv))


def quaternion_symbol(a, b, field: FieldDescriptor):
    """Brauer class bit of the quaternion algebra <a, b / k>.

    Arguments are square-class bits (0 = square, 1 = non-square), ints or
    arrays; over a real closed field the symbol is nontrivial exactly for
    (-1, -1).
    """
    return (field.kind == "real") * (a % 2) * (b % 2)


class BMGroup(_GeneratedGroup):
    """BM(k, k[G], R_u): central extension of Br(k) by H^2_sharp or Q(k, G).

    Element (b, i, a) = (Brauer part, i-th class of cohomology.all_classes(),
    parity) is row (b |H^2| + i)(1 + split) + a of the Cayley table."""

    def __init__(self, split: bool, cohomology: CohomologyGroup, right: np.ndarray) -> None:
        super().__init__(right)
        self.split = split
        self.cohomology = cohomology


def bm_group(
    g: FiniteGroup,
    inv: CentralInvolution,
    field: FieldDescriptor,
    budget: int = ENUMERATION_BUDGET,
) -> BMGroup:
    """BM(k, k[G], R_u) for u != 1, generated by the Brauer class (when
    Br(k) = Z_2), the classes (0, e_a, 0), C(1) = (0, 0, 1) (when split) and what they miss.

    (b1, i1, a1)(b2, i2, a2) has class i1 # i2, shifted by sharp with the
    class c11 of C(1)^2 when a1 = a2 = 1; Brauer part b1 + b2 + <M1, M2> plus
    <M12, -1> when a1 = a2 = 1, with <,> the quaternion symbol and M the
    sigma(u,u) square-class markers; parity a1 + a2.  Over Z_2 a marker is
    sigma(u,u) of the class's tree-gauge representative, whose labels are the
    sum of the generators' labels, so it is linear mod 2 in the class coordinates."""
    if inv.group is not g:
        raise ParseError("involution lives on a different group")
    if inv.is_trivial:
        raise TrivialInvolution("BM(k, k[G], R_u) machinery needs u != 1")
    chi = splitting_character(inv)
    split = chi is not None
    cg = field.cohomology(g)
    bo, h, s, r = field.brauer_order, cg.size, 1 + split, len(cg.invariants)
    if bo * h * s > budget:
        raise BudgetExceeded(f"|BM| = {bo * h * s} exceeds enumeration budget {budget}; raise --budget-enum")
    classes, times = _sharp_products(cg, inv)
    marks = np.zeros(r, dtype=np.int64)
    if field.kind == "real":
        # over Z_2 the bit sigma_a(u,u), the label sum along w_u from u (from 1 it is 0: the labels vanish on the tree)
        ids, signs = cycle_edges(g, [(j, 1) for j in g.word(inv.u)])
        marks[:] = [walk_sums(ids, signs, cg.labels_of_coords(c.coords), 2)[inv.u] for c in cg.generators()]
    M = np.array([c.coords for c in classes], dtype=np.int64) @ marks % 2
    c11 = cg.pairing_class(chi.values, chi.values).coords if split else (0,) * r
    by_gen, by_c11 = times(np.eye(r, dtype=np.int64)), times([c11])[:, 0]
    b1, i1, a1 = np.ix_(np.arange(bo), np.arange(h), np.arange(s))
    zero = np.arange(h)  # x # 0

    def times_gen(b2, sharp_i2, m2, a2) -> np.ndarray:
        """x y for every element x and y = (b2, i2, a2), given x # i2 for every class and M[i2]."""
        ij = sharp_i2[i1]
        both = a1 * a2
        b = (b1 + b2 + quaternion_symbol(M[i1], m2, field) + both * quaternion_symbol(M[ij], 1, field)) % bo
        return ((b * h + np.where(both, by_c11[ij], ij)) * s + (a1 + a2) % s).ravel()

    generators = [(1, zero, 0, 0)] if bo > 1 else []
    generators += [(0, by_gen[:, a], marks[a], 0) for a in range(r)] + ([(0, zero, 0, 1)] if split else [])
    # the identity (0, zero class, 0) is element 0; BM may be trivial, with no generator
    right = np.array([times_gen(*y) for y in generators], dtype=np.int32).reshape(len(generators), bo * h * s).T
    return BMGroup(split=split, cohomology=cg, right=_completed(right, lambda x: times_gen(  # x = (b h + i) s + a
        x // (h * s), times([classes[x // s % h].coords])[:, 0], M[x // s % h], x % s)))


class QGroup(_GeneratedGroup):
    """Q(k, G) for split G: H^2(G/U) x Hom(G/U, Z_2) x k*/(k*)^2 x Z_2.

    Element (c, x, s, e) = (c-th class of H^2(G/U).all_classes(), x-th
    character of all_characters(G/U, 2), square class, parity) is row
    ((c |Hom| + x) |k*/(k*)^2| + s) 2 + e of the Cayley table."""


def q_group(
    g: FiniteGroup,
    inv: CentralInvolution,
    field: FieldDescriptor,
    budget: int = ENUMERATION_BUDGET,
) -> QGroup:
    """The group Q(k, G) of the split short exact sequence, generated by the
    generator classes of H^2(G/U), a basis of Hom(G/U, Z_2), -1 (when
    k*/(k*)^2 = Z_2) and the parity.

    (c1, x1, s1, e1)(c2, x2, s2, e2) = (c1 + c2 + P[x1, x2], x1 x2,
    s1 + s2 + e1 e2, e1 + e2), with P[x1, x2] the pairing_class of x1 and
    x2.  In all_characters order the character index is the bit vector of
    the character's coordinates, so x1 x2 is x1 ^ x2 and the basis
    characters are the indices 2^j."""
    if inv.is_trivial:
        raise TrivialInvolution("Q(k, G) needs u != 1")
    if splitting_character(inv) is None:
        raise NotSplit("U is not a direct summand of G")
    q = quotient_by_central_involution(inv).quotient
    cq = field.cohomology(q)
    chars = [c.values % 2 for c in all_characters(q, 2)]
    h, nc, sq, r = cq.size, len(chars), field.square_class_order, len(cq.invariants)
    if h * nc * sq * 2 > budget:
        raise BudgetExceeded(f"|Q(k,G)| = {h * nc * sq * 2} exceeds enumeration budget {budget}; raise --budget-enum")
    basis = [1 << j for j in range(nc.bit_length() - 1)]
    pairing = {b: np.array([cq.pairing_class(v, chars[b]).coords for v in chars], dtype=np.int64).reshape(nc, r)
               for b in basis}  # P[x1, b] for the basis characters b
    pairing[0] = np.zeros((nc, r), dtype=np.int64)  # and for the trivial one
    coords = np.array([c.coords for c in cq.all_classes()], dtype=np.int64)
    c1, x1, s1, e1 = np.ix_(*(np.arange(d) for d in (h, nc, sq, 2)))

    def times_gen(c2, x2, s2, e2) -> np.ndarray:
        """x y for every element x and y = (c2, x2, s2, e2)."""
        cls = _positions(coords[c1] + c2 + pairing[x2][x1], cq.invariants)
        return (((cls * nc + (x1 ^ x2)) * sq + (s1 + s2 + e1 * e2) % sq) * 2 + (e1 + e2) % 2).ravel()

    generators = [(e, 0, 0, 0) for e in np.eye(r, dtype=np.int64)] + [(0, b, 0, 0) for b in basis]
    generators += ([(0, 0, 1, 0)] if sq > 1 else []) + [(0, 0, 0, 1)]
    # the identity (zero class, trivial character, 0, 0) is element 0
    return QGroup(np.array([times_gen(*y) for y in generators], dtype=np.int32).T)
