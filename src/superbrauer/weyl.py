"""Root systems, Weyl groups, longest elements and the group datum G(Phi).

Simple reflections are integer matrices in the simple-root basis, read off
the Cartan matrix of the Dynkin diagram; the longest element w0 is reached
from 1 by descents, with a reduced word.  When w0 is not -1 the diagram
automorphism -w0 is adjoined, giving G(Phi) = W(Phi) x <u>.  Table rows for
the final lazy-cohomology and Brauer-group displays are computed outright
when the group fits the budget, and quoted from the printed tables
(flagged "literature") otherwise.
"""

from __future__ import annotations

import functools

from .errors import CapExceeded, E8Refused, ParseError
from .forms import Representation, as_matrix
from .groups import DEFAULT_CAP, MAX_TABLE_ORDER, CentralInvolution, FiniteGroup, close_generators

WEYL_GROUP_BUDGET = 300  # largest |G(Phi)| computed by default; B4 = 384 is opt-in


class RootSystemType:
    """A Dynkin type; equal types are one key of the group_datum cache."""

    def __init__(self, family: str, rank: int) -> None:
        self.family = fam = family
        self.rank = n = rank
        ok = (
            (fam == "A" and n >= 1)
            or (fam == "B" and n >= 2)
            or (fam == "D" and n >= 4)
            or (fam == "E" and n in (6, 7, 8))
            or (fam == "F" and n == 4)
            or (fam == "G" and n == 2)
        )
        if not ok:
            raise ParseError(f"invalid root system type {fam}{n}")

    def __eq__(self, other) -> bool:
        return isinstance(other, RootSystemType) and (other.family, other.rank) == (self.family, self.rank)

    def __hash__(self) -> int:
        return hash((self.family, self.rank))

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, s: str) -> "RootSystemType":
        s = s.strip().upper()
        if len(s) < 2 or s[0] not in "ABDEFG":
            raise ParseError(f"cannot parse root system type {s!r}")
        try:
            return cls(s[0], int(s[1:]))
        except ValueError as exc:
            raise ParseError(f"cannot parse root system type {s!r}") from exc


def cartan_matrix(t: RootSystemType) -> list[list[int]]:
    """Cartan integers c_ij = 2(alpha_i, alpha_j)/(alpha_i, alpha_i) from the
    Dynkin diagram in Bourbaki's numbering (Lie Groups and Lie Algebras,
    Ch. VI, Plates I-IX): -1 on each bond, and -2 or -3 from the short node
    to the long node of the one multiple bond of B_n, F4 and G2."""
    n = t.rank
    if t.family == "D":
        bonds = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif t.family == "E":
        bonds = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    else:  # A, B, F and G are paths
        bonds = [(i, i + 1) for i in range(n - 1)]
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in bonds:
        c[i][j] = c[j][i] = -1
    multiple = {"B": (n - 1, n - 2, -2), "F": (2, 1, -2), "G": (0, 1, -3)}
    if t.family in multiple:
        short, long, c_sl = multiple[t.family]
        c[short][long] = c_sl
    return c


def reflection_matrices(t: RootSystemType) -> list[list[list[int]]]:
    """Simple reflections in the simple-root basis: column j of s_i is
    s_i(alpha_j) = alpha_j - c_ij alpha_i."""
    c = cartan_matrix(t)
    n = t.rank
    mats = []
    for i in range(n):
        m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        m[i] = [m[i][j] - c[i][j] for j in range(n)]
        mats.append(m)
    return mats


def longest_word(mats: list[list[list[int]]]) -> tuple[list[list[int]], tuple[int, ...]]:
    """The matrix of w0 and a reduced word for it.  From w = 1, multiply by any
    s_i with w(alpha_i) > 0 (column i of w non-negative), which lengthens w
    by one, until every simple root goes negative: that element is w0
    (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.8)."""
    n = len(mats)
    w = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    word = []
    while True:
        ascents = [i for i in range(n) if all(row[i] >= 0 for row in w)]
        if not ascents:
            return w, tuple(word)
        s = mats[ascents[0]]
        w = [[sum(row[k] * s[k][j] for k in range(n)) for j in range(n)] for row in w]
        word.append(ascents[0])


def classical_order(t: RootSystemType) -> int:
    import math

    n = t.rank
    if t.family == "A":
        return math.factorial(n + 1)
    if t.family == "B":
        return 2**n * math.factorial(n)
    if t.family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    if t.family == "G":
        return 12
    if t.family == "F":
        return 1152
    return {6: 51840, 7: 2903040, 8: 696729600}[n]


def w0_acts_as_minus_one(t: RootSystemType) -> bool:
    fam, n = t.family, t.rank
    if fam == "A":
        return n == 1
    if fam == "D":
        return n % 2 == 0
    if fam == "E":
        return n in (7, 8)
    return True  # B_n, F4, G2


class WeylGroupData:
    def __init__(self, type: RootSystemType, group: FiniteGroup, simple_reflections: tuple[int, ...], w0: int,
                 w0_word: tuple[int, ...], coxeter_number: int, w0_is_minus_one: bool) -> None:
        self.type = type
        self.group = group
        self.simple_reflections = simple_reflections
        self.w0 = w0
        self.w0_word = w0_word  # a reduced word for w0 in the simple reflections
        self.coxeter_number = coxeter_number
        self.w0_is_minus_one = w0_is_minus_one


def _is_minus_identity(mat) -> bool:
    n = len(mat)
    return all(mat[i][j] == (-1 if i == j else 0) for i in range(n) for j in range(n))


def _admit_weyl(t: RootSystemType, cap: int) -> int:
    """|W| from the type, refused before anything is closed past
    min(cap, MAX_TABLE_ORDER), naming whichever bound binds."""
    if t.family == "E" and t.rank == 8:
        raise E8Refused("W(E8) has ~7e8 elements and is refused at any budget")
    order = classical_order(t)
    if order > min(cap, MAX_TABLE_ORDER):
        raise CapExceeded(f"|W({t.name})| = {order} exceeds cap {cap}" if cap <= MAX_TABLE_ORDER else
                          f"W({t.name}) has {order} elements, above the {MAX_TABLE_ORDER}-element multiplication table limit")
    return order


def build_weyl(t: RootSystemType, cap: int = DEFAULT_CAP) -> WeylGroupData:
    """Closure of the simple reflections; w0 comes from longest_word, and the
    Coxeter number h from |Phi| = rank * h (Humphreys, Reflection Groups and
    Coxeter Groups, Prop. 3.18), as w0's reduced word has length |Phi+|."""
    order = _admit_weyl(t, cap)
    mats = reflection_matrices(t)
    g = close_generators(mats, cap=cap)
    if g.order != order:
        raise ParseError(f"closure of {t.name} has wrong order {g.order}")
    w0mat, word = longest_word(mats)
    minus = _is_minus_identity(w0mat)
    if minus != w0_acts_as_minus_one(t):
        raise ParseError("w0 = -1 disagrees with the classical list")
    return WeylGroupData(
        type=t,
        group=g,
        simple_reflections=tuple(g.gens),
        w0=g.word_to_element(word),
        w0_word=word,
        coxeter_number=2 * len(word) // t.rank,
        w0_is_minus_one=minus,
    )


class GroupDatum:
    """(G(Phi), u, standard reflection representation) with rho(u) = -1."""

    def __init__(self, type: RootSystemType, group: FiniteGroup, inv: CentralInvolution, rep: Representation,
                 extended: bool) -> None:
        self.type = type
        self.group = group
        self.inv = inv
        self.rep = rep
        self.extended = extended  # True when G = W x <theta>, theta = -w0


def group_datum(t: RootSystemType, cap: int = DEFAULT_CAP) -> GroupDatum:
    """The datum of type t, built once per (type, cap)."""
    return _group_datum(t, cap)


@functools.cache
def _group_datum(t: RootSystemType, cap: int) -> GroupDatum:
    """One closure of the simple reflections, with theta = -w0 appended where
    w0 != -1; u is w0, or w0 * theta = -1, read off w0's reduced word."""
    _admit_weyl(t, cap)
    mats = reflection_matrices(t)
    w0mat, word = longest_word(mats)
    extended = not w0_acts_as_minus_one(t)
    if extended:
        mats.append([[-x for x in row] for row in w0mat])
        word += (t.rank,)
    g = close_generators(mats, cap=cap)
    u = g.word_to_element(word)
    if g.order != datum_size(t) or not _is_minus_identity(g.element_data[u]):
        raise ParseError(f"G({t.name}) has wrong order {g.order} or its u is not -1")
    inv = CentralInvolution(g, u)
    rep = Representation(group=g, dim=t.rank, gen_matrices=[as_matrix(g.element_data[s]) for s in g.gens])
    if not rep.is_faithful():
        raise ParseError("standard representation is not faithful")
    return GroupDatum(type=t, group=g, inv=inv, rep=rep, extended=extended)


# ---------------------------------------------------------------------------
# the printed tables (used verbatim for rows beyond the computation budget)


def literature_h2l(t: RootSystemType) -> tuple[int, ...]:
    """Finite part of the printed lazy-cohomology table (always x C)."""
    fam, n = t.family, t.rank
    if fam == "A":
        return () if n <= 2 else (2,)
    if fam == "G":
        return ()
    if fam == "B":
        if n in (2, 3):
            return (2,)
        return (2, 2, 2) if n % 2 == 0 else (2, 2)
    if fam == "D":
        return (2, 2, 2) if n == 4 else (2, 2)
    if fam == "E":
        return (2,)
    return (2, 2)  # F4


def literature_bm(t: RootSystemType) -> tuple[int, ...]:
    """Finite part of the printed Brauer-group table (always x C).

    Where w0 != -1, G(Phi) = W x <-w0> and H^2(G(Phi)) = H^2(W) x Z2; the
    printed display drops that Z2, so a computed row (table_row) has one Z2
    more than this value: A2, A3, A5 and D5 do.  H^2_L and the rows with
    w0 = -1 agree."""
    fam, n = t.family, t.rank
    if fam == "A":
        return (2,) if n <= 2 else (2, 2)
    if fam == "G":
        return (2, 2)
    if fam == "B":
        if n == 2:
            return (2,)
        if n == 3:
            return (2, 2, 2)
        return (2, 2, 2) if n % 2 == 0 else (2, 2, 2, 2)
    if fam == "D":
        if n == 4:
            return (2, 2, 2)
        return (2, 2) if n % 2 == 0 else (2, 2, 2)
    if fam == "E":
        return (2,) if n == 8 else (2, 2)
    return (2, 2)  # F4


class TableRow:
    def __init__(self, type_name: str, mode: str, h2l_invariants: tuple[int, ...], h2l_linear_dim: int,
                 bm_invariants: tuple[int, ...], bm_linear_dim: int) -> None:
        self.type_name = type_name
        self.mode = mode  # "computed" or "literature"
        self.h2l_invariants = h2l_invariants
        self.h2l_linear_dim = h2l_linear_dim
        self.bm_invariants = bm_invariants
        self.bm_linear_dim = bm_linear_dim

    def as_dict(self) -> dict:
        return {
            "type": self.type_name,
            "mode": self.mode,
            "H2L": {"invariants": list(self.h2l_invariants), "linear_dim": self.h2l_linear_dim},
            "BM": {"invariants": list(self.bm_invariants), "linear_dim": self.bm_linear_dim},
        }

    def pretty(self) -> str:
        def fmt(inv, d):
            fin = " x ".join(f"Z{x}" for x in inv) if inv else "1"
            return fin + (f" x C^{d}" if d else "")

        flag = "" if self.mode == "computed" else "  [literature]"
        return (
            f"{self.type_name:>4}  H2_L = {fmt(self.h2l_invariants, self.h2l_linear_dim):<22} "
            f"BM = {fmt(self.bm_invariants, self.bm_linear_dim):<26}{flag}"
        )


def datum_size(t: RootSystemType) -> int:
    return classical_order(t) * (1 if w0_acts_as_minus_one(t) else 2)


def table_row(
    t: RootSystemType,
    group_budget: int = WEYL_GROUP_BUDGET,
    cap: int = DEFAULT_CAP,
) -> TableRow:
    """One row of the two final tables; computed when |G(Phi)| fits the budget.
    H^2_L and BM share their linear part dim S^2(V*)^G, computed once."""
    from .sharp import ALG_CLOSED, bm_group
    from .supergroup import build_supergroup, lazy_cohomology

    if datum_size(t) > group_budget or (t.family == "E" and t.rank == 8):
        return TableRow(
            type_name=t.name,
            mode="literature",
            h2l_invariants=literature_h2l(t),
            h2l_linear_dim=1,
            bm_invariants=literature_bm(t),
            bm_linear_dim=1,
        )
    datum = group_datum(t, cap=cap)
    alg = build_supergroup(datum.group, datum.inv, datum.rep)
    lc = lazy_cohomology(alg)
    bm = bm_group(datum.group, datum.inv, ALG_CLOSED)
    return TableRow(
        type_name=t.name,
        mode="computed",
        h2l_invariants=lc.invariants,
        h2l_linear_dim=lc.linear_dim,
        bm_invariants=bm.invariants,
        bm_linear_dim=lc.linear_dim,
    )


# A4 (order 240) also computes within the default budget; its row takes about
# 1 s as a cold CLI job on a 2-core machine, and it is requested explicitly.
DEFAULT_TABLE_TYPES = ["A1", "A2", "A3", "B2", "B3", "D4", "G2", "B4", "D5", "F4", "E6", "E7", "E8"]
