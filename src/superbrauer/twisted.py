"""The structure constants of k[G] (x) Lambda(V) as integer tables, and the
batched numpy checks on them: the Hopf laws, the R-matrix identities, and the
cocycle and lazy checks on m(a,b) = sum sigma(a1,b1) a2 b2 and its mirror
m^op(a,b) = sum sigma(a2,b2) a1 b1.  product_tables writes, with A = P minus B,
  Delta(g v_P) = sum_{B in P} wedge[B, A] g u^|B| v_A (x) g v_B,
  S(g v_P) = (-1)^|P| u^|P| g^{-1} (g.v_P),
and the product as the columns of the action.  supergroup imports this module
on the first verify check, so jobs that check nothing do not load it.

One routine, exterior_power, gives the nonzero minors of a stack of integer
matrices as one CSR table: the action columns of every Lambda rho(h^{-1}) in
one call, and the signed minors that lambda, R_A and r_A read off Lambda(A).

Every law is homogeneous in the structure constants (and in R or sigma), so
it is checked on integer numerators with the denominators' powers balanced:
in int64 while a bound on every sum is below 2^63, else in Python ints
(dtype=object) through the same code.
"""

from __future__ import annotations

import copy
import math
import random

import numpy as np

from .errors import CapExceeded
from .forms import Matrix, numerators
from .supergroup import SAMPLED_TRIPLES, HCochain2, SupergroupAlgebra, Tensor

_CHUNK_TERMS = 1 << 12  # about this many leg pairs or triple terms per numpy pass


class ProductTables:
    """The structure constants of H as integer CSR tables over one common
    denominator D: every coefficient below is D times a structure constant.

    Delta(b) is sum leg_coef first (x) second / D over the legs leg_start[b] ..
    leg_start[b+1] - 1, and S(b) is sum anti_coef anti_elem / D over
    anti_start[b] .. anti_start[b+1] - 1.  The nonzero entries (R, coef) of
    column P of D Lambda rho(h^{-1}) are act_mask, act_coef over act_start[c] ..
    act_start[c+1] - 1, c = h 2^n + P; with the sign wedge[R, Q] of v_R ^ v_Q,
    g v_P . h v_Q = sum coef wedge[R, Q] (gh) v_{R+Q} / D (products)."""

    def __init__(self, nv: int, mul: np.ndarray, leg_start: np.ndarray, leg_first: np.ndarray, leg_second: np.ndarray,
                 leg_coef: np.ndarray, act_start: np.ndarray, act_mask: np.ndarray, act_coef: np.ndarray,
                 anti_start: np.ndarray, anti_elem: np.ndarray, anti_coef: np.ndarray, denominator: int,
                 wedge: np.ndarray) -> None:
        self.nv, self.mul, self.denominator = nv, mul, denominator  # D
        self.leg_start, self.leg_first, self.leg_second, self.leg_coef = leg_start, leg_first, leg_second, leg_coef
        self.act_start, self.act_mask, self.act_coef = act_start, act_mask, act_coef
        self.anti_start, self.anti_elem, self.anti_coef = anti_start, anti_elem, anti_coef
        self.wedge = wedge  # _wedge(nv), built once by product_tables
        legs, entries = np.diff(leg_start), np.diff(act_start)
        self.max_terms = int(legs.max()) ** 2 * int(entries.max())  # terms of one twisted product
        self.max_entries = int(max(legs.max(), entries.max(), np.diff(anti_start).max()))  # of one Delta, column or S
        self.max_coef = max(int(abs(c).max()) for c in (leg_coef, act_coef, anti_coef))  # >= D
        self.pair_chunk = max(1, int(_CHUNK_TERMS * len(legs) ** 2 / len(leg_first) ** 2))  # pairs per kernel pass

    def exact(self, bound: int) -> ProductTables:
        """These tables while bound < 2^63, else a copy with Python-int coefficients."""
        if bound < 2**63:
            return self
        wide = copy.copy(self)
        wide.leg_coef, wide.act_coef, wide.anti_coef = (c.astype(object) for c in (self.leg_coef, self.act_coef,
                                                                                     self.anti_coef))
        return wide


def _wedge(n: int) -> np.ndarray:
    """wedge[R, Q]: the sign of v_R ^ v_Q merged into increasing order,
    (-1)^#{r in R, q in Q: r > q}, and 0 where R and Q overlap.  Built one
    index i at a time: i in R and not in Q passes every q in Q, a sign
    (-1)^|Q|; i in both overlaps."""
    w = np.zeros((1 << n, 1 << n), dtype=np.int64)
    w[0, 0] = 1
    for i in range(n):
        h = 1 << i  # rows and columns below h are the subsets of {0..i-1}
        w[:h, h:2 * h] = w[:h, :h]
        w[h:2 * h, :h] = w[:h, :h] * (1 - 2 * (_popcount(i) & 1))  # (-1)^|Q|
    return w


def _popcount(n: int) -> np.ndarray:
    """pop[m]: the number of elements of the subset m of {0..n-1}."""
    return (np.arange(1 << n)[:, None] >> np.arange(n) & 1).sum(1)


def _submasks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(mask, sub) for every subset sub of every subset mask of {0..n-1}, 3^n
    pairs, mask ascending and then sub ascending: the k-th subset of mask
    puts bit t of k on the t-th lowest element of mask."""
    mask, k = _expand(1 << _popcount(n))
    sub, rank = np.zeros_like(mask), np.zeros_like(mask)  # rank: the elements of mask below i
    for i in range(n):
        bit = mask >> i & 1
        sub |= (k >> rank & bit) << i
        rank += bit
    return mask, sub


def _lowest_terms(a: np.ndarray, d: int) -> tuple[np.ndarray, int]:
    """The values a / d over their least common denominator: (a / g, d / g), g = gcd(d, a), in place."""
    g = math.gcd(d, int(np.gcd.reduce(a, axis=None)))
    if g > 1:
        a //= g
    return a, d // g


def exterior_power(num: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(start, mask, coef, D): the nonzero minors of a stack of matrices num[k] / d as a CSR
    table, coef / D = det (num[k] / d)[R, P] for the entries (R, coef) of row c = k 2^n + P,
    start[c] .. start[c+1] - 1, R ascending, subsets as bit masks and D least; row c is the
    column P of Lambda(num[k] / d).  Column P is column P - i wedged with column i, i the top
    index of P: an entry (R, c) of column P - i and num[j, i] != 0, j not in R, give the term
    (-1)^#{r in R: r > j} c num[j, i] of R + j; a minor of size s goes over d^n by d^(n - s).
    No value passes n! max(|num|, d)^n: int64 below 2^63, else Python ints; int64 where it fits."""
    n, top = num.shape[-1], (1 << num.shape[-1]) - 1
    dtype = np.int64 if math.factorial(n) * max(int(np.abs(num).max(initial=0)), d) ** n < 2**63 else object
    num, pop = num.astype(dtype), _popcount(n)
    key, val = np.arange(len(num)) << 2 * n, np.ones(len(num), dtype)  # key (k 2^n + P) 2^n + R
    for i in range(n):
        k, r = key >> 2 * n, key & top
        e, j = np.nonzero((r[:, None] >> np.arange(n) & 1 == 0) & (num[k, :, i] != 0))  # entry e meets num[j, i]
        new_key = key[e] + (1 << n + i) + (1 << j)
        new_val = val[e] * num[k[e], j, i] * (1 - 2 * (pop[r[e] >> j + 1] & 1))
        order = np.argsort(new_key, kind="stable")  # the sort of _gap: no more numpy code paged in
        new_key, new_val = new_key[order], new_val[order]
        first = np.flatnonzero(np.diff(new_key, prepend=-1))  # the terms of one minor, now adjacent
        sums = np.add.reduceat(new_val, first) if len(first) else new_val
        key, val = np.concatenate([key, new_key[first][sums != 0]]), np.concatenate([val, sums[sums != 0]])
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order] * np.array([d ** (n - s) for s in range(n + 1)], dtype)[pop[key[order] & top]]
    val, den = _lowest_terms(val, d**n)
    val = val.astype(np.int64) if val.dtype == object and int(np.abs(val).max()) < 2**63 else val
    return np.searchsorted(key >> n, np.arange((len(num) << n) + 1)), key & top, val, den


def signed_minors(a: Matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(start, mask, coef, d): the exterior power of a signed, coef / d = (-1)^(s(s-1)/2)
    det a[P, Q], s = |Q|, for the entries (P, coef) of column Q, start[Q] .. start[Q+1] - 1."""
    start, mask, coef, d = exterior_power(*numerators([a]))
    return start, mask, coef * (1 - 2 * (_popcount(len(a))[mask] >> 1 & 1)), d  # |P| = |Q|


def product_tables(h: SupergroupAlgebra) -> ProductTables:
    n, top, order = h.nv, (1 << h.nv) - 1, h.group.order
    mul = np.asarray(h.group.mul, dtype=np.int64)
    ucol = mul[:, h.inv.u]
    pop = _popcount(n)
    # row h 2^n + P of the action is column P of D Lambda rho(h^{-1}), for every h at once; act_coef
    # is int64 when its largest entry, >= D from the column of mask 0, fits
    act_start, act_mask, act_coef, d = exterior_power(*numerators([h.rep.matrix(int(x)) for x in h.group.inv]))
    # Delta(g v_P): in (g x g) prod_{i in P} (v_i x 1 + u x v_i) each u moves left past the
    # v_a with a < b, and v_a u = -u v_a; the legs of B over the subsets of P, one row per g
    mask, sub = _submasks(n)
    rest, wedge = mask ^ sub, _wedge(n)
    g = np.arange(order, dtype=np.int64)[:, None]
    # S(g v_P) from S(v_i) = -u v_i: moving the u's of S(v_P) = S(v_ik)...S(v_i1) left and
    # reordering the v's give the same sign; g.v_P is the action column (g^{-1}, P)
    b = np.arange(h.dim, dtype=np.int64)
    gi, odd = np.asarray(h.group.inv, dtype=np.int64)[b >> n], pop[b & top] % 2
    j, e = _entries(act_start, gi << n | b & top)
    return ProductTables(
        nv=n,
        mul=mul,
        leg_start=np.cumsum([0, *np.tile(1 << pop, order)]),
        leg_first=(np.where(pop[sub] % 2, ucol[:, None], g) << n | rest).ravel(),
        leg_second=(g << n | sub).ravel(),
        leg_coef=np.tile(d * wedge[sub, rest].astype(act_coef.dtype), order),
        act_start=act_start,
        act_mask=act_mask,
        act_coef=act_coef,
        anti_start=np.searchsorted(j, np.arange(h.dim + 1)),
        anti_elem=np.where(odd, ucol[gi], gi)[j] << n | act_mask[e],
        anti_coef=np.where(odd, -1, 1)[j] * act_coef[e],
        denominator=d,
        wedge=wedge,
    )


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, offset) of every slot when row r has counts[r] slots, in row order."""
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]


def _entries(start: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(j, e): the entries e of row rows[j] of a CSR table with row starts start, j ascending."""
    j, i = _expand(start[rows + 1] - start[rows])
    return j, start[rows][j] + i


def _pairs(lo1: np.ndarray, hi1: np.ndarray, lo2: np.ndarray, hi2: np.ndarray):
    """(k, i, l): every i in lo1[k] .. hi1[k] - 1 with every l in lo2[k] .. hi2[k] - 1, k ascending."""
    n2 = hi2 - lo2
    k, m = _expand((hi1 - lo1) * n2)
    return k, lo1[k] + m // n2[k], lo2[k] + m % n2[k]


def _matched(j1: np.ndarray, j2: np.ndarray, m: int):
    """_pairs of two term lists with ascending group ids j1, j2 < m: every pair in one group."""
    r = np.arange(m + 1)
    s1, s2 = np.searchsorted(j1, r), np.searchsorted(j2, r)
    return _pairs(s1[:-1], s1[1:], s2[:-1], s2[1:])


def products(t: ProductTables, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero terms (j, z, c) of D x_j y_j = sum c z for basis elements x, y, j
    ascending: g v_P . h v_Q = sum coef wedge[R, Q] (gh) v_{R+Q} over the entries
    (R, coef) of the action column (h, P)."""
    n, top = t.nv, (1 << t.nv) - 1
    j, e = _entries(t.act_start, (y & ~top) | (x & top))
    r, q = t.act_mask[e], y[j] & top
    w = t.wedge[r, q]
    keep = np.flatnonzero(w)
    j, e = j[keep], e[keep]
    return j, t.mul[x[j] >> n, y[j] >> n] << n | r[keep] | q[keep], t.act_coef[e] * w[keep]


def _coproducts(t: ProductTables, b: np.ndarray):
    """The legs (j, first, second, D coef) of Delta(b_j), j ascending."""
    j, e = _entries(t.leg_start, b)
    return j, t.leg_first[e], t.leg_second[e], t.leg_coef[e]


def _antipodes(t: ProductTables, b: np.ndarray):
    """The terms (j, z, D coef) of S(b_j), j ascending."""
    j, e = _entries(t.anti_start, b)
    return j, t.anti_elem[e], t.anti_coef[e]


def _product_terms(t: ProductTables, k: np.ndarray, x: np.ndarray, y: np.ndarray, c: np.ndarray):
    """The terms (k, z, c D-coef) of the products c_i x_i y_i, each filed under k_i."""
    j, z, cz = products(t, x, y)
    return k[j], z, c[j] * cz


def _tensor_terms(t: ProductTables, k: np.ndarray, c: np.ndarray, x1, y1, x2, y2, dim: int):
    """The terms (k, z1 dim + z2, c D^2-coef) of c_i (x1_i y1_i) (x) (x2_i y2_i) in H (x) H."""
    j1, z1, c1 = products(t, x1, y1)
    j2, z2, c2 = products(t, x2, y2)
    g, i1, i2 = _matched(j1, j2, len(k))
    return k[g], z1[i1] * dim + z2[i2], c[g] * c1[i1] * c2[i2]


def _every(n: int, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, m'): every i < n with every entry of m."""
    return np.repeat(np.arange(n), len(m)), np.tile(m, n)


def _filed(k, z: np.ndarray, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms (k, z, c) with a scalar k or c spread over z (a c past int64 as a Python int)."""
    return np.broadcast_to(k, z.shape), z, c if isinstance(c, np.ndarray) else np.full(z.shape, c)


def _gap(width: int, lhs: list, rhs: list) -> int | None:
    """The least k at which the terms (k, z, c) of the lists lhs and rhs, z < width,
    add up to different values, or None."""
    k, z, c = (np.concatenate(p) for p in zip(*lhs, *((k, z, -c) for k, z, c in rhs)))
    k = _summed(k, z, c, width)[0]
    return int(k[0]) if k.size else None


def _generators(h: SupergroupAlgebra) -> np.ndarray:
    """g for g in G.gens, then v_0 .. v_{n-1}: the algebra generators of H."""
    return np.array([h.encode(int(g), 0) for g in h.group.gens] + [h.v_element(i) for i in range(h.nv)], np.int64)


_ONE_LAWS = ["coproduct not unital", *["counit law fails"] * 2, *["antipode axiom fails"] * 2, "coassociativity fails"]
_PAIR_LAWS = ["coproduct not multiplicative", "counit not multiplicative", "antipode not anti-multiplicative"]


def hopf_failure(h: SupergroupAlgebra) -> tuple[str, tuple[int, ...]] | None:
    """The first failure (detail, basis elements) of the laws of verify_hopf, or None.
    Each law of an element or pair is filed under its own k, in the order of the
    report, so the least k at which the two sides differ is the first failure.

    No sum has more than K^4 terms of at most M^4, K the most entries of one
    Delta, action column or S and M the largest table coefficient."""
    t = h.product_tables()
    t = t.exact(2 * t.max_entries**4 * t.max_coef**4)
    top, dim, d = (1 << t.nv) - 1, h.dim, t.denominator
    # law l of u[i], 1 and then the generators, under 6 i + l: Delta(1) = 1 (x) 1 (i = 0 only),
    # the two counit laws, the two antipode laws and coassociativity
    gens = _generators(h)
    u = np.concatenate([[h.unit], gens])
    k, b1, b2, c = _coproducts(t, u)
    e1, e2 = (b1 & top) == 0, (b2 & top) == 0  # eps(g v_P) = 1 if P is empty, else 0
    ke = 6 * np.flatnonzero((u & top) == 0)  # 6 i for the u[i] with eps(u[i]) = 1
    j1, x, c1 = _antipodes(t, b1)
    j2, y, c2 = _antipodes(t, b2)
    i1, x1, x2, cx = _coproducts(t, b1)
    i2, y1, y2, cy = _coproducts(t, b2)
    unit, ones = k == 0, np.full(len(ke), h.unit)
    bad = _gap(dim**3, [(k[unit], b1[unit] * dim + b2[unit], c[unit]), (6 * k[e1] + 1, b2[e1], c[e1]),
                        (6 * k[e2] + 2, b1[e2], c[e2]), _product_terms(t, 6 * k[j1] + 3, x, b2[j1], c[j1] * c1),
                        _product_terms(t, 6 * k[j2] + 4, b1[j2], y, c[j2] * c2),
                        (6 * k[i1] + 5, (x1 * dim + x2) * dim + b2[i1], c[i1] * cx)],
               [_filed(0, u[:1] * (dim + 1), d), _filed(6 * np.arange(len(u)) + 1, u, d),
                _filed(6 * np.arange(len(u)) + 2, u, d), _filed(ke + 3, ones, d**3), _filed(ke + 4, ones, d**3),
                (6 * k[i2] + 5, (b1[i2] * dim + y1) * dim + y2, c[i2] * cy)])
    if bad is not None:
        return _ONE_LAWS[bad % 6], (int(u[bad // 6]),)
    # Delta, eps and S on the products a s of every basis a with every generator s, law l of pair p under 3 p + l
    ns = len(gens)
    chunk = max(1, _CHUNK_TERMS * 64 // t.max_entries**2)  # pairs per pass; 16 x and 1/4 x ran slower on G(F4)
    for lo in range(0, dim * ns, chunk):
        p = np.arange(lo, min(lo + chunk, dim * ns))
        a, s = p // ns, gens[p % ns]
        j, z, cz = products(t, a, s)
        i, z1, z2, cl = _coproducts(t, z)
        q, la, ls = _pairs(t.leg_start[a], t.leg_start[a + 1], t.leg_start[s], t.leg_start[s + 1])
        unit, eps = np.flatnonzero((z & top) == 0), np.flatnonzero(((a | s) & top) == 0)
        i2, y, cs = _antipodes(t, z)
        js, xs, c1 = _antipodes(t, s)
        ja, ya, c2 = _antipodes(t, a)
        g, m1, m2 = _matched(js, ja, len(p))
        bad = _gap(dim * dim, [(3 * j[i], z1 * dim + z2, d * d * cz[i] * cl), (3 * j[unit] + 1, 0 * unit, cz[unit]),
                               (3 * j[i2] + 2, y, d * cz[i2] * cs)],
                   [_tensor_terms(t, 3 * q, t.leg_coef[la] * t.leg_coef[ls], t.leg_first[la], t.leg_first[ls],
                                  t.leg_second[la], t.leg_second[ls], dim),
                    _filed(3 * eps + 1, 0 * eps, d), _product_terms(t, 3 * g + 2, xs[m1], ya[m2], c1[m1] * c2[m2])])
        if bad is not None:
            return _PAIR_LAWS[bad % 3], (int(a[bad // 3]), int(s[bad // 3]))
    return None


def _r_terms(h: SupergroupAlgebra, r: Tensor):
    """(tables, x, y, c, D_R): the terms c x (x) y of D_R R, D_R the least common
    denominator of R (2 for R_A of an integral A, whose odd minors give halves),
    with the tables in Python ints when a sum of the R checks may reach 2^63.  No
    sum has more than |R| (|R| + K^2) K terms of at most R'^2 M^3, R' the larger
    of D_R and the largest |c|, K and M as in hopf_failure."""
    dr = math.lcm(*{v.denominator for v in r.values()})
    c = [int(dr * v) for v in r.values()]
    t = h.product_tables()
    t = t.exact(2 * len(c) * (len(c) + t.max_entries**2) * t.max_entries * max([dr, *map(abs, c)])**2 * t.max_coef**3)
    x, y = (np.array([key[i] for key in r], dtype=np.int64) for i in (0, 1))
    return t, x, y, np.array(c, dtype=t.leg_coef.dtype), dr


def quasitriangular_failure(h: SupergroupAlgebra, r: Tensor) -> tuple[str, tuple[int, ...]] | None:
    """The first failure (detail, basis elements) of the identities of verify_quasitriangular, or None."""
    t, x, y, c, dr = _r_terms(h, r)
    top, dim = (1 << t.nv) - 1, h.dim
    low = np.array([bin(mask).count("1") <= 1 for mask in range(top + 1)])
    # (Delta x id)R = R13 R23 = sum r(a,b) r(x,y) a (x) x (x) by where the middle leg has degree <= 1,
    # then (id x Delta)R = R13 R12 = sum r(x,y) r(a,b) xa (x) b (x) y where the last leg has: the same
    # with the legs of R, the factors of each product and the other two legs swapped; one value v of
    # that leg at a time
    for law, (p, q) in enumerate(((x, y), (y, x))):
        j, a1, a2, ca = _coproducts(t, p)
        both = np.concatenate([p, a2])
        for v in sorted(set(both[low[both & top]].tolist())):
            keep = np.flatnonzero(a2 == v)
            i, m = _every(len(c), np.flatnonzero(p == v))
            jz, z, cz = products(t, *((q[i], q[m]) if law == 0 else (q[m], q[i])))
            if _gap(dim * dim, [_filed(0, a1[keep] * dim + q[j[keep]], dr * c[j[keep]] * ca[keep])],
                    [_filed(0, p[i[jz]] * dim + z, c[i[jz]] * c[m[jz]] * cz)]) is not None:
                return ("(Delta x id)R != R13 R23", "(id x Delta)R != R13 R12")[law], ()
    one, ea, eb = np.array([h.unit]), (x & top) == 0, (y & top) == 0
    if _gap(dim, [_filed(0, y[ea], c[ea]), _filed(1, x[eb], c[eb])], [_filed(k, one, dr) for k in (0, 1)]) is not None:
        return "(eps x id)R != 1", ()
    # R Delta(s) = sum r(a,b) (a s1) (x) (b s2) and Delta^op(s) R = sum (s2 a) (x) (s1 b) r(a,b)
    gens = _generators(h)
    k, s1, s2, cl = _coproducts(t, gens)
    f, i = _every(len(k), np.arange(len(c)))
    bad = _gap(dim * dim, [_tensor_terms(t, k[f], cl[f] * c[i], x[i], s1[f], y[i], s2[f], dim)],
               [_tensor_terms(t, k[f], cl[f] * c[i], s2[f], x[i], s1[f], y[i], dim)])
    return None if bad is None else ("R Delta != Delta^op R", (int(gens[bad]),))


def r21_failure(h: SupergroupAlgebra, r: Tensor) -> tuple[str, tuple[int, ...]] | None:
    """The failure of R21 = (S x id)R, the last identity of verify_triangular, or None."""
    t, x, y, c, _ = _r_terms(h, r)
    j, z, cs = _antipodes(t, x)
    if _gap(h.dim**2, [_filed(0, y * h.dim + x, t.denominator * c)], [_filed(0, z * h.dim + y[j], c[j] * cs)]) is None:
        return None
    return "R21 * R != 1 x 1", ()


def kernel_rows(sigma: HCochain2, t: ProductTables) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of D' sigma as one array, and the row id of each basis element.

    No sum the checks form exceeds 2 max_terms smax^2 max_coef^3, smax the
    largest |D' sigma|: a product has at most max_terms terms of at most
    smax max_coef^3 (two legs and an action entry), and the cocycle sides pair
    them with one more value of D' sigma.  Below 2^63 the array is int64, else
    it holds Python ints (dtype=object) and the same code runs on them."""
    smax = max(int(sigma.rows.max()), -int(sigma.rows.min()))  # >= D' sigma(1, 1) = D' >= 1
    exact64 = 2 * t.max_terms * smax * smax * t.max_coef**3 < 2**63
    return sigma.rows.astype(np.int64 if exact64 else object, copy=False), sigma.rid


def twisted_terms(t: ProductTables, rows: np.ndarray, rid: np.ndarray, a: np.ndarray, b: np.ndarray,
                  op: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero terms (k, z, c) of D^3 m(a_k, b_k), m(a,b) = sum sigma(a1,b1) a2 b2,
    or with op of D^3 m^op(a_k, b_k), m^op(a,b) = sum sigma(a2,b2) a1 b1, for the
    cochain with rows rows[rid[x]] and D the denominator of the tables.  k is
    ascending; a z may repeat within one k (_summed adds them up).

    One pass expands the pairs of legs (Delta a leg, Delta b leg), keeps those
    with sigma(a1, b1) != 0, and multiplies out each kept pair a2 b2 (products)."""
    first, second = (t.leg_second, t.leg_first) if op else (t.leg_first, t.leg_second)
    k, la, lb = _pairs(t.leg_start[a], t.leg_start[a + 1], t.leg_start[b], t.leg_start[b + 1])
    s = rows[rid[first[la]], first[lb]]
    keep = np.flatnonzero(s)
    k, la, lb = k[keep], la[keep], lb[keep]
    return _product_terms(t, k, second[la], second[lb], s[keep] * (t.leg_coef[la] * t.leg_coef[lb]))


def _summed(k: np.ndarray, z: np.ndarray, c: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms (k, z, c), z < dim, with the coefficients of each (k, z) added up
    and zero sums dropped, sorted by (k, z); keys past int64 are Python ints."""
    if not len(c):
        return k, z, c
    key = (k if (int(k.max()) + 1) * dim < 2**63 else k.astype(object)) * dim + z
    order = np.argsort(key, kind="stable")  # pages in less numpy code than introsort: 0.25 MB of peak RSS
    key, c = key[order], c[order]
    heads = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    sums = np.add.reduceat(c, heads)
    nz = np.flatnonzero(sums)
    key = key[heads[nz]]
    return key // dim, key % dim, sums[nz]


def _draws(seed: int, dim: int, count: int) -> np.ndarray:
    """The first count values of random.Random(seed).randrange(dim), as int64.
    randrange(dim) reads getrandbits(k), k = dim.bit_length(), until a value is
    below dim, and for k <= 32 that value is the top k bits of the next 32-bit
    word of the generator.  One getrandbits(32 m) returns the next m words, the
    first in its lowest bits, so the words are drawn in bulk and read
    little-endian.  A dim of 2^32 or more, whose draw spans two words, is
    refused; the product tables, built before any draw, have a row per basis
    element, so no check reaches that dim."""
    k = dim.bit_length()
    if k > 32:
        raise CapExceeded(f"dim {dim} is 2^32 or more; a sampled check draws one 32-bit word per index")
    rng, kept = random.Random(seed), []
    while count:
        m = count * 2**k // dim + 16  # a word is kept with probability dim / 2^k > 1/2
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4") >> (32 - k)
        kept.append(words[words < dim][:count])
        count -= len(kept[-1])
    return np.concatenate(kept).astype(np.int64)


def _sample(h: SupergroupAlgebra, arity: int, budget: int, seed: int) -> np.ndarray | None:
    """None while dim <= budget, when a check visits every arity-tuple of basis
    elements; else SAMPLED_TRIPLES tuples drawn from random.Random(seed), one
    randrange(dim) per index, as an arity x N int64 array."""
    if h.dim <= budget:
        return None
    return _draws(seed, h.dim, arity * SAMPLED_TRIPLES).reshape(SAMPLED_TRIPLES, arity).T


def _tuple_blocks(sample: np.ndarray | None, dim: int, arity: int, size: int):
    """The tuples a check visits as blocks of at most size tuples with one
    int64 array per position: the columns of sample, or every arity-tuple in
    lexicographic order, computed from its running index."""
    if sample is not None:
        for lo in range(0, sample.shape[1], size):
            yield tuple(sample[:, lo:lo + size])
        return
    total = dim**arity
    for lo in range(0, total, size):
        idx = np.arange(lo, min(lo + size, total), dtype=np.int64)
        yield tuple(idx // dim ** (arity - 1 - p) % dim for p in range(arity))


def cocycle_failure(sigma: HCochain2, op: bool, budget: int, seed: int) -> tuple[tuple | None, bool]:
    """((detail, the first triple (a, b, c) of _tuple_blocks where sigma(m(a,b), c)
    != sigma(a, m(b,c))) or None, sampled), m the (op-)twisted product.  Both
    sides have degree 2 in sigma and degree 3 in the structure constants, so the
    identity is checked on the int rows of D' sigma and the int tables.  m is
    computed once for every pair (a, b) and (b, c) of the triples, all dim^2
    pairs when the check is exhaustive; then each block of triples sums the
    terms of its two products against sigma."""
    h, dim = sigma.algebra, sigma.algebra.dim
    t = h.product_tables()
    rows, rid = kernel_rows(sigma, t)
    sample = _sample(h, 3, budget, seed)
    if sample is None:
        keys = np.arange(dim * dim, dtype=np.int64)
    else:
        a, b, c = sample
        keys = np.sort(np.concatenate([a * dim + b, b * dim + c]), kind="stable")
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]  # np.unique would import numpy.ma
    parts = []
    for lo in range(0, len(keys), t.pair_chunk):
        pairs = keys[lo:lo + t.pair_chunk]
        k, z, v = _summed(*twisted_terms(t, rows, rid, pairs // dim, pairs % dim, op), dim)
        parts.append((k + lo, z, v))
    mk, mz, mv = (np.concatenate(p) for p in zip(*parts))
    start = np.searchsorted(mk, np.arange(len(keys) + 1))

    def terms(pairs: np.ndarray):
        tt, e = _entries(start, np.searchsorted(keys, pairs))
        return tt, mz[e], mv[e]

    per_block = max(1, int(_CHUNK_TERMS / (1 + 2 * len(mv) / len(keys))))
    for a, b, c in _tuple_blocks(sample, dim, 3, per_block):
        tt, z, v = terms(a * dim + b)
        t2, w, v2 = terms(b * dim + c)
        bad = _gap(1, [(tt, 0 * tt, v * rows[rid[z], c[tt]])], [(t2, 0 * t2, v2 * rows[rid[a[t2]], w])])
        if bad is not None:
            detail = "right cocycle equation fails" if op else "cocycle equation fails"
            return (detail, (int(a[bad]), int(b[bad]), int(c[bad]))), sample is not None
    return None, sample is not None


def lazy_failure(sigma: HCochain2, budget: int, seed: int) -> tuple[tuple | None, bool]:
    """((detail, the first pair (a, b) of _tuple_blocks where m(a,b) != m^op(a,b))
    or None, sampled).  Both sides have degree 1 in sigma and degree 3 in the structure
    constants, so they are compared on the int rows of D' sigma and the int
    tables, one block of pairs at a time."""
    h = sigma.algebra
    t = h.product_tables()
    rows, rid = kernel_rows(sigma, t)
    sample = _sample(h, 2, budget, seed)
    for a, b in _tuple_blocks(sample, h.dim, 2, t.pair_chunk):
        bad = _gap(h.dim, [twisted_terms(t, rows, rid, a, b)], [twisted_terms(t, rows, rid, a, b, op=True)])
        if bad is not None:
            return ("lazy condition fails", (int(a[bad]), int(b[bad]))), sample is not None
    return None, sample is not None
