"""The sigma-twisted product m(a,b) = sum sigma(a1,b1) a2 b2 and its mirror
m^op(a,b) = sum sigma(a2,b2) a1 b1 of a 2-cochain on k[G] (x) Lambda(V), as
one batched numpy kernel, and the first failures of the cocycle and lazy
checks built on it.

The kernel reads the structure constants from integer CSR tables, built once
per algebra (SupergroupAlgebra.product_tables), and the cochain from its
distinct cleared rows (HCochain2.cleared).  supergroup imports this module
when a cochain check first runs, so jobs that check no cochain do not load it.
"""

from __future__ import annotations

import random

import numpy as np

from .supergroup import SAMPLED_TRIPLES, HCochain2, SupergroupAlgebra, _denominator_lcm, wedge_sign

_CHUNK_TERMS = 1 << 12  # about this many leg pairs or triple terms per numpy pass


class ProductTables:
    """The structure constants of H as integer CSR tables.

    Delta(b) is sum sign (x) first (x) second over the legs leg_start[b] ..
    leg_start[b+1] - 1.  The nonzero entries (R, coef) of column P of
    D Lambda rho(h^{-1}), D the least common denominator of the action, are
    act_mask, act_coef over act_start[c] .. act_start[c+1] - 1, c = h 2^n + P.
    wedge[R, Q] is wedge_sign(R, Q), so g v_P . h v_Q = sum coef wedge[R, Q]
    (gh) v_{R+Q} / D."""

    def __init__(self, nv: int, mul: np.ndarray, leg_start: np.ndarray, leg_first: np.ndarray,
                 leg_second: np.ndarray, leg_sign: np.ndarray, act_start: np.ndarray, act_mask: np.ndarray,
                 act_coef: np.ndarray, wedge: np.ndarray, denominator: int, max_terms: int, max_coef: int,
                 pair_chunk: int) -> None:
        self.nv = nv
        self.mul = mul
        self.leg_start = leg_start
        self.leg_first = leg_first
        self.leg_second = leg_second
        self.leg_sign = leg_sign
        self.act_start = act_start
        self.act_mask = act_mask
        self.act_coef = act_coef
        self.wedge = wedge
        self.denominator = denominator  # D
        self.max_terms = max_terms  # terms of one product: (legs of a) (legs of b) (entries of a column)
        self.max_coef = max_coef  # the largest |act_coef|, at least 1
        self.pair_chunk = pair_chunk  # pairs per kernel pass


def product_tables(h: SupergroupAlgebra) -> ProductTables:
    n, top, order = h.nv, (1 << h.nv) - 1, h.group.order
    mul = np.asarray(h.group.mul, dtype=np.int64)
    # the legs of Delta(g v_P) in the order of coproduct_basis: B over the subsets of P,
    # A = P minus B, g u^|B| v_A (x) g v_B with sign wedge_sign(B, A); one row per g
    subs = [(mask ^ sub, sub) for mask in range(top + 1) for sub in range(mask + 1) if sub & mask == sub]
    rest, sub = (np.array(col, dtype=np.int64) for col in zip(*subs))
    odd = np.array([bin(b).count("1") % 2 for _, b in subs], dtype=bool)
    g = np.arange(order, dtype=np.int64)[:, None]
    leg_first = (np.where(odd, mul[:, h.inv.u][:, None], g) << n | rest).ravel()
    leg_second = (g << n | sub).ravel()
    leg_sign = np.tile([wedge_sign(b, a) for a, b in subs], order)
    legs = [1 << bin(mask).count("1") for mask in range(top + 1)] * order
    cols = [h.inverse_action(hh, mask) for hh in range(order) for mask in range(top + 1)]
    d = _denominator_lcm(c for col in cols for c in col.values())
    coefs = [int(d * c) for col in cols for c in col.values()]
    max_coef = max(map(abs, coefs))  # >= D, from the column {0: 1} of the empty mask
    return ProductTables(
        nv=n,
        mul=mul,
        leg_start=np.cumsum([0, *legs]),
        leg_first=leg_first,
        leg_second=leg_second,
        leg_sign=leg_sign,
        act_start=np.cumsum([0, *map(len, cols)]),
        act_mask=np.array([r for col in cols for r in col], dtype=np.int64),
        act_coef=np.array(coefs, dtype=np.int64 if max_coef < 2**63 else object),
        wedge=np.array([[wedge_sign(r, q) for q in range(top + 1)] for r in range(top + 1)], dtype=np.int64),
        denominator=d,
        max_terms=4**n * max(map(len, cols)),
        max_coef=max_coef,
        pair_chunk=max(1, int(_CHUNK_TERMS * h.dim**2 / len(leg_first) ** 2)),
    )


def kernel_rows(sigma: HCochain2, t: ProductTables) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of D sigma as one array, and the row id of each basis element.

    No sum the checks form exceeds 2 max_terms smax^2 max_coef in absolute
    value, smax the largest |D sigma|: a product has at most max_terms terms,
    each of size at most smax max_coef, and the cocycle sides pair them with one
    more value of D sigma.  Below 2^63 the array is int64, else it holds Python
    ints (dtype=object) and the same code runs on them."""
    rows, rid, _ = sigma.cleared
    smax = max(abs(x) for row in rows for x in row)  # >= D sigma(1, 1) = D >= 1
    exact64 = 2 * t.max_terms * smax * smax * t.max_coef < 2**63
    return np.array(rows, dtype=np.int64 if exact64 else object), np.array(rid, dtype=np.int64)


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, offset) of every slot when row r has counts[r] slots, in row order."""
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]


def twisted_terms(t: ProductTables, rows: np.ndarray, rid: np.ndarray, a: np.ndarray, b: np.ndarray,
                  op: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero terms (k, z, c) of D m(a_k, b_k), m(a,b) = sum sigma(a1,b1) a2 b2,
    or with op of D m^op(a_k, b_k), m^op(a,b) = sum sigma(a2,b2) a1 b1, for the
    cochain with rows rows[rid[x]] and D the denominator of the action.  k is
    ascending; a z may repeat within one k (_summed adds them up).

    One pass expands the pairs of legs (Delta a leg, Delta b leg), keeps those
    with sigma(a1, b1) != 0, and expands each kept pair a2 b2 by the column of
    the action it reads, keeping the disjoint wedges."""
    n, top = t.nv, (1 << t.nv) - 1
    first, second = (t.leg_second, t.leg_first) if op else (t.leg_first, t.leg_second)
    start_a, start_b = t.leg_start[a], t.leg_start[b]
    nb = t.leg_start[b + 1] - start_b
    k, i = _expand((t.leg_start[a + 1] - start_a) * nb)
    la = start_a[k] + i // nb[k]
    lb = start_b[k] + i % nb[k]
    s = rows[rid[first[la]], first[lb]]
    keep = np.flatnonzero(s)
    k, la, lb = k[keep], la[keep], lb[keep]
    c = s[keep] * (t.leg_sign[la] * t.leg_sign[lb])
    x, y = second[la], second[lb]
    col = (y & ~top) | (x & top)  # h 2^n + P for x = g v_P, y = h v_Q
    j, e = _expand(t.act_start[col + 1] - t.act_start[col])
    e += t.act_start[col[j]]
    r, q = t.act_mask[e], y[j] & top
    w = t.wedge[r, q]
    keep = np.flatnonzero(w)
    j, e = j[keep], e[keep]
    z = t.mul[x[j] >> n, y[j] >> n] << n | r[keep] | q[keep]
    return k[j], z, c[j] * t.act_coef[e] * w[keep]


def _summed(k: np.ndarray, z: np.ndarray, c: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms (k, z, c) with the coefficients of each (k, z) added up and zero
    sums dropped, sorted by (k, z)."""
    if not len(c):
        return k, z, c
    key = k * dim + z
    order = np.argsort(key, kind="stable")  # pages in less numpy code than introsort: 0.25 MB of peak RSS
    key, c = key[order], c[order]
    heads = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    sums = np.add.reduceat(c, heads)
    nz = np.flatnonzero(sums)
    key = key[heads[nz]]
    return key // dim, key % dim, sums[nz]


def _segment_sums(vals: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sums of consecutive runs of vals of the given lengths; 0 for an empty run."""
    out = np.zeros(len(counts), dtype=vals.dtype)
    filled = np.flatnonzero(counts)
    if filled.size:
        out[filled] = np.add.reduceat(vals, (np.cumsum(counts) - counts)[filled])
    return out


def _sample(h: SupergroupAlgebra, arity: int, budget: int, seed: int) -> np.ndarray | None:
    """None while dim <= budget, when a check visits every arity-tuple of basis
    elements; else SAMPLED_TRIPLES tuples drawn from random.Random(seed), as an
    arity x N int64 array."""
    if h.dim <= budget:
        return None
    rng = random.Random(seed)
    return np.array([[rng.randrange(h.dim) for _ in range(arity)] for _ in range(SAMPLED_TRIPLES)], dtype=np.int64).T


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


def cocycle_failure(sigma: HCochain2, op: bool, budget: int, seed: int) -> tuple[tuple[int, ...] | None, bool]:
    """(the first triple (a, b, c) of _tuple_blocks where sigma(m(a,b), c) !=
    sigma(a, m(b,c)), or None; sampled), m the (op-)twisted product.  Both
    sides have degree 2 in sigma and degree 1 in the structure constants, so the
    identity is checked on the int rows of D sigma and the int action.  m is
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
        pos = np.searchsorted(keys, pairs)
        counts = start[pos + 1] - start[pos]
        tt, i = _expand(counts)
        e = start[pos][tt] + i
        return tt, mz[e], mv[e], counts

    per_block = max(1, int(_CHUNK_TERMS / (1 + 2 * len(mv) / len(keys))))
    for a, b, c in _tuple_blocks(sample, dim, 3, per_block):
        tt, z, v, counts = terms(a * dim + b)
        lhs = _segment_sums(v * rows[rid[z], c[tt]], counts)
        tt, w, v, counts = terms(b * dim + c)
        rhs = _segment_sums(v * rows[rid[a[tt]], w], counts)
        bad = np.flatnonzero(lhs != rhs)
        if bad.size:
            x = bad[0]
            return (int(a[x]), int(b[x]), int(c[x])), sample is not None
    return None, sample is not None


def lazy_failure(sigma: HCochain2, budget: int, seed: int) -> tuple[tuple[int, ...] | None, bool]:
    """(the first pair (a, b) of _tuple_blocks where m(a,b) != m^op(a,b), or None;
    sampled).  Both sides have degree 1 in sigma and in the structure
    constants, so they are compared on the int rows of D sigma and the int
    action, one block of pairs at a time."""
    h = sigma.algebra
    t = h.product_tables()
    rows, rid = kernel_rows(sigma, t)
    sample = _sample(h, 2, budget, seed)
    for a, b in _tuple_blocks(sample, h.dim, 2, t.pair_chunk):
        k1, z1, c1 = twisted_terms(t, rows, rid, a, b)
        k2, z2, c2 = twisted_terms(t, rows, rid, a, b, op=True)
        k, _, _ = _summed(np.concatenate([k1, k2]), np.concatenate([z1, z2]), np.concatenate([c1, -c2]), h.dim)
        if k.size:
            return (int(a[k[0]]), int(b[k[0]])), sample is not None
    return None, sample is not None


