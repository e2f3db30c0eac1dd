"""Independent brute-force oracles for the tests.

The cohomology oracles work on the full dense normalized bar system with
plain Gaussian elimination or integer Smith normal form; the cocycle test
runs over all triples; the invariant factors of an abelian Cayley table come
from order statistics, and those of G^ab from the coset table of the
commutator subgroup and a greedy basis; the determinant is the Leibniz
expansion; the lazy cocycle lambda is filled entry by entry.  None of it shares code with the
production pipeline, except the sharp-table enumeration, which multiplies
every pair of class representatives with the dense sharp product (degrees
from `dense_theta`, the u-column and u-row of each cochain, where the
production reads them off edge-label walks) and the production `class_of`
instead of deriving the table from the twist classes, and the BM
and Q(k, G) enumerations, which multiply element tuples one cell at a time
on top of it (markers `restriction_square_class` of each class
representative, one pairing `class_of` per cell) instead of deriving the tables from generating data.  The Hopf-side
oracles use only the algebra's structure constants and its `H (x) H`
product: the cocycle and lazy checks expand both coproducts and the product
for every basis tuple, `twisted_product` expands one twisted product per
pair in dicts where the production expands batches of pairs with numpy
index arithmetic, the R-matrix legs are multiplied in H (x) H (x) H, and
the Hopf axioms and `R Delta = Delta^op R` are checked on every basis pair or
element (on the production's seeded sample above the dim budget) instead of
on the algebra generators; `randrange_sample` draws that sample one
`randrange` call per index, where the production reads 32-bit words of one
bulk `getrandbits`.  `factor_coproduct` and `product_antipode` multiply
Delta and S out from their values on the generators, `looped_coproduct_legs`
finds the legs of Delta by a Python loop over every pair of masks, and `det_signed_minors`
takes one Gauss-Jordan determinant per minor, where the production writes
Delta and S in closed form and reads every minor off one exterior power.
`fraction_row_reduce` is Gauss-Jordan elimination on Fractions, where the
production eliminates fraction-free on integer rows.  `dict_compound` is the exterior power as a dict recursion, one matrix and one
column at a time, where the production runs the same recursion on integer
numerator arrays for a whole stack of matrices at once.  `uncleared_r_checks` checks the R-matrix
identities on `R` itself, with the legs from `triple_tensor_legs`, where the
production clears the common denominator of `R` first.  The invariant-form
oracle checks a form against the matrix of every element.
The elimination oracle `dense_snf_mod` is the dense `snf_mod`: the same
pivots, but every pivot rewrites the whole trailing block and transforms.
The H^2 frontier oracles `coo_frontier_system` and `coo_cocycle_kernel` are
the stored-equation pipeline: every cocycle equation built once into sorted
COO arrays, and a verification pass with a float64 and an int64 product path.
`enumerated_table` looks up the product of every pair of group elements
instead of deriving the table from the generator columns,
`walked_representation` multiplies Fraction matrices along every (x, s)
instead of closing the generator matrices, and `coboundary_rows` and
`delta_rows` build the frontier H^2 relation rows term by term.  The
production H^2 solves for the central values of the relators in the gauge
that vanishes on the BFS tree; `gauge_fixed` moves frontier
cochains into that gauge one element at a time, so the two systems are
compared by the label modules they span.  `relator_rows`, `gauge_fix` and
`f_column_kernel` are the production's earlier solve over the edge labels
(it shares `cycle_edges` with the production); `presentation_unknowns`
selects those labels.  `coordinate_reflection_matrices` derives the simple
reflections from Bourbaki's Euclidean coordinates of the simple roots, where
the production reads them off the Cartan matrix of the Dynkin diagram, and
`scanned_w0` finds w0 by testing every element of the closed group, where the
production reaches it from 1 by descents.

Some references have no production twin, because no job computes what they
compute; the tests hold production data against them.  `convolve` is the
convolution product of 2-cochains on H, `eps_tensor_eps` its unit, and
`is_convolution_invertible` solves for an inverse degree by degree along the
Lambda V filtration: they check `omega_Sigma = r_0 * r_{-Sigma}` and that
`omega_Sigma` and `lambda` are invertible.  `leading_principal_minors_positive`
is Sylvester's test, applied to the invariant form of a Weyl datum, and
`literature_schur_multiplier` is the printed Schur multiplier of each Weyl
group, which its computed closed-field H^2 must equal.  `inflation`,
`restriction` and `transgression` (with `u_subgroup`) are the maps of the
Hochschild-Serre sequence, whose exactness the tests check on the computed
H^2; `serialize_group`, `cochain_from_sparse` and `cochain_equals` round-trip
a group table and a sparse representative.  `reconstruct` rebuilds the dense
n x n cocycle that vanishes on the BFS tree from its n |S| edge labels, one
BFS level at a time; `rep_of_coords`, `representative` and `reps` give the
dense representative of a class and `to_sparse` its [i, j, value] rows, where
the production and its reports keep only the labels; `cochain_from_labels`
reads a report's `labels` back into a cochain.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from superbrauer import (
    CentralInvolution,
    CoefficientModule,
    CohomologyClass,
    CohomologyGroup,
    Cochain2,
    FiniteGroup,
    GroupCharacter,
    QuotientData,
    RootSystemType,
    all_characters,
    cyclic_group,
    h2,
    h2_closed_field,
    quaternion_symbol,
    quotient_by_central_involution,
    splitting_character,
)
from superbrauer.cohomology import _presentation, cycle_edges
from superbrauer.errors import BudgetExceeded, ParseError
from superbrauer.forms import Matrix, mat_neg
from superbrauer.modlinalg import SnfMod, inverse_mod, kernel_mod
from superbrauer.supergroup import (
    DEFAULT_DIM_BUDGET,
    SAMPLED_TRIPLES,
    Element,
    HCochain2,
    SupergroupAlgebra,
    Tensor,
    VerifyReport,
    _exact,
)

Tensor3 = dict[tuple[int, int, int], int | Fraction]


def _tns_add(t: dict, key, val: int | Fraction) -> None:
    cur = t.get(key, 0) + val
    if cur:
        t[key] = cur
    elif key in t:
        del t[key]


def dense_bar_matrices(g):
    """All-triples cocycle matrix D and coboundary generator matrix E over Z."""
    n = g.order
    nonid = [x for x in range(n) if x != g.identity]
    pos = {x: i for i, x in enumerate(nonid)}
    m = len(nonid)
    mul = g.mul

    def col(a, b):
        return pos[a] * m + pos[b]

    rows = []
    for a in nonid:
        for b in nonid:
            for c in nonid:
                r = np.zeros(m * m, dtype=np.int64)
                r[col(a, b)] += 1
                ab = int(mul[a, b])
                if ab != g.identity:
                    r[col(ab, c)] += 1
                r[col(b, c)] -= 1
                bc = int(mul[b, c])
                if bc != g.identity:
                    r[col(a, bc)] -= 1
                rows.append(r)
    D = np.array(rows) if rows else np.zeros((0, m * m), dtype=np.int64)
    erows = []
    for y in nonid:
        r = np.zeros(m * m, dtype=np.int64)
        for a in nonid:
            for b in nonid:
                v = (a == y) + (b == y) - (int(mul[a, b]) == y)
                r[col(a, b)] += v
        erows.append(r)
    E = np.array(erows) if erows else np.zeros((0, m * m), dtype=np.int64)
    return D, E


def gf_rank(M, p):
    """Rank of M over GF(p) by row echelon elimination.  Each step touches
    only the rows with a nonzero in the pivot column and the pivot row's
    nonzero columns, so a sparse M (the L of a tall snf_mod) stays cheap."""
    A = np.array(M, dtype=np.int64) % p
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(A[r:, c])
        if not len(nz):
            continue
        A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        below = r + 1 + np.flatnonzero(A[r + 1:, c])
        cj = np.flatnonzero(A[r])
        A[np.ix_(below, cj)] = (A[np.ix_(below, cj)] - np.outer(A[below, c], A[r, cj])) % p
        r += 1
    return r


def integer_snf_diagonal(M):
    """Diagonal of the Smith normal form of an integer matrix (naive, exact)."""
    A = [list(map(int, row)) for row in np.array(M, dtype=object)]
    if not A or not A[0]:
        return []
    rows, cols = len(A), len(A[0])
    diag = []
    s = 0
    while s < min(rows, cols):
        piv = None
        best = None
        for i in range(s, rows):
            for j in range(s, cols):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best, piv = v, (i, j)
        if piv is None:
            break
        i, j = piv
        A[s], A[i] = A[i], A[s]
        for row in A:
            row[s], row[j] = row[j], row[s]
        progress = True
        while progress:
            progress = False
            for i in range(s + 1, rows):
                if A[i][s]:
                    qv = A[i][s] // A[s][s]
                    A[i] = [x - qv * y for x, y in zip(A[i], A[s])]
                    if A[i][s]:
                        A[s], A[i] = A[i], A[s]
                        progress = True
            for j in range(s + 1, cols):
                if A[s][j]:
                    qv = A[s][j] // A[s][s]
                    for row in A:
                        row[j] -= qv * row[s]
                    if A[s][j]:
                        for row in A:
                            row[s], row[j] = row[j], row[s]
                        progress = True
        diag.append(abs(A[s][s]))
        s += 1
    return diag


def count_kernel_mod(M, q):
    """|{x in (Z_q)^cols : M x = 0 mod q}| via the integer SNF of M."""
    M = np.array(M, dtype=np.int64)
    cols = M.shape[1] if M.ndim == 2 else 0
    diag = integer_snf_diagonal(M)
    out = q ** (cols - len(diag))
    for d in diag:
        out *= int(np.gcd(d, q))
    return out


def count_image_mod(M, q):
    """|image of (Z_q)^rows -> (Z_q)^cols under x -> x M| via integer SNF."""
    M = np.array(M, dtype=np.int64)
    rows = M.shape[0]
    diag = integer_snf_diagonal(M)
    out = 1
    for d in diag:
        out *= q // int(np.gcd(d, q))
    return out


def brute_h2_order(g, q):
    """|H^2(G, Z_q)| = |Z^2| / |B^2| from the dense bar system."""
    D, E = dense_bar_matrices(g)
    return count_kernel_mod(D, q) // count_image_mod(E, q)


def fraction_row_reduce(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Exact Gauss-Jordan elimination of a matrix of Fractions: the nonzero
    rows of the reduced row echelon form and their pivot columns."""
    out = [list(r) for r in rows]
    ncols = len(out[0]) if out else 0
    pivots: list[int] = []
    for c in range(ncols):
        lead = len(pivots)
        if lead == len(out):
            break
        piv = next((r for r in range(lead, len(out)) if out[r][c] != 0), None)
        if piv is None:
            continue
        if piv != lead:
            out[lead], out[piv] = out[piv], out[lead]
        pv = out[lead][c]
        out[lead] = [x / pv for x in out[lead]]
        for r in range(len(out)):
            if r != lead and out[r][c] != 0:
                f = out[r][c]
                out[r] = [x - f * y for x, y in zip(out[r], out[lead])]
        pivots.append(c)
    return out[:len(pivots)], pivots


def leibniz_det(m):
    """det m as the signed sum over all permutations."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def det_by_elimination(rows) -> Fraction:
    """det of a square matrix by Gaussian elimination: the signed product of
    the pivots, 0 once a column has none."""
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def all_triples_is_cocycle(sigma):
    """sigma(g,h) + sigma(gh,l) = sigma(h,l) + sigma(g,hl) for all triples."""
    v = sigma.values
    n = sigma.group.order
    mod = sigma.modulus
    mul = np.asarray(sigma.group.mul)
    for g in range(n):
        lhs = v[g, :][:, None] + v[mul[g, :], :]
        rhs = v + v[g, :][mul]
        if ((lhs - rhs) % mod).any():
            return False
    return True


def all_pairs_degrees_are_characters(sigma):
    """Every column chi_h(g) = sigma(g,h) - sigma(h,g) is additive on all pairs."""
    v = sigma.values
    n = sigma.modulus
    mul = np.asarray(sigma.group.mul)
    deg = (v - v.T) % n
    for h in range(sigma.group.order):
        col = deg[:, h]
        if ((col[:, None] + col[None, :]) % n != col[mul]).any():
            return False
    return True


def all_pairs_is_character(g, v, n):
    """v(xy) = v(x) + v(y) mod n on all pairs of elements."""
    v = np.asarray(v, dtype=np.int64)
    return bool(not ((v[:, None] + v[None, :] - v[np.asarray(g.mul)]) % n).any())


def table_power(table, x, k, ident):
    """x^k in a Cayley table, by k - 1 row lookups."""
    y = ident
    for _ in range(k):
        y = int(table[y, x])
    return y


def table_order(table, x, ident):
    """The order of x in a Cayley table."""
    k, y = 1, x
    while y != ident:
        y = int(table[y, x])
        k += 1
    return k


def _prime_powers(n):
    out, p = [], 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out


def abelian_invariants_from_table(table, ident):
    """Invariant factors, largest first, of a finite abelian Cayley table.

    Uses order statistics: c_j = #{x : x^(p^j) = e} satisfies
    c_j / c_{j-1} = p^(number of invariants with exponent >= j).
    """
    orders = [table_order(table, x, ident) for x in range(table.shape[0])]
    exponent = 1
    for o in orders:
        exponent = int(np.lcm(exponent, o))
    primary = {}
    for p, emax in _prime_powers(exponent):
        cs = [sum(1 for o in orders if p**j % o == 0) for j in range(emax + 1)]
        ms = []
        for j in range(1, emax + 1):
            ratio, mj = cs[j] // cs[j - 1], 0
            while ratio > 1:
                ratio //= p
                mj += 1
            ms.append(mj)
        factors = []
        for j in range(1, emax + 1):
            cnt = ms[j - 1] - (ms[j] if j < emax else 0)
            factors.extend([p**j] * cnt)
        primary[p] = sorted(factors, reverse=True)
    depth = max((len(v) for v in primary.values()), default=0)
    out = []
    for i in range(depth):
        d = 1
        for lst in primary.values():
            if i < len(lst):
                d *= lst[i]
        out.append(d)
    return tuple(out)


def _abelian_basis_from_table(mul: np.ndarray, identity: int) -> tuple[list[int], list[int], dict]:
    """Basis realizing the invariant factors (largest first) of an abelian
    table group, and the span {element: its coordinates in that basis}.

    Greedy maximal-quotient-order extraction; successive orders are exactly
    the invariant factors since the adjusted generator spans a direct summand.
    """
    n = mul.shape[0]

    def power(x: int, k: int) -> int:
        y = identity
        for _ in range(k):
            y = int(mul[y, x])
        return y

    basis: list[int] = []
    orders: list[int] = []
    span = {identity: ()}
    while len(span) < n:
        best, best_ord = None, 0
        for x in range(n):
            if x in span:
                continue
            k = 1
            y = x
            while y not in span:
                y = int(mul[y, x])
                k += 1
            if k > best_ord:
                best, best_ord = x, k
        x = best
        j = best_ord
        tail = power(x, j)  # lies in span; fix x so that x**j = 1
        if tail != identity:
            fixed = next((y for y in span if power(y, j) == tail), None)
            if fixed is None:
                raise ParseError("abelian basis extraction failed")
            fixed_inv = int(np.nonzero(mul[fixed, :] == identity)[0][0])
            x = int(mul[x, fixed_inv])
        basis.append(x)
        orders.append(j)
        new_span = {}
        for s, coords in span.items():
            y = s
            for c in range(j):
                new_span[y] = coords + (c,)
                y = int(mul[y, x])
        if len(new_span) != len(span) * j:
            raise ParseError("abelian basis extraction failed (span collision)")
        span = new_span
    return basis, orders, span


def quotient_table_abelianization(g):
    """(invariant factors, commutator subgroup) of G^ab from the table: the
    commutators a^-1 b^-1 a b of every pair, the subgroup they generate by
    right multiplication, the coset table of the quotient and its greedy
    basis."""
    e = g.identity
    mul, inv = np.asarray(g.mul), np.asarray(g.inv)
    comm = np.unique(mul[mul[np.ix_(inv, inv)], mul]).tolist()
    ksub, queue = {e}, [e]
    for x in queue:  # the queue grows while it is read
        for y in mul[x, comm].tolist():
            if y not in ksub:
                ksub.add(y)
                queue.append(y)
    ksub = sorted(ksub)
    rep = mul[:, ksub].min(axis=1)
    reps = sorted(set(rep.tolist()))
    pos = {r: i for i, r in enumerate(reps)}
    qmul = np.array([[pos[int(rep[mul[a, b]])] for b in reps] for a in reps])
    _, orders, _ = _abelian_basis_from_table(qmul, pos[int(rep[e])])
    return tuple(orders), tuple(ksub)


def _wedge_image(mat, mask, n):
    """mat applied to v_P, wedged out factor by factor in increasing order."""
    cur = {0: Fraction(1)}
    for i in range(n):
        if not (mask >> i) & 1:
            continue
        nxt = {}
        for em, c in cur.items():
            for j in range(n):
                if mat[j][i] == 0 or (em >> j) & 1:
                    continue
                sign = -1 if bin(em >> (j + 1)).count("1") % 2 else 1
                nxt[em | (1 << j)] = nxt.get(em | (1 << j), Fraction(0)) + c * mat[j][i] * sign
        cur = nxt
    return cur


def looped_coproduct_legs(h):
    """The coproduct legs of `product_tables` as a Python double loop over the
    4^n pairs of masks finds them, with the signs from the int64 table of
    inversion parities: (leg_start, leg_first, leg_second, wedge[B, P - B] per
    leg, that table)."""
    n, top, order = h.nv, (1 << h.nv) - 1, h.group.order
    mul = np.asarray(h.group.mul, dtype=np.int64)
    ucol = mul[:, h.inv.u]
    m = np.arange(1 << n)
    bits = m[:, None] >> np.arange(n) & 1
    pop = bits.sum(1)
    above = bits[:, ::-1].cumsum(1)[:, ::-1] - bits  # the bits of R above i
    wedge = np.where(m[:, None] & m, 0, 1 - 2 * (above @ bits.T % 2))
    subs = [(mask ^ sub, sub) for mask in range(top + 1) for sub in range(mask + 1) if sub & mask == sub]
    rest, sub = (np.array(col, dtype=np.int64) for col in zip(*subs))
    g = np.arange(order, dtype=np.int64)[:, None]
    return (np.cumsum([0, *np.tile(1 << pop, order)]), (np.where(pop[sub] % 2, ucol[:, None], g) << n | rest).ravel(),
            (g << n | sub).ravel(), np.tile(wedge[sub, rest], order), wedge)


def factor_coproduct(h, b):
    """Delta(g v_P) multiplied out factor by factor: (g x g) times v_i x 1 + u x v_i
    for each i in P, in increasing order, with the algebra's products."""
    h = dict_view(h)
    g, mask = h.decode(b)
    cur = {(h.encode(g, 0), h.encode(g, 0)): 1}
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        m &= m - 1
        vi = h.v_element(i)
        u = h.u_element
        nxt = {}
        for (b1, b2), c in cur.items():
            for nb1, c1 in h.product_basis(b1, vi).items():
                _tns_add(nxt, (nb1, b2), c * c1)
            for nb1, c1 in h.product_basis(b1, u).items():
                for nb2, c2 in h.product_basis(b2, vi).items():
                    _tns_add(nxt, (nb1, nb2), c * c1 * c2)
        cur = nxt
    return [(b1, b2, c) for (b1, b2), c in cur.items() if c]


def product_antipode(h, b):
    """S(g v_P) = S(v_P) S(g) multiplied out with mul_elements from S(g) = g^-1
    and S(v_i) = -u v_i."""
    h = dict_view(h)
    g, mask = h.decode(b)
    acc = {h.unit: 1}
    bits = [i for i in range(h.nv) if (mask >> i) & 1]
    for i in reversed(bits):
        term = h.mul_elements({h.u_element: 1}, {h.v_element(i): 1})
        acc = h.mul_elements(acc, term)
    acc = h.mul_elements(acc, {h.encode(int(h.group.inv[g]), 0): 1})
    if len(bits) % 2:
        acc = {k: -v for k, v in acc.items()}
    return acc


def _popcount_above(mask: int, j: int) -> int:
    return bin(mask >> (j + 1)).count("1")


def dict_compound(mat: Matrix, n: int) -> list[Element]:
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
                out[em | (1 << j)] = out.get(em | (1 << j), 0) + c * _exact(a) * sign
        cols.append({r: _exact(c) for r, c in out.items() if c})
    return cols


def det_signed_minors(a):
    """{(mask P, mask Q): (-1)^(s(s-1)/2) det A[P,Q]} over |P| = |Q| = s, nonzero
    values only, one Gauss-Jordan determinant per minor."""
    n = len(a)
    out = {}
    for s in range(n + 1):
        pref = (-1) ** (s * (s - 1) // 2)
        subsets = [(sum(1 << i for i in P), P) for P in itertools.combinations(range(n), s)]
        for pm, P in subsets:
            for qm, Q in subsets:
                d = det_by_elimination([[a[i][j] for j in Q] for i in P])
                if d:
                    out[(pm, qm)] = pref * _exact(d)
    return out


def dense_lambda_cocycle(h, sigma):
    """lambda(g v_P, h v_Q) = sum_R [h^-1.v_P : v_R] (-1)^(s(s-1)/2) det sigma[R, Q],
    one entry at a time, as a dim x dim list of lists."""
    n = h.nv
    S = [[Fraction(x) for x in row] for row in sigma]
    minors = {}

    def minor(rm, qm):
        if (rm, qm) not in minors:
            R = [i for i in range(n) if (rm >> i) & 1]
            Q = [j for j in range(n) if (qm >> j) & 1]
            s = len(R)
            minors[(rm, qm)] = (-1) ** (s * (s - 1) // 2) * leibniz_det([[S[i][j] for j in Q] for i in R])
        return minors[(rm, qm)]

    vals = [[Fraction(0)] * h.dim for _ in range(h.dim)]
    for b1 in range(h.dim):
        pm = b1 % (1 << n)
        for b2 in range(h.dim):
            x, qm = divmod(b2, 1 << n)
            if bin(pm).count("1") != bin(qm).count("1"):
                continue
            moved = _wedge_image(h.rep.matrix(int(h.group.inv[x])), pm, n)
            vals[b1][b2] = sum((c * minor(rm, qm) for rm, c in moved.items()), Fraction(0))
    return vals


def dense_theta(sigma, inv):
    """The degree map g -> sigma(g,u) - sigma(u,g) of a cocycle as Z_2 bits,
    read off its dense u-column and u-row."""
    half = sigma.modulus // 2
    t = (sigma.values[:, inv.u] - sigma.values[inv.u, :]) % sigma.modulus
    assert not (t % half).any(), "cocycle pairing with u is not +-1 valued"
    return (t // half) % 2


def restriction_square_class(inv, sigma):
    """sigma(u, u) as a square-class bit: 0 for +1, 1 for -1 (even modulus)."""
    if sigma.modulus % 2:
        raise ParseError("square class needs an even modulus")
    v = int(sigma.values[inv.u, inv.u])
    half = sigma.modulus // 2
    if v % half:
        raise ParseError("sigma(u,u) is not a +-1 value")
    return (v // half) % 2


def dense_sharp(sigma, omega, inv):
    """(sigma # omega)(g,h) = sigma(g,h) + omega(g,h) + (N/2) |g|_sigma |h|_omega,
    with the degrees from dense_theta."""
    half = sigma.modulus // 2
    return sigma.copy_with(sigma.values + omega.values + half * np.outer(dense_theta(sigma, inv), dense_theta(omega, inv)))


def enumerated_sharp_table(cg, inv):
    """The sharp Cayley table on cg.all_classes(), one full dense sharp product
    and one class_of per cell."""
    classes = list(cg.all_classes())
    reps = [representative(c) for c in classes]
    index = {c.coords: i for i, c in enumerate(classes)}
    table = np.zeros((len(classes), len(classes)), dtype=np.int32)
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            table[i, j] = index[cg.class_of(dense_sharp(x, y, inv)).coords]
    return table



def enumerated_bm_table(g, inv, field):
    """The BM(k, k[G], R_u) Cayley table in the production layout, element
    (b, i, a) at row (b |H^2| + i)(1 + split) + a, filled by one element-level
    multiply per cell on the enumerated sharp table, with one
    restriction_square_class per class representative."""
    cg = field.cohomology(g)
    chi = splitting_character(inv)
    classes = list(cg.all_classes())
    index = {c.coords: i for i, c in enumerate(classes)}
    sharp_table = enumerated_sharp_table(cg, inv)
    markers = [restriction_square_class(inv, representative(c)) if field.kind == "real" else 0 for c in classes]
    c11 = index[cg.zero_class().coords]
    if chi is not None:
        n = cg.coeff.n
        c11 = index[cg.class_of(Cochain2(g, n, (n // 2) * np.outer(chi.values, chi.values))).coords]
    parities = 2 if chi is not None else 1
    elements = list(itertools.product(range(field.brauer_order), range(len(classes)), range(parities)))
    position = {el: k for k, el in enumerate(elements)}

    def multiply(x, y):
        (b1, i1, a1), (b2, i2, a2) = x, y
        b = b1 + b2 + quaternion_symbol(markers[i1], markers[i2], field)
        ci = int(sharp_table[i1, i2])
        if a1 and a2:  # C(1) C(1): the class with sigma(u,u) = -1
            b += quaternion_symbol(markers[ci], 1, field)
            ci = int(sharp_table[ci, c11])
        return b % field.brauer_order, ci, (a1 + a2) % parities

    return np.array([[position[multiply(x, y)] for y in elements] for x in elements], dtype=np.int32)


def enumerated_q_table(g, inv, field):
    """The Q(k, G) Cayley table in the production layout, element
    (c, x, s, e) at row ((c |Hom| + x) |k*/(k*)^2| + s) 2 + e, filled by one
    element-level multiply per cell with one pairing class_of per cell."""
    q = quotient_by_central_involution(inv).quotient
    cq = field.cohomology(q)
    n = cq.coeff.n
    chars = [c.values % 2 for c in all_characters(q, 2)]
    sq = field.square_class_order
    elements = [(c.coords, x, s, e) for c in cq.all_classes() for x in range(len(chars)) for s in range(sq)
                for e in range(2)]
    position = {el: k for k, el in enumerate(elements)}

    def multiply(x, y):
        (c1, x1, s1, e1), (c2, x2, s2, e2) = x, y
        cls = CohomologyClass(cq, c1) + CohomologyClass(cq, c2)
        if chars[x1].any() and chars[x2].any():
            cls = cls + cq.class_of(Cochain2(q, n, (n // 2) * np.outer(chars[x1], chars[x2])))
        prod = next(k for k, v in enumerate(chars) if ((chars[x1] + chars[x2]) % 2 == v).all())
        return cls.coords, prod, (s1 + s2 + e1 * e2) % sq, (e1 + e2) % 2

    return np.array([[position[multiply(x, y)] for y in elements] for x in elements], dtype=np.int32)

def _basis_label(h, b):
    g, mask = divmod(b, 1 << h.nv)
    vs = "".join(f"v{i}" for i in range(h.nv) if (mask >> i) & 1)
    return f"g{g}{('*' + vs) if vs else ''}"


def _tuples(h, arity, budget, seed):
    """All basis tuples while dim <= budget, else the production's sample draw."""
    if h.dim <= budget:
        return itertools.product(range(h.dim), repeat=arity), False
    return randrange_sample(h.dim, arity, seed), True


def randrange_sample(dim, arity, seed):
    """SAMPLED_TRIPLES arity-tuples of indices below dim, one
    random.Random(seed).randrange(dim) call per index."""
    rng = random.Random(seed)
    return [tuple(rng.randrange(dim) for _ in range(arity)) for _ in range(SAMPLED_TRIPLES)]


def four_loop_cocycle_check(sigma, right=False, budget=DEFAULT_DIM_BUDGET, seed=0):
    """(check, passed, detail, counterexample, sampled) of the left (or right)
    cocycle equation, expanding both coproducts and the product per triple."""
    h = dict_view(sigma.algebra)
    v = sigma.values
    if right:
        check, detail = "right-cocycle", "right cocycle equation fails"

        def cop(b):
            return [(b2, b1, c) for b1, b2, c in h.coproduct_basis(b)]
    else:
        check, detail = "left-cocycle", "cocycle equation fails"
        cop = h.coproduct_basis
    triples, sampled = _tuples(h, 3, budget, seed)
    for a, b, c in triples:
        lhs = Fraction(0)
        for a1, a2, x in cop(a):
            for b1, b2, y in cop(b):
                if not v[a1][b1]:
                    continue
                for z, cz in h.product_basis(a2, b2).items():
                    lhs += x * y * v[a1][b1] * cz * v[z][c]
        rhs = Fraction(0)
        for b1, b2, y in cop(b):
            for c1, c2, w in cop(c):
                if not v[b1][c1]:
                    continue
                for z, cz in h.product_basis(b2, c2).items():
                    rhs += y * w * v[b1][c1] * cz * v[a][z]
        if lhs != rhs:
            return check, False, detail, tuple(_basis_label(h, t) for t in (a, b, c)), sampled
    return check, True, "", None, sampled


def four_loop_is_lazy(sigma, budget=DEFAULT_DIM_BUDGET, seed=0):
    """(check, passed, detail, counterexample, sampled) of
    sum sigma(a1,b1) a2 b2 = sum sigma(a2,b2) a1 b1, expanded per pair."""
    h = dict_view(sigma.algebra)
    v = sigma.values
    pairs, sampled = _tuples(h, 2, budget, seed)
    for a, b in pairs:
        diff = {}
        for a1, a2, x in h.coproduct_basis(a):
            for b1, b2, y in h.coproduct_basis(b):
                for z, cz in h.product_basis(a2, b2).items():
                    diff[z] = diff.get(z, Fraction(0)) + x * y * v[a1][b1] * cz
                for z, cz in h.product_basis(a1, b1).items():
                    diff[z] = diff.get(z, Fraction(0)) - x * y * v[a2][b2] * cz
        if any(diff.values()):
            return "lazy", False, "lazy condition fails", (_basis_label(h, a), _basis_label(h, b)), sampled
    return "lazy", True, "", None, sampled


def twisted_product(h: SupergroupAlgebra, rows, a: int, b: int, op: bool = False) -> Element:
    """m(a,b) = sum sigma(a1,b1) a2 b2, or with op m^op(a,b) = sum sigma(a2,b2) a1 b1,
    for the cochain with the given rows."""
    h = dict_view(h)
    ca, cb = h.coproduct_basis(a), h.coproduct_basis(b)
    if op:
        ca, cb = [(a2, a1, x) for a1, a2, x in ca], [(b2, b1, y) for b1, b2, y in cb]
    out: Element = {}
    for a1, a2, x in ca:
        row = rows[a1]
        for b1, b2, y in cb:
            s = row[b1]
            if s:
                s *= x * y
                for z, cz in h.product_basis(a2, b2).items():
                    out[z] = out.get(z, 0) + s * cz
    return {z: c for z, c in out.items() if c}


class DictView:
    """The structure constants of an algebra read off its product tables into
    dicts, under the names of the dict arithmetic the Hopf-side oracles are
    written in: product_basis, coproduct_basis, antipode_basis, counit_basis,
    mul_elements and times_u.  Every other attribute is the algebra's.  The view reads the
    tables the algebra holds, so a test that moves a table entry moves it for
    the production checks and the oracles alike."""

    def __init__(self, h: SupergroupAlgebra) -> None:
        self.algebra = h
        t = h.product_tables()
        d = t.denominator

        def rows(start, *cols):
            start, cols = start.tolist(), [c.tolist() for c in cols]
            return [list(zip(*(c[start[b]:start[b + 1]] for c in cols))) for b in range(len(start) - 1)]

        self._cop = [[(x, y, _exact(Fraction(c, d))) for x, y, c in row]
                     for row in rows(t.leg_start, t.leg_first, t.leg_second, t.leg_coef)]
        self._anti = [{z: _exact(Fraction(c, d)) for z, c in row}
                      for row in rows(t.anti_start, t.anti_elem, t.anti_coef)]
        self._cols = rows(t.act_start, t.act_mask, t.act_coef)
        self._mul, self._wedge, self._d = t.mul.tolist(), t.wedge.tolist(), d
        self._prod: dict[tuple[int, int], Element] = {}

    def __getattr__(self, name):
        return getattr(self.algebra, name)

    def times_u(self, g: int, k: int) -> int:
        """The group element g u^k (u is central of order 2)."""
        return self._mul[g][self.inv.u] if k % 2 else g

    def product_basis(self, b1: int, b2: int) -> Element:
        """g v_P . h v_Q = sum c wedge[R, Q] (gh) v_{R+Q} over the entries (R, c) of h^{-1}.v_P."""
        out = self._prod.get((b1, b2))
        if out is None:
            (g, pmask), (h, qmask) = self.decode(b1), self.decode(b2)
            out = self._prod[b1, b2] = {
                self.encode(self._mul[g][h], r | qmask): _exact(Fraction(c * self._wedge[r][qmask], self._d))
                for r, c in self._cols[self.encode(h, pmask)] if self._wedge[r][qmask]}
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

    def counit_basis(self, b: int) -> int:
        return 1 if self.decode(b)[1] == 0 else 0

    def coproduct_basis(self, b: int) -> list[tuple[int, int, int | Fraction]]:
        return self._cop[b]

    def antipode_basis(self, b: int) -> Element:
        return self._anti[b]


def dict_view(h) -> DictView:
    """The dict view of an algebra's product tables (a view stays as it is)."""
    return h if isinstance(h, DictView) else DictView(h)


def tensor_mul(h: SupergroupAlgebra, t1: Tensor, t2: Tensor) -> Tensor:
    h = dict_view(h)
    out: Tensor = {}
    for (a, b), c1 in t1.items():
        for (c, d), c2 in t2.items():
            for x, cx in h.product_basis(a, c).items():
                for y, cy in h.product_basis(b, d).items():
                    _tns_add(out, (x, y), c1 * c2 * cx * cy)
    return out


def tensor_flip(t: Tensor) -> Tensor:
    return {(b, a): c for (a, b), c in t.items()}


def _cop_tensor(h: SupergroupAlgebra, b: int) -> Tensor:
    h = dict_view(h)
    return {(b1, b2): c for b1, b2, c in h.coproduct_basis(b)}


def _generators(h: SupergroupAlgebra) -> list[int]:
    """g for g in G.gens, then v_0 .. v_{n-1}: the algebra generators of H."""
    return [h.encode(int(g), 0) for g in h.group.gens] + [h.v_element(i) for i in range(h.nv)]


def generator_verify_hopf(h: SupergroupAlgebra) -> VerifyReport:
    """Bialgebra and antipode axioms, exhaustive at every dimension.  With Delta(1) = 1 x 1,
    Delta(as) = Delta(a)Delta(s), eps(as) = eps(a)eps(s) and S(as) = S(s)S(a) on basis x
    generators hold on all pairs (induction on words); the counit, antipode and coassociativity
    laws are closed under products, so 1 and the generators suffice: dim (|S| + n) products."""
    h = dict_view(h)
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


def dict_r_legs(h: SupergroupAlgebra, r: Tensor) -> tuple[Tensor3, Tensor3, Tensor3, Tensor3]:
    """(Delta x id)R and R13 R23 on the entries whose middle leg has degree <= 1,
    (id x Delta)R and R13 R12 on those whose last leg has degree <= 1.

    (Delta x id)R = R13 R23 says that f(phi) = (phi x id)R is an algebra map
    H* -> H, and (id x Delta)R = R13 R12 that f'(phi) = (id x phi)R is an
    anti-map.  For each, the psi with f(phi psi) = f(phi) f(psi) for every phi
    form a subalgebra of H*, and the dual-basis functionals delta_{g,P} with
    |P| <= 1 generate H* (their span holds eps, and delta_{g,i} delta_{h,Q} =
    +-delta_{h,Q+i} for g = h u^|Q|, i not in Q).  So each identity holds on all
    of H (x) H (x) H once it holds on the slices where psi's leg has degree <= 1.
    By the unit law R13 R23 = sum r(a,b) r(x,y) a (x) x (x) by and
    R13 R12 = sum r(x,y) r(a,b) xa (x) b (x) y: one product per pair of an R
    term and an R term of degree <= 1 on that leg."""
    h = dict_view(h)
    top = (1 << h.nv) - 1

    def low(b: int) -> bool:
        mask = b & top
        return not mask & (mask - 1)

    first_low = [(x, y, c) for (x, y), c in r.items() if low(x)]
    second_low = [(x, y, c) for (x, y), c in r.items() if low(y)]
    cop1: Tensor3 = {}
    r13r23: Tensor3 = {}
    cop2: Tensor3 = {}
    r13r12: Tensor3 = {}
    for (a, b), c in r.items():
        for a1, a2, ca in h.coproduct_basis(a):
            if low(a2):
                cop1[a1, a2, b] = cop1.get((a1, a2, b), 0) + c * ca
        for b1, b2, cb in h.coproduct_basis(b):
            if low(b2):
                cop2[a, b1, b2] = cop2.get((a, b1, b2), 0) + c * cb
        for x, y, cxy in first_low:
            for z, cz in h.product_basis(b, y).items():
                r13r23[a, x, z] = r13r23.get((a, x, z), 0) + c * cxy * cz
        for x, y, cxy in second_low:
            for z, cz in h.product_basis(x, a).items():
                r13r12[z, b, y] = r13r12.get((z, b, y), 0) + cxy * c * cz
    return tuple({k: v for k, v in t.items() if v} for t in (cop1, r13r23, cop2, r13r12))


def _cleared(r: Tensor) -> tuple[Tensor, int]:
    """(D R, D) with D the least common denominator of the coefficients of R,
    so that D R has int coefficients; D = 2 for R_A of an integral A, whose
    odd minors (the empty one among them) give halves."""
    d = math.lcm(*{c.denominator for c in r.values()})
    return {k: _exact(d * c) for k, c in r.items()}, d


def generator_verify_quasitriangular(h: SupergroupAlgebra, r: Tensor) -> VerifyReport:
    """(Delta x id)R = R13 R23, (id x Delta)R = R13 R12, R Delta = Delta^op R.  Presumes
    a Hopf algebra (verify_hopf): then H* is an algebra generated by the functionals
    of degree <= 1, so the leg identities are checked on those slices (_r_legs); and
    Delta and Delta^op are algebra maps, so the b with R Delta(b) = Delta^op(b) R form
    a subalgebra and the generators suffice.

    Each identity is homogeneous in R, so it is checked on the int numerator R' = D R
    with the degrees balanced by D: D (Delta x id)R' = R'13 R'23, D (id x Delta)R' =
    R'13 R'12, (eps x id)R' = (id x eps)R' = D 1 and R' Delta = Delta^op R'."""
    h = dict_view(h)
    r, d = _cleared(r)
    cop1, r13r23, cop2, r13r12 = dict_r_legs(h, r)
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


def generator_verify_triangular(h: SupergroupAlgebra, r: Tensor) -> VerifyReport:
    """Quasitriangular and R21 R = 1 x 1.  Presumes a Hopf algebra (verify_hopf).

    Applying m (S x id) x id to (Delta x id)R = R13 R23 gives (S x id)R . R =
    1 x (eps x id)R = 1 x 1, so R^{-1} = (S x id)R (Kassel, Quantum Groups,
    Prop. VIII.2.1).  Once R is quasitriangular, R21 R = 1 x 1 is therefore
    R21 = (S x id)R: linear in R, one antipode per term and no product."""
    h = dict_view(h)
    rep = generator_verify_quasitriangular(h, r)
    if not rep.passed:
        return VerifyReport("triangular", False, rep.detail, rep.counterexample)
    gap: Tensor = {}  # R21 - (S x id)R
    for (a, b), c in r.items():
        _tns_add(gap, (b, a), c)
        for x, cx in h.antipode_basis(a).items():
            _tns_add(gap, (x, b), -c * cx)
    if gap:
        return VerifyReport("triangular", False, "R21 * R != 1 x 1")
    return VerifyReport("triangular", True)


def all_pairs_verify_hopf(h, budget=DEFAULT_DIM_BUDGET, seed=0):
    """The per-pair Hopf check: counit, antipode and coassociativity laws on
    every basis element met, and Delta(ab) = Delta(a)Delta(b) on all pairs
    while dim <= budget, else on the seeded sample of pairs."""
    h = dict_view(h)
    pairs, sampled = _tuples(h, 2, budget, seed)
    pairs = list(pairs)
    singles = sorted({a for p in pairs for a in p})
    # counit and antipode laws
    for b in singles:
        cop = h.coproduct_basis(b)
        left = {}
        right = {}
        anti1 = {}
        anti2 = {}
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
        lhs = {}
        rhs = {}
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
        lhs2 = {}
        for z, cz in prod.items():
            for z1, z2, c in h.coproduct_basis(z):
                _tns_add(lhs2, (z1, z2), cz * c)
        rhs2 = tensor_mul(h, _cop_tensor(h, a), _cop_tensor(h, b))
        if lhs2 != rhs2:
            return VerifyReport("hopf", False, "coproduct not multiplicative", (h.label(a), h.label(b)), sampled)
    return VerifyReport("hopf", True, f"dim {h.dim}", None, sampled)


def all_basis_r_delta(h, r, budget=DEFAULT_DIM_BUDGET, seed=0):
    """R Delta(b) = Delta^op(b) R on every basis element b while dim <= budget,
    else on the seeded sample."""
    h = dict_view(h)
    elems, sampled = _tuples(h, 1, budget, seed)
    for (b,) in elems:
        d = _cop_tensor(h, b)
        dop = tensor_flip(d)
        if tensor_mul(h, r, d) != tensor_mul(h, dop, r):
            return VerifyReport("quasitriangular", False, "R Delta != Delta^op R", (h.label(b),), sampled)
    return VerifyReport("quasitriangular", True, "", None, sampled)


def triple_tensor_legs(h, r):
    """(Delta x id)R, R13 R23, (id x Delta)R, R13 R12 with the legs embedded
    in H (x) H (x) H and multiplied factor by factor; zero entries dropped."""
    h = dict_view(h)
    one = h.group.identity << h.nv

    def mul3(t1, t2):
        out = {}
        for (a, b, c), c1 in t1.items():
            for (d, e, f), c2 in t2.items():
                for x, cx in h.product_basis(a, d).items():
                    for y, cy in h.product_basis(b, e).items():
                        for z, cz in h.product_basis(c, f).items():
                            out[(x, y, z)] = out.get((x, y, z), Fraction(0)) + c1 * c2 * cx * cy * cz
        return out

    r12 = {(a, b, one): c for (a, b), c in r.items()}
    r13 = {(a, one, b): c for (a, b), c in r.items()}
    r23 = {(one, a, b): c for (a, b), c in r.items()}
    cop1, cop2 = {}, {}
    for (a, b), c in r.items():
        for a1, a2, ca in h.coproduct_basis(a):
            cop1[(a1, a2, b)] = cop1.get((a1, a2, b), Fraction(0)) + c * ca
        for b1, b2, cb in h.coproduct_basis(b):
            cop2[(a, b1, b2)] = cop2.get((a, b1, b2), Fraction(0)) + c * cb
    return tuple({k: x for k, x in t.items() if x} for t in (cop1, mul3(r13, r23), cop2, mul3(r13, r12)))


def uncleared_r_checks(h, r):
    """(quasitriangular, triangular) reports of R with its coefficients as
    given, no denominator cleared: the legs multiplied in H (x) H (x) H, the
    counit laws, R Delta(s) = Delta^op(s) R on g in G.gens then v_0 .. v_{n-1},
    and R21 R = 1 x 1."""
    h = dict_view(h)

    def report(detail, counterexample=None):
        return (VerifyReport("quasitriangular", False, detail, counterexample),
                VerifyReport("triangular", False, detail, counterexample))

    cop1, r13r23, cop2, r13r12 = triple_tensor_legs(h, r)
    if cop1 != r13r23:
        return report("(Delta x id)R != R13 R23")
    if cop2 != r13r12:
        return report("(id x Delta)R != R13 R12")
    eps1, eps2 = {}, {}
    for (a, b), c in r.items():
        _tns_add(eps1, b, c * h.counit_basis(a))
        _tns_add(eps2, a, c * h.counit_basis(b))
    if eps1 != {h.unit: Fraction(1)} or eps2 != {h.unit: Fraction(1)}:
        return report("(eps x id)R != 1")
    for s in [h.encode(int(g), 0) for g in h.group.gens] + [h.v_element(i) for i in range(h.nv)]:
        d = _cop_tensor(h, s)
        if tensor_mul(h, r, d) != tensor_mul(h, tensor_flip(d), r):
            return report("R Delta != Delta^op R", (h.label(s),))
    if tensor_mul(h, tensor_flip(r), r) != {(h.unit, h.unit): Fraction(1)}:
        return VerifyReport("quasitriangular", True), VerifyReport("triangular", False, "R21 * R != 1 x 1")
    return VerifyReport("quasitriangular", True), VerifyReport("triangular", True)


def eps_tensor_eps(h: SupergroupAlgebra) -> HCochain2:
    eps = dict_view(h).counit_basis
    vals = [[eps(a) * eps(b) for b in h.basis()] for a in h.basis()]
    return HCochain2(h, vals)


def hcochain_equals(s1: HCochain2, s2: HCochain2) -> bool:
    """The two cochains have the same values; a row object both share is not compared."""
    return len(s1.values) == len(s2.values) and all(
        a is b or tuple(a) == tuple(b) for a, b in zip(s1.values, s2.values)
    )


def convolve(s1: HCochain2, s2: HCochain2) -> HCochain2:
    """(s1 * s2)(a, b) = sum s1(a1, b1) s2(a2, b2)."""
    h = s1.algebra
    cop = dict_view(h).coproduct_basis
    vals = [[0] * h.dim for _ in range(h.dim)]
    for a in h.basis():
        ca = cop(a)
        for b in h.basis():
            cb = cop(b)
            acc = 0
            for a1, a2, x in ca:
                for b1, b2, y in cb:
                    acc += x * y * s1.values[a1][b1] * s2.values[a2][b2]
            vals[a][b] = acc
    return HCochain2(h, vals)


def is_convolution_invertible(sigma: HCochain2) -> tuple[bool, HCochain2 | None]:
    """Solve sigma * tau = eps x eps degree by degree along the Lambda V filtration.

    The top split of Delta(g v_P) is g u^|P| (x) g v_P with coefficient 1, so
    the system is triangular once sigma is nonzero on grouplike pairs.
    """
    h = dict_view(sigma.algebra)
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
    tau = HCochain2(sigma.algebra, vals)
    if not hcochain_equals(convolve(sigma, tau), eps_tensor_eps(sigma.algebra)):
        return False, None
    if not hcochain_equals(convolve(tau, sigma), eps_tensor_eps(sigma.algebra)):
        return False, None
    return True, tau


def is_group_invariant_form(rep, sigma):
    """rho(x)^t Sigma rho(x) = Sigma for every group element x."""
    n = len(sigma)
    for x in range(rep.group.order):
        m = rep.matrix(x)
        moved = [[sum(m[k][i] * sigma[k][l] * m[l][j] for k in range(n) for l in range(n)) for j in range(n)]
                 for i in range(n)]
        if moved != [list(row) for row in sigma]:
            return False
    return True


def leading_principal_minors_positive(sigma: Matrix) -> bool:
    """Sylvester check on sigma or -sigma (congruent-to-definite sanity)."""
    for cand in (sigma, mat_neg(sigma)):
        ok = True
        n = len(cand)
        for k in range(1, n + 1):
            sub = [row[:k] for row in cand[:k]]
            if det_by_elimination(sub) <= 0:
                ok = False
                break
        if ok:
            return True
    return False


def _val(a: int, p: int, e: int) -> int:
    """p-valuation of the residue a in [0, q); val(0) = e."""
    if a == 0:
        return e
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def _val_matrix(a: np.ndarray, p: int, e: int) -> np.ndarray:
    v = np.zeros(a.shape, dtype=np.int64)
    rem = a.copy()
    for _ in range(e):
        mask = (rem != 0) & (rem % p == 0)
        if not mask.any():
            break
        rem[mask] //= p
        v[mask] += 1
    v[a == 0] = e
    return v


def dense_snf_mod(
    M: np.ndarray,
    p: int,
    e: int,
    *,
    want_l: bool = False,
    want_linv: bool = False,
    want_r: bool = False,
) -> SnfMod:
    """Diagonalize M over Z/p**e by minimal-valuation full pivoting."""
    q = p**e
    A = np.asarray(M, dtype=np.int64) % q
    rows, cols = A.shape
    L = np.eye(rows, dtype=np.int64) if want_l else None
    Linv = np.eye(rows, dtype=np.int64) if want_linv else None
    R = np.eye(cols, dtype=np.int64) if want_r else None

    diag: list[int] = []
    for s in range(min(rows, cols)):
        # pivot search: unit in the current column, then any unit, then min valuation
        colunits = (A[s:, s] % p) != 0
        if colunits.any():
            i, j = s + int(np.argmax(colunits)), s
        else:
            block = A[s:, s:]
            units = (block % p) != 0
            if units.any():
                flat = int(np.argmax(units))
                bi, bj = divmod(flat, cols - s)
                i, j = s + bi, s + bj
            elif not block.any():
                break
            else:
                vals = _val_matrix(block, p, e)
                flat = int(np.argmin(vals))
                bi, bj = divmod(flat, cols - s)
                i, j = s + bi, s + bj
        if i != s:
            A[[s, i], :] = A[[i, s], :]
            if L is not None:
                L[[s, i], :] = L[[i, s], :]
            if Linv is not None:
                Linv[:, [s, i]] = Linv[:, [i, s]]
        if j != s:
            A[:, [s, j]] = A[:, [j, s]]
            if R is not None:
                R[:, [s, j]] = R[:, [j, s]]
        a = int(A[s, s])
        v = _val(a, p, e)
        u = a // p**v
        if u != 1:
            uinv = inverse_mod(u, q)
            A[s, s:] = (A[s, s:] * uinv) % q
            if L is not None:
                L[s, :] = (L[s, :] * uinv) % q
            if Linv is not None:
                Linv[:, s] = (Linv[:, s] * u) % q
        piv = p**v
        col = A[s + 1 :, s]
        if col.any():
            m = col // piv  # exact: the pivot has minimal valuation in its column
            A[s + 1 :, s:] -= m[:, None] * A[s, s:][None, :]
            A[s + 1 :, s:] %= q
            if L is not None:
                L[s + 1 :, :] = (L[s + 1 :, :] - np.outer(m, L[s, :])) % q
            if Linv is not None:
                Linv[:, s] = (Linv[:, s] + Linv[:, s + 1 :] @ m) % q
        row = A[s, s + 1 :]
        if row.any():
            m = row // piv
            A[s:, s + 1 :] -= A[s:, s][:, None] * m[None, :]
            A[s:, s + 1 :] %= q
            if R is not None:
                R[:, s + 1 :] = (R[:, s + 1 :] - np.outer(R[:, s], m)) % q
        diag.append(v)
    return SnfMod(p=p, e=e, diag=diag, rows=rows, cols=cols, L=L, Linv=Linv, R=R)


# ---------------------------------------------------------------------------
# the stored H^2 frontier system and its kernel, as the production code had them
# before the equations were generated from their row ids


@dataclass(eq=False)
class CooFrontierSystem:
    group: object
    num_gens: int
    fprime: int
    xpos: np.ndarray
    nonid: np.ndarray
    chain_x: list
    chain_k: list
    eq_rows: np.ndarray
    eq_cols: np.ndarray
    eq_vals: np.ndarray
    eq_count: int


def coo_frontier_system(g):
    """The stored frontier system: every equation row as row-sorted COO arrays."""
    n = g.order
    num_gens = len(g.gens)
    mul = np.asarray(g.mul, dtype=np.int64)
    xpos = np.full(n, -1, dtype=np.int64)
    nonid = np.array([x for x in range(n) if x != g.identity], dtype=np.int64)
    xpos[nonid] = np.arange(len(nonid))
    fprime = len(nonid) * num_gens

    chain_x: list[np.ndarray] = []
    chain_k: list[np.ndarray] = []
    for h in range(n):
        word = g.word(h)
        xs, x = [], g.identity
        for k in word:
            xs.append(x)
            x = int(mul[x, g.gens[k]])
        chain_x.append(np.array(xs, dtype=np.int64))
        chain_k.append(np.array(word, dtype=np.int64))

    rows_acc, cols_acc, vals_acc = [], [], []

    def emit(rows, cols, vals, mask):
        rows_acc.append(np.asarray(rows)[mask].astype(np.int32))
        cols_acc.append(np.asarray(cols)[mask].astype(np.int32))
        vals_acc.append(np.asarray(vals)[mask].astype(np.int8))

    ng = len(nonid)
    eq = 0
    for h in range(n):
        if h == g.identity:
            continue
        cxh, ckh = chain_x[h], chain_k[h]
        gxh = mul[np.ix_(nonid, cxh)]
        exp_h_cols = xpos[gxh] * num_gens + ckh[None, :]
        exp_h_mask = xpos[gxh] >= 0
        const_h_cols = xpos[cxh] * num_gens + ckh
        const_h_mask = xpos[cxh] >= 0
        for k in range(num_gens):
            s_el = g.gens[k]
            hs = int(mul[h, s_el])
            cxs, cks = chain_x[hs], chain_k[hs]
            rids = eq + np.arange(ng, dtype=np.int64)
            ones = np.ones(ng, dtype=np.int8)
            # + expansion of sigma(g, h)
            rr = np.repeat(rids, len(cxh))
            emit(rr, exp_h_cols.reshape(-1), np.ones(ng * len(cxh)), exp_h_mask.reshape(-1))
            emit(rr, np.tile(const_h_cols, ng), -np.ones(ng * len(cxh)), np.tile(const_h_mask, ng))
            # + T(g h, k)
            gh = mul[nonid, h]
            emit(rids, xpos[gh] * num_gens + k, ones, xpos[gh] >= 0)
            # - T(h, k)
            emit(rids, np.full(ng, xpos[h] * num_gens + k), -ones, np.ones(ng, dtype=bool))
            # - expansion of sigma(g, h s)
            if len(cxs):
                gxs = mul[np.ix_(nonid, cxs)]
                rr = np.repeat(rids, len(cxs))
                cc = (xpos[gxs] * num_gens + cks[None, :]).reshape(-1)
                emit(rr, cc, -np.ones(ng * len(cxs)), (xpos[gxs] >= 0).reshape(-1))
                emit(rr, np.tile(xpos[cxs] * num_gens + cks, ng), np.ones(ng * len(cxs)), np.tile(xpos[cxs] >= 0, ng))
            eq += ng
    rows = np.concatenate(rows_acc) if rows_acc else np.zeros(0, dtype=np.int32)
    cols = np.concatenate(cols_acc) if cols_acc else np.zeros(0, dtype=np.int32)
    vals = np.concatenate(vals_acc) if vals_acc else np.zeros(0, dtype=np.int8)
    order = np.argsort(rows, kind="stable")
    return CooFrontierSystem(
        group=g,
        num_gens=num_gens,
        fprime=fprime,
        xpos=xpos,
        nonid=nonid,
        chain_x=chain_x,
        chain_k=chain_k,
        eq_rows=rows[order],
        eq_cols=cols[order],
        eq_vals=vals[order],
        eq_count=eq,
    )


def coo_cocycle_kernel(sys, p: int, e: int) -> np.ndarray:
    """Generators of the frontier cocycle module over Z_{p^e}.

    Solves a strided subsample exactly, then intersects once with the
    equations that the sample's kernel violates.
    """
    q = p**e
    f = sys.fprime
    if f == 0:
        return np.zeros((0, 0), dtype=np.int64)
    rows, cols, vals = sys.eq_rows, sys.eq_cols, sys.eq_vals
    total = sys.eq_count
    if f * q * q >= 2**62:
        raise BudgetExceeded(
            f"exact elimination over Z_{q} needs f*q^2 < 2^62 with f = {f} unknowns; no budget flag admits this job"
        )

    sample_rows = min(total, max(3 * f, 512))
    step = max(1, total // sample_rows)
    picks = np.arange(0, total, step, dtype=np.int64)
    rmap = np.full(total, -1, dtype=np.int64)
    rmap[picks] = np.arange(len(picks))
    sel = rmap[rows] >= 0
    flat = rmap[rows[sel]] * f + cols[sel]
    sample = (
        np.bincount(flat, weights=vals[sel].astype(np.float64), minlength=len(picks) * f)
        .astype(np.int64)
        .reshape(len(picks), f)
        % q
    )
    K = kernel_mod(sample, p, e)
    if K.shape[1] == 0:
        return K
    # Rows that K satisfies stay satisfied by K Y, and K ker(C) satisfies the
    # violated rows, so one refinement solves every equation.
    use_float = f * q * q < 2**52
    Kf = K.astype(np.float64) if use_float else K
    bad = []
    starts = np.arange(0, total, 4096)
    edges = np.searchsorted(rows, np.append(starts, total).astype(rows.dtype))
    for lo, a, b in zip(starts, edges[:-1], edges[1:]):
        hi = min(lo + 4096, total)
        flat = (rows[a:b].astype(np.int64) - lo) * f + cols[a:b]
        blk = np.bincount(flat, weights=vals[a:b].astype(np.float64), minlength=(hi - lo) * f)
        blk = blk.astype(np.int64).reshape(hi - lo, f) % q
        if use_float:
            res = np.rint(blk.astype(np.float64) @ Kf).astype(np.int64) % q
        else:
            res = (blk @ K) % q
        viol = np.nonzero(res.any(axis=1))[0]
        if len(viol):
            bad.append(blk[viol])
    if not bad:
        return K
    C = (np.vstack(bad) @ K) % q
    return (K @ kernel_mod(C, p, e)) % q


def coo_equation_rows(sys, lo: int, hi: int) -> np.ndarray:
    """Dense signed rows lo..hi-1 of the stored system."""
    a, b = np.searchsorted(sys.eq_rows, [lo, hi])
    M = np.zeros((hi - lo, sys.fprime), dtype=np.int64)
    np.add.at(M, (sys.eq_rows[a:b] - lo, sys.eq_cols[a:b]), sys.eq_vals[a:b])
    return M


# ---------------------------------------------------------------------------
# group tables, representations and H^2 coboundary rows, as the production code
# built them before tables came from the generator columns


def enumerated_table(elements, products):
    """mul[i, j] = index of elements[i] * elements[j], every cell looked up;
    products(a) lists a * b for the elements b in order."""
    index = {x: i for i, x in enumerate(elements)}
    return np.array([[index[y] for y in products(a)] for a in elements], dtype=np.int32)


def _exact_mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def enumerated_group_table(g):
    """The table of a closed group: permutations composed, integer matrices
    multiplied a row at a time in numpy, rational matrices one pair at a time."""
    els = g.element_data
    if g.kind == "permutations":
        return enumerated_table(els, lambda a: [tuple(a[i] for i in b) for b in els])
    if all(isinstance(x, int) for m in els for row in m for x in row):  # keyed by their int64 bytes
        arr = np.array(els, dtype=np.int64)
        return enumerated_table([m.tobytes() for m in arr], lambda a: [
            m.tobytes() for m in np.frombuffer(a, dtype=np.int64).reshape(arr.shape[1:]) @ arr])
    return enumerated_table(els, lambda a: [_exact_mat_mul(a, b) for b in els])


def walked_representation(g, gen_matrices, dim):
    """rho(x) for every x as Fraction matrices: in word-length order rho(xs)
    is set when first reached and compared on every later visit; ParseError
    on a mismatch.  Faithful iff the list has |G| distinct entries."""
    one, zero = Fraction(1), Fraction(0)
    mats = [tuple(tuple(Fraction(x) for x in row) for row in m) for m in gen_matrices]
    out = [None] * g.order
    out[g.identity] = tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim))
    for x in sorted(range(g.order), key=lambda y: len(g.word(y))):
        for k, s in enumerate(g.gens):
            xs = int(g.mul[x, s])
            m = _exact_mat_mul(out[x], mats[k])
            if out[xs] is None:
                out[xs] = m
            elif out[xs] != m:
                raise ParseError("generator matrices are not compatible with the group")
    return out


def gauge_fixed(g, labels):
    """The edge labels T(x, s_k) (an n x |S| table per cochain) of the
    cohomologous cochains T + d(gamma) that vanish on the BFS-tree edges:
    element by element in word-length order, gamma(y) = gamma(x) + T(x, s_k)
    + gamma(s_k) on the tree edge x s_k = y, with gamma = 0 on 1 and on the
    generators."""
    labels = np.asarray(labels, dtype=np.int64)
    mul = np.asarray(g.mul)
    gamma = np.zeros(labels.shape[:-1], dtype=np.int64)
    for y in sorted(range(g.order), key=lambda y: len(g.word(y))):
        word = g.word(y)
        if len(word) > 1:
            x, k = g.word_to_element(word[:-1]), word[-1]
            gamma[..., y] = gamma[..., x] + labels[..., x, k] + gamma[..., g.gens[k]]
    out = labels.copy()
    for x in range(g.order):
        for k, s in enumerate(g.gens):
            out[..., x, k] += gamma[..., x] + gamma[..., s] - gamma[..., mul[x, s]]
    return out


# ---------------------------------------------------------------------------
# the f-column H^2 solve: the gauge-fixed edge labels off the tree and away
# from 1 as unknowns, one dense row per relator and start x != 1, as the
# production code solved it before the central values


def presentation_unknowns(g):
    """Edge ids x |S| + k of the unknowns: the edges off the BFS tree and
    away from 1, where the gauge and the normalization fix T = 0."""
    m = len(g.gens)
    fixed = np.zeros(g.order * m, dtype=bool)
    fixed[[x * m + k for x, k, _ in g.tree]] = True
    fixed[g.identity * m : (g.identity + 1) * m] = True
    return np.flatnonzero(~fixed)


def gauge_fix(g, unknowns, labels):
    """Unknowns of the cocycles with edge labels `labels` (..., n, |S|)
    plus d(pot), pot(y) the label sum from 1 to y along the tree: the
    cohomologous cocycles that vanish on the tree edges."""
    pot = np.zeros(labels.shape[:-1], dtype=np.int64)
    for x, k, y in g.tree:
        pot[..., y] = pot[..., x] + labels[..., x, k]
    gens = list(g.gens)
    fixed = labels + pot[..., :, None] + pot[..., None, gens] - pot[..., np.asarray(g.mul)[:, gens]]
    x, k = np.divmod(unknowns, len(gens))
    return fixed[..., x, k]


def relator_rows(g, unknowns, relators):
    """For each relator and start x != 1, its label sum from x minus its
    label sum from 1, as a dense row over the unknowns."""
    n, edges = g.order, g.order * len(g.gens)
    blocks = []
    for r in relators:
        ids, signs = cycle_edges(g, r)
        flat = (np.arange(n)[:, None] * edges + ids).ravel()
        sums = np.bincount(flat, weights=np.broadcast_to(signs, ids.shape).ravel(), minlength=n * edges)
        sums = sums.astype(np.int64).reshape(n, edges)[:, unknowns]
        blocks.append(np.delete(sums - sums[g.identity], g.identity, axis=0))
    return np.vstack(blocks)


def f_column_kernel(rows, p: int, e: int) -> np.ndarray:
    """Generators of the gauge-fixed cocycle module over Z_{p^e}."""
    q = p**e
    f = rows.shape[1]
    if f * q * q >= 2**62:
        raise BudgetExceeded(
            f"exact elimination over Z_{q} needs f*q^2 < 2^62 with f = {f} unknowns; no budget flag admits this job"
        )
    return kernel_mod(rows, p, e)


def coboundary_rows(g, sys):
    """Frontier coordinates of d(gamma_y), one row per non-identity y, by
    scattering the three terms of every frontier pair."""
    num_gens = sys.num_gens
    xpos = sys.xpos
    mul = np.asarray(g.mul)
    gen_els = np.array(g.gens, dtype=np.int64)
    nonid = sys.nonid
    B = np.zeros((len(nonid), sys.fprime), dtype=np.int64)
    tcols = (xpos[nonid][:, None] * num_gens + np.arange(num_gens)[None, :]).reshape(-1)
    xs = np.repeat(nonid, num_gens)
    ss = np.tile(gen_els, len(nonid))
    np.add.at(B, (xpos[xs], tcols), 1)
    np.add.at(B, (xpos[ss], tcols), 1)
    prods = mul[xs, ss]
    mask = prods != g.identity
    np.add.at(B, (xpos[prods[mask]], tcols[mask]), -1)
    return B


def delta_rows(g, ab, sys, m):
    """The carry (phi(x) + phi(s) - phi(xs)) / m of each character generator
    phi: G -> Z_m at every frontier pair."""
    mul = np.asarray(g.mul)
    gen_els = np.array(g.gens, dtype=np.int64)
    nonid = sys.nonid
    rows = []
    for i, d in enumerate(ab.cyclic_orders):
        step = m // int(np.gcd(d, m))
        phi = (ab.projection[:, i] * step) % m
        carry = (phi[nonid][:, None] + phi[gen_els][None, :] - phi[mul[np.ix_(nonid, gen_els)]]) // m
        rows.append(carry.reshape(-1))
    if not rows:
        return np.zeros((0, sys.fprime), dtype=np.int64)
    return np.stack(rows, axis=0)


# ---------------------------------------------------------------------------
# Weyl data as the production code derived it before the Cartan matrix: the
# simple reflections from Bourbaki's Euclidean coordinates of the simple roots,
# and w0 by a scan of every element of the closed group


def simple_roots(t: RootSystemType) -> list[list[Fraction]]:
    """Bourbaki coordinates of the simple roots in an ambient space."""
    n = t.rank
    F = Fraction

    def e(i: int, dim: int) -> list[Fraction]:
        v = [F(0)] * dim
        v[i] = F(1)
        return v

    def sub(a, b):
        return [x - y for x, y in zip(a, b)]

    def add(a, b):
        return [x + y for x, y in zip(a, b)]

    if t.family == "A":
        dim = n + 1
        return [sub(e(i, dim), e(i + 1, dim)) for i in range(n)]
    if t.family == "B":
        return [sub(e(i, n), e(i + 1, n)) for i in range(n - 1)] + [e(n - 1, n)]
    if t.family == "D":
        return [sub(e(i, n), e(i + 1, n)) for i in range(n - 1)] + [add(e(n - 2, n), e(n - 1, n))]
    if t.family == "G":
        return [sub(e(0, 3), e(1, 3)), [F(-2), F(1), F(1)]]
    if t.family == "F":
        return [
            sub(e(1, 4), e(2, 4)),
            sub(e(2, 4), e(3, 4)),
            e(3, 4),
            [F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2)],
        ]
    # E6, E7, E8 share the E8 coordinates; alpha_i = e_{i-1} - e_{i-2} for i >= 3
    dim = 8
    alpha1 = [F(1, 2), *([F(-1, 2)] * 6), F(1, 2)]
    alpha2 = add(e(0, dim), e(1, dim))
    rest = [sub(e(i - 2, dim), e(i - 3, dim)) for i in range(3, 9)]
    roots = [alpha1, alpha2] + rest
    return roots[:n]


def _dot(a, b) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


def coordinate_reflection_matrices(t: RootSystemType) -> list[list[list[int]]]:
    """Simple reflections in the simple-root basis (integer Cartan entries)."""
    roots = simple_roots(t)
    n = t.rank
    mats = []
    for i in range(n):
        m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        for j in range(n):
            cij = 2 * _dot(roots[i], roots[j]) / _dot(roots[i], roots[i])
            if cij.denominator != 1:
                raise ParseError("non-integral Cartan entry")
            m[i][j] -= int(cij)
        mats.append(m)
    return mats


def _is_negative_matrix(mat) -> bool:
    return all(x <= 0 for row in mat for x in row)


def scanned_w0(g) -> int:
    """The unique element of a closed Weyl group sending every simple root to
    a negative root, found by testing every element's matrix."""
    w0s = [i for i in range(g.order) if _is_negative_matrix(g.element_data[i])]
    if len(w0s) != 1:
        raise ParseError("longest element is not unique")
    return w0s[0]


# ---------------------------------------------------------------------------
# the printed Schur multipliers of the Weyl groups, which the closed-field H^2
# of W is compared against


def literature_schur_multiplier(t: RootSystemType) -> tuple[int, ...]:
    fam, n = t.family, t.rank
    if fam == "A":
        return () if n <= 2 else (2,)
    if fam == "B":
        return (2,) if n == 2 else ((2, 2) if n == 3 else (2, 2, 2))
    if fam == "D":
        return (2, 2, 2) if n == 4 else (2, 2)
    if fam == "E":
        return (2,)
    if fam == "F":
        return (2, 2)
    return (2,)  # G2


# ---------------------------------------------------------------------------
# dense representatives rebuilt from edge labels, inflation, restriction,
# transgression, and the portable documents of a group and a cochain: the
# tests check Hochschild-Serre exactness and the round trips with them


def reconstruct(sys, labels: np.ndarray, modulus: int) -> np.ndarray:
    """The cochain with edge labels `labels` (n |S|,) vanishing on the
    tree: sigma(g, x s) = sigma(g, x) + T(g x, s) on each tree edge x s,
    for all the edges of one BFS level at once (rows out[y] = sigma(., y)).
    Each step is reduced, so labels in [0, modulus), modulus < 2^62, stay
    exact in int64.  `sys` is the group's presentation."""
    g = sys.group
    n, m = g.order, len(g.gens)
    mul = np.asarray(g.mul)
    edges = np.array(g.tree, dtype=np.int64).reshape(-1, 3)
    depth = np.array([len(g.word(y)) for y in edges[:, 2]], dtype=np.int64)
    out = np.zeros((n, n), dtype=np.int64)
    for d in range(1, depth.max(initial=0) + 1):
        x, k, y = edges[depth == d].T
        out[y] = (out[x] + labels[mul[:, x].T * m + k[:, None]]) % modulus
    return np.ascontiguousarray(out.T)


def rep_of_coords(cg: CohomologyGroup, coords) -> Cochain2:
    """sum_i c_i rep_i, rebuilt once mod N from its labels."""
    if cg._sys is None:
        return Cochain2(cg.group, cg.coeff.n, np.zeros((cg.group.order, cg.group.order), dtype=np.int64))
    return Cochain2(cg.group, cg.coeff.n, reconstruct(cg._sys, cg.labels_of_coords(coords), cg.coeff.n))


def representative(cls: CohomologyClass) -> Cochain2:
    return rep_of_coords(cls.parent, cls.coords)


def reps(cg: CohomologyGroup) -> list[Cochain2]:
    """One representative per invariant factor."""
    return [representative(c) for c in cg.generators()]


def to_sparse(sigma: Cochain2) -> dict:
    """The modulus, the order and the nonzero values: "entries" is a k x 3
    int64 array of rows [i, j, value]."""
    ii, jj = np.nonzero(sigma.values)
    return {
        "modulus": sigma.modulus,
        "order": sigma.group.order,
        "entries": np.column_stack((ii, jj, sigma.values[ii, jj])),
    }


def cochain_from_labels(group: FiniteGroup, doc: dict) -> Cochain2:
    """The cochain of a report's class document {"modulus", "labels"}, its
    |G| x |S| edge labels rebuilt along the BFS tree of `group`."""
    n = CoefficientModule(int(doc["modulus"])).n
    labels = np.asarray(doc["labels"], dtype=np.int64)
    if labels.shape != (group.order, len(group.gens)):
        raise ParseError(f"labels of shape {labels.shape} on a group of order {group.order} "
                         f"with {len(group.gens)} generators")
    return Cochain2(group, n, reconstruct(_presentation(group), labels.ravel() % n, n))


def _embed_values(vals: np.ndarray, src_mod: int, dst_mod: int) -> np.ndarray:
    """Push Z_m values into Z_M along mu_m -> mu_M (requires m | M)."""
    if dst_mod == src_mod:
        return vals
    if dst_mod % src_mod:
        raise ParseError("coefficients do not embed into the target module")
    return vals * (dst_mod // src_mod)


def inflation(qd: QuotientData, cls: CohomologyClass, target: CohomologyGroup | None = None) -> CohomologyClass:
    """Pull a class on G/U back to G through the projection."""
    if cls.parent.group is not qd.quotient:
        raise ParseError("class does not live on the quotient group")
    if target is None:
        if cls.parent.field_mode == "closed":
            target = h2_closed_field(qd.group)
        else:
            target = h2(qd.group, cls.parent.coeff)
    rep = representative(cls)
    proj = np.asarray(qd.projection)
    vals = _embed_values(rep.values[np.ix_(proj, proj)], rep.modulus, target.coeff.n)
    return target.class_of(Cochain2(qd.group, target.coeff.n, vals))


def u_subgroup(inv: CentralInvolution) -> tuple[FiniteGroup, np.ndarray]:
    """U = {1, u} as a standalone group plus its embedding into G.

    Memoized per (group, u) so repeated calls share one group instance and
    its memo.  The embedding lists the identity first: element 0 of U is 1.
    """
    g = inv.group
    embed = np.array([g.identity] if inv.is_trivial else [g.identity, inv.u], dtype=np.int64)
    return g.memo(("u_subgroup", inv.u), lambda: (cyclic_group(len(embed)), embed))


def restriction(inv: CentralInvolution, cls: CohomologyClass, target: CohomologyGroup | None = None) -> CohomologyClass:
    """Restrict a class on G to U = {1, u}."""
    if cls.parent.group is not inv.group:
        raise ParseError("class does not live on the ambient group")
    ugroup, embed = u_subgroup(inv)
    rep = representative(cls)
    if target is None:
        if cls.parent.field_mode == "closed":
            target = h2_closed_field(ugroup, modulus=rep.modulus)
        else:
            target = h2(ugroup, cls.parent.coeff)
    vals = _embed_values(rep.values[np.ix_(embed, embed)], rep.modulus, target.coeff.n)
    return target.class_of(Cochain2(ugroup, target.coeff.n, vals))


def transgression(
    f: GroupCharacter,
    qd: QuotientData,
    target: CohomologyGroup | None = None,
    section: np.ndarray | None = None,
) -> CohomologyClass:
    """T(f)(x, y) = f(phi(x) phi(y) phi(xy)^{-1}) for a section phi of G -> G/U."""
    g = qd.group
    q = qd.quotient
    if f.group.order != 2:
        raise ParseError("transgression input must be a character of U = {1, u}")
    sec = qd.section if section is None else np.asarray(section, dtype=np.int64)
    proj = np.asarray(qd.projection)
    if (proj[sec] != np.arange(q.order)).any():
        raise ParseError("section is not a section of the projection")
    mul, invt = np.asarray(g.mul), np.asarray(g.inv)
    w = mul[mul[np.ix_(sec, sec)], invt[sec[np.asarray(q.mul)]]]
    uval = np.zeros(g.order, dtype=np.int64)
    uval[qd.involution.u] = f(1)
    if target is None:
        target = h2(q, CoefficientModule(f.target_order))
    vals = _embed_values(uval[w], f.target_order, target.coeff.n)
    return target.class_of(Cochain2(q, target.coeff.n, vals))


def serialize_group(g: FiniteGroup) -> dict:
    """Portable table form including the element indexing header."""
    return {
        "kind": "table",
        "table": np.asarray(g.mul).tolist(),
        "identity": int(g.identity),
        "order": g.order,
        "generators_idx": [int(x) for x in g.gens],
        "labels": g.element_labels,
    }


def cochain_from_sparse(group: FiniteGroup, data: dict) -> Cochain2:
    """Inverse of to_sparse; ParseError on any malformed document."""
    try:
        n = CoefficientModule(int(data["modulus"])).n
        order = int(data.get("order", group.order))
        entries = [[int(x) for x in entry] for entry in data["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed sparse cochain: {exc}") from exc
    if order != group.order:
        raise ParseError("cocycle order does not match the group")
    vals = np.zeros((group.order, group.order), dtype=np.int64)
    for entry in entries:
        if len(entry) != 3 or not (0 <= entry[0] < order and 0 <= entry[1] < order):
            raise ParseError(f"sparse cochain entry {entry} is not [i, j, value] with 0 <= i, j < {order}")
        vals[entry[0], entry[1]] = entry[2] % n
    return Cochain2(group, n, vals)


def cochain_equals(sigma: Cochain2, other: Cochain2) -> bool:
    """Whether two cochains live on one group and modulus with equal values."""
    return (
        sigma.group is other.group
        and sigma.modulus == other.modulus
        and bool((sigma.values == other.values).all())
    )
