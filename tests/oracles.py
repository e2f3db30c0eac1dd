"""Independent brute-force oracles for the tests.

The cohomology oracles work on the full dense normalized bar system with
plain Gaussian elimination or integer Smith normal form; the cocycle test
runs over all triples; the invariant factors of an abelian Cayley table come
from order statistics, and those of G^ab from the coset table of the
commutator subgroup and a greedy basis; the determinant is the Leibniz
expansion; the lazy cocycle lambda is filled entry by entry.  None of it shares code with the
production pipeline, except the sharp-table enumeration, which multiplies
every pair of class representatives with the production `sharp` and
`class_of` instead of deriving the table from the twist classes, and the BM
and Q(k, G) enumerations, which multiply element tuples one cell at a time
on top of it (markers from each class representative, one pairing `class_of`
per cell) instead of deriving the tables from generating data.  The Hopf-side
oracles use only the algebra's structure constants and its `H (x) H`
product: the cocycle and lazy checks expand both coproducts and the product
for every basis tuple, the R-matrix legs are multiplied in H (x) H (x) H, and
the Hopf axioms and `R Delta = Delta^op R` are checked on every basis pair or
element (on the production's seeded sample above the dim budget) instead of
on the algebra generators.  `factor_coproduct` and `product_antipode` multiply
Delta and S out from their values on the generators, and `det_signed_minors`
takes one Gauss-Jordan determinant per minor, where the production writes
Delta and S in closed form and reads every minor off one exterior power.  `uncleared_r_checks` checks the R-matrix
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
(it shares `_cycle_edges` with the production); `presentation_unknowns`
selects those labels.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from superbrauer import (
    CohomologyClass,
    Cochain2,
    all_characters,
    quaternion_symbol,
    quotient_by_central_involution,
    restriction_square_class,
    sharp,
    splitting_character,
)
from superbrauer.cohomology import _cycle_edges
from superbrauer.errors import BudgetExceeded, ParseError
from superbrauer.groups import _det
from superbrauer.modlinalg import SnfMod, _val, _val_matrix, inverse_mod, kernel_mod
from superbrauer.supergroup import (
    DEFAULT_DIM_BUDGET,
    SAMPLED_TRIPLES,
    VerifyReport,
    _cop_tensor,
    _exact,
    _tns_add,
    tensor_flip,
    tensor_mul,
)


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
    M = (np.array(M, dtype=np.int64) % p).tolist()
    if not M:
        return 0
    rows, cols = len(M), len(M[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c] % p), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [(x * inv) % p for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] % p:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        r += 1
        if r == rows:
            break
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


def factor_coproduct(h, b):
    """Delta(g v_P) multiplied out factor by factor: (g x g) times v_i x 1 + u x v_i
    for each i in P, in increasing order, with the algebra's products."""
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
                d = _det([[a[i][j] for j in Q] for i in P])
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


def enumerated_sharp_table(cg, inv):
    """The sharp Cayley table on cg.all_classes(), one full sharp product and
    one class_of per cell."""
    classes = list(cg.all_classes())
    reps = [c.representative() for c in classes]
    index = {c.coords: i for i, c in enumerate(classes)}
    table = np.zeros((len(classes), len(classes)), dtype=np.int32)
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            table[i, j] = index[cg.class_of(sharp(x, y, inv)).coords]
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
    markers = [restriction_square_class(inv, c.representative()) if field.kind == "real" else 0 for c in classes]
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
    rng = random.Random(seed)
    return [tuple(rng.randrange(h.dim) for _ in range(arity)) for _ in range(SAMPLED_TRIPLES)], True


def four_loop_cocycle_check(sigma, right=False, budget=DEFAULT_DIM_BUDGET, seed=0):
    """(check, passed, detail, counterexample, sampled) of the left (or right)
    cocycle equation, expanding both coproducts and the product per triple."""
    h = sigma.algebra
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
    h = sigma.algebra
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


def all_pairs_verify_hopf(h, budget=DEFAULT_DIM_BUDGET, seed=0):
    """The per-pair Hopf check: counit, antipode and coassociativity laws on
    every basis element met, and Delta(ab) = Delta(a)Delta(b) on all pairs
    while dim <= budget, else on the seeded sample of pairs."""
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
        word = g.words[h]
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
    for x in sorted(range(g.order), key=lambda y: len(g.words[y])):
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
    for y in sorted(range(g.order), key=lambda y: len(g.words[y])):
        word = g.words[y]
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
        ids, signs = _cycle_edges(g, r)
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
