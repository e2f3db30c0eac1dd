"""Independent brute-force oracles for the tests.

The cohomology oracles work on the full dense normalized bar system with
plain Gaussian elimination or integer Smith normal form; the cocycle test
runs over all triples; the invariant factors of an abelian Cayley table come
from order statistics; the determinant is the Leibniz expansion; the lazy
cocycle lambda is filled entry by entry.  None of it shares code with the
production pipeline, except the sharp-table enumeration, which multiplies
every pair of class representatives with the production `sharp` and
`class_of` instead of deriving the table from the twist classes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from superbrauer import sharp


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
    m = table.shape[0]
    orders = []
    for x in range(m):
        k, y = 1, x
        while y != ident:
            y = int(table[y, x])
            k += 1
        orders.append(k)
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
