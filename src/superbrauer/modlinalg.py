"""Exact linear algebra over Z/q for prime powers q = p**e.

Gaussian elimination is valid over the local ring Z/p**e as long as every
pivot has minimal p-valuation in the remaining block: such an entry divides
every other entry, so all eliminations are exact.  Diagonalizing with
tracked transforms gives kernels, solutions of linear systems and cokernel
invariants, which is everything the cohomology pipeline needs.
"""

from __future__ import annotations

import math

import numpy as np


def prime_power_factors(n: int) -> list[tuple[int, int]]:
    """Factor n > 0 into [(p, e), ...] with p ascending."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def inverse_mod(a: int, q: int) -> int:
    return pow(int(a), -1, q)


class SnfMod:
    """Diagonalization D = L @ M @ R over Z/q with invertible L, R."""

    def __init__(self, p: int, e: int, diag: list[int], rows: int, cols: int, L: np.ndarray | None,
                 Linv: np.ndarray | None, R: np.ndarray | None) -> None:
        self.p = p
        self.e = e
        self.diag = diag  # pivot valuations a_i, diagonal entries are p**a_i
        self.rows = rows
        self.cols = cols
        self.L = L
        self.Linv = Linv
        self.R = R

    @property
    def q(self) -> int:
        return self.p**self.e


def snf_mod(
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
        # pivot search: unit in the current column, else the first entry of
        # least valuation v, the first one not divisible by p**(v + 1)
        colunits = (A[s:, s] % p) != 0
        if colunits.any():
            i, j, v = s + int(np.argmax(colunits)), s, 0
        else:
            block = A[s:, s:]
            if not block.any():
                break
            v = next(v for v in range(e) if (block % p ** (v + 1)).any())
            bi, bj = divmod(int(np.argmax(block % p ** (v + 1) != 0)), cols - s)
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
        u = int(A[s, s]) // p**v
        if u != 1:
            uinv = inverse_mod(u, q)
            A[s, s:] = (A[s, s:] * uinv) % q
            if L is not None:
                L[s, :] = (L[s, :] * uinv) % q
            if Linv is not None:
                Linv[:, s] = (Linv[:, s] * u) % q
        piv = p**v
        # row step: only rows with A[i, s] != 0 and the pivot row's nonzero
        # columns change; every other entry would only gain a zero
        ri = s + 1 + np.flatnonzero(A[s + 1 :, s])
        if len(ri):
            m = A[ri, s] // piv  # exact: the pivot has minimal valuation in its column
            cj = s + np.flatnonzero(A[s, s:])
            blk = np.ix_(ri, cj)
            A[blk] = (A[blk] - np.outer(m, A[s, cj])) % q
            if L is not None:
                L[ri, :] = (L[ri, :] - np.outer(m, L[s, :])) % q
            if Linv is not None:
                Linv[:, s] = (Linv[:, s] + Linv[:, ri] @ m) % q
        # column step: column s is now zero below the pivot and row s is never
        # read again, so only R changes
        cj = s + 1 + np.flatnonzero(A[s, s + 1 :])
        if R is not None and len(cj):
            R[:, cj] = (R[:, cj] - np.outer(R[:, s], A[s, cj] // piv)) % q
        diag.append(v)
    return SnfMod(p=p, e=e, diag=diag, rows=rows, cols=cols, L=L, Linv=Linv, R=R)


def kernel_from_snf(snf: SnfMod) -> np.ndarray:
    """Generators (as columns) of the kernel, from a diagonalization with R."""
    p, e, q = snf.p, snf.e, snf.q
    cols = snf.cols
    gens = []
    eye = np.eye(cols, dtype=np.int64)
    for i, a in enumerate(snf.diag):
        if a > 0:
            gens.append(p ** (e - a) * eye[:, i])
    for i in range(len(snf.diag), cols):
        gens.append(eye[:, i])
    if not gens:
        return np.zeros((cols, 0), dtype=np.int64)
    return (snf.R @ np.stack(gens, axis=1)) % q


def kernel_mod(M: np.ndarray, p: int, e: int) -> np.ndarray:
    """Generators (as columns) of {x : M x = 0 over Z/p**e}."""
    return kernel_from_snf(snf_mod(M, p, e, want_r=True))


def solve_from_snf(snf: SnfMod, B: np.ndarray) -> np.ndarray | None:
    """One solution X of M X = B from a diagonalization of M with L and R."""
    q = snf.q
    B = np.asarray(B, dtype=np.int64) % q
    single = B.ndim == 1
    if single:
        B = B[:, None]
    C = (snf.L @ B) % q
    r = len(snf.diag)
    Y = np.zeros((snf.cols, B.shape[1]), dtype=np.int64)
    for i in range(r):
        piv = snf.p ** snf.diag[i]
        if (C[i, :] % piv).any():
            return None
        Y[i, :] = (C[i, :] // piv) % q
    if r < snf.rows and C[r:, :].any():
        return None
    X = (snf.R @ Y) % q
    return X[:, 0] if single else X


class CokernelData:
    """Z_q**z / colspan(P) as a sum of its nontrivial cyclic factors, largest
    first: x has coordinates (L @ x) mod orders, and column i of Linv is a
    preimage of the generator of factor i."""

    def __init__(self, p: int, e: int, orders: tuple[int, ...], L: np.ndarray, Linv: np.ndarray) -> None:
        self.p = p
        self.e = e
        self.orders = orders
        self.L = L  # (k, z)
        self.Linv = Linv  # (z, k)

    def class_coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of x (z,), or of each row of x (m, z)."""
        return (np.asarray(x, dtype=np.int64) % self.p**self.e @ self.L.T) % np.array(self.orders, dtype=np.int64)


def cokernel_mod(P: np.ndarray, p: int, e: int) -> CokernelData:
    """Invariants of Z_q**z modulo the column span of P (z x t)."""
    snf = snf_mod(P, p, e, want_l=True, want_linv=True)
    vals = snf.diag + [e] * (snf.rows - len(snf.diag))
    sel = sorted((i for i, a in enumerate(vals) if a > 0), key=lambda i: -vals[i])
    return CokernelData(p=p, e=e, orders=tuple(p ** vals[i] for i in sel), L=snf.L[sel], Linv=snf.Linv[:, sel])


def crt(residues, moduli):
    """The x in [0, prod(moduli)) with x = r mod q for each residue r (an int
    or an int array) and modulus q, the moduli pairwise coprime (Garner)."""
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        x = x + m * ((r - x) * inverse_mod(m, q) % q)
        m *= q
    return x


def direct_sum(parts) -> tuple[tuple[int, ...], list]:
    """Invariant factors, largest first, and coordinates of a direct sum of
    finite abelian groups of coprime orders, each part given as (its factor
    orders largest first, coordinates (..., len(orders))): factor i of the
    sum is the product of the parts' factors i, its coordinate their CRT."""
    depth = max((len(orders) for orders, _ in parts), default=0)
    factors = [[(orders[i], c[..., i]) for orders, c in parts if i < len(orders)] for i in range(depth)]
    return (tuple(math.prod(q for q, _ in f) for f in factors),
            [crt([c for _, c in f], [q for q, _ in f]) for f in factors])
