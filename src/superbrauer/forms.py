"""G-invariant symmetric bilinear forms over exact rationals.

No floating point anywhere: representations carry exact rational matrices
and the space of invariant forms is the exact nullspace of the generator
constraints rho(s)^t Sigma rho(s) - Sigma = 0 inside the symmetric
coordinates, on integers: N^t Sigma N = d^2 Sigma for rho(s) = N / d.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, Int64Exceeded, NotInvertible, ParseError
from .groups import (CentralInvolution, FiniteGroup, Matrix, _close_bfs, _close_matrices, _mat_identity, _mat_mul,
                     _row_reduce, parse_rational)


def as_matrix(rows) -> Matrix:
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ParseError("matrix must be a list of rows")
    m = tuple(tuple(parse_rational(x) for x in row) for row in rows)
    if any(len(r) != len(m) for r in m):
        raise ParseError("matrix must be square")
    return m


def numerators(mats: list[Matrix]) -> tuple[np.ndarray, int]:
    """(N, d): the matrices as one K x n x n array of integer numerators over
    their least common denominator d (Python ints, dtype=object)."""
    flat = [x for m in mats for row in m for x in row]
    d = math.lcm(*{x.denominator for x in flat})
    n = len(mats[0])
    return np.array([x.numerator * (d // x.denominator) for x in flat], dtype=object).reshape(len(mats), n, n), d


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def is_symmetric(a: Matrix) -> bool:
    return a == tuple(zip(*a))


class Representation:
    """Exact rational matrix representation, defined on the group generators.
    Its image is the closure of the generator matrices; x maps to the image
    element its BFS-tree path reaches, and rho(x) rho(s) = rho(xs) is checked."""

    def __init__(self, group: FiniteGroup, dim: int, gen_matrices: list[Matrix]) -> None:
        self.group = g = group
        self.dim = dim
        self.gen_matrices = gen_matrices
        if len(gen_matrices) != len(g.gens):
            raise ParseError("one matrix per group generator required")
        for m in gen_matrices:
            if len(m) != dim or any(len(r) != dim for r in m):
                raise ParseError("representation matrices must be dim x dim")
        try:
            self._image, right, _ = _closure(gen_matrices, dim, g.order)
        except (CapExceeded, NotInvertible) as exc:
            raise ParseError("generator matrices are not compatible with the group") from exc
        steps, index = right.tolist(), [0] * g.order
        for x, k, y in g.tree:
            index[y] = steps[index[x]][k]
        self._index = np.array(index, dtype=np.int64)
        if not (self._index[np.asarray(g.mul)[:, list(g.gens)]] == right[self._index]).all():
            raise ParseError("generator matrices are not compatible with the group")

    def matrix(self, x: int) -> Matrix:
        return self._image[int(self._index[x])]

    def is_faithful(self) -> bool:
        return len(self._image) == self.group.order


def _closure(gen_matrices: list[Matrix], dim: int, cap: int):
    """_close_matrices within the cap |G|; integer generators that its int64
    guard refuses are closed again in Python ints, at a cost the cap bounds."""
    try:
        return _close_matrices(gen_matrices, dim, cap)
    except Int64Exceeded:  # only integer generators reach the guard
        gens = [tuple(tuple(int(parse_rational(x)) for x in row) for row in m) for m in gen_matrices]
        return _close_bfs(gens, _mat_mul, _mat_identity(dim, 1), cap)


def acts_as_minus_one(rep: Representation, inv: CentralInvolution) -> bool:
    """True iff rho(u) is exactly -identity."""
    if inv.group is not rep.group:
        raise ParseError("involution and representation live on different groups")
    return rep.matrix(inv.u) == mat_neg(_mat_identity(rep.dim))


class SymFormSpace:
    """Basis of the invariant symmetric forms, in reduced row-echelon shape."""

    def __init__(self, rep: Representation, basis: list[Matrix]) -> None:
        self.rep = rep
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)


def _sym_coords(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _sym_from_coords(dim: int, vec: list[Fraction]) -> Matrix:
    pairs = _sym_coords(dim)
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, j), v in zip(pairs, vec):
        m[i][j] = v
        m[j][i] = v
    return tuple(tuple(row) for row in m)


def _nullspace(rows: list[list[int]], ncols: int) -> list[list[Fraction]]:
    """Canonical nullspace basis: free coordinate set to 1, echelon back-substitution."""
    red, pivot_cols = _row_reduce(rows)
    free = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, c in zip(red, pivot_cols):
            vec[c] = -row[fc]
        basis.append(vec)
    return basis


def invariant_symmetric_forms(rep: Representation) -> SymFormSpace:
    """Nullspace of rho(s)^t Sigma rho(s) = Sigma over the generators.

    The representation is a verified homomorphism, so invariance under the
    generators is invariance under the whole group; each basis form is
    re-checked at generator level.
    """
    pairs = _sym_coords(rep.dim)
    rows: list[list[int]] = []
    for m in rep.gen_matrices:
        num, d = numerators([m])
        n = num[0].tolist()
        for a, b in pairs:
            # coefficient of Sigma_ij in d^2 (M^t Sigma M - Sigma)_ab = (N^t Sigma N - d^2 Sigma)_ab
            rows.append([n[i][a] * n[j][b] + (n[j][a] * n[i][b] if i != j else 0) - (d * d if (i, j) == (a, b) else 0)
                         for i, j in pairs])
    basis = [_sym_from_coords(rep.dim, v) for v in _row_reduce(_nullspace(rows, len(pairs)))[0]]
    if not all(is_invariant_form(rep, sig) for sig in basis):
        raise ParseError("invariant form basis fails the generator check")
    return SymFormSpace(rep=rep, basis=basis)


def is_invariant_form(rep: Representation, sigma: Matrix) -> bool:
    """Generator-level check rho(s)^t Sigma rho(s) = Sigma, as N^t S N = d^2 S for Sigma = S / e."""
    s = numerators([sigma])[0][0]
    gens = (numerators([m]) for m in rep.gen_matrices)
    return all((n.T @ s @ n == d * d * s).all() for (n,), d in gens)

