"""G-invariant symmetric bilinear forms over exact rationals.

No floating point anywhere: representations carry Fraction matrices and the
space of invariant forms is the exact nullspace of the generator constraints
rho(s)^t Sigma rho(s) - Sigma = 0 inside the symmetric coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .groups import CentralInvolution, FiniteGroup, Matrix, _det, _mat_identity, _mat_mul, _row_reduce, parse_rational


def as_matrix(rows) -> Matrix:
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ParseError("matrix must be a list of rows")
    m = tuple(tuple(parse_rational(x) for x in row) for row in rows)
    if any(len(r) != len(m) for r in m):
        raise ParseError("matrix must be square")
    return m


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def mat_transpose(a: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def is_symmetric(a: Matrix) -> bool:
    return a == mat_transpose(a)


@dataclass(eq=False)
class Representation:
    """Exact rational matrix representation, defined on the group generators."""

    group: FiniteGroup
    dim: int
    gen_matrices: list[Matrix]

    def __post_init__(self) -> None:
        if len(self.gen_matrices) != len(self.group.gens):
            raise ParseError("one matrix per group generator required")
        for m in self.gen_matrices:
            if len(m) != self.dim or any(len(r) != self.dim for r in m):
                raise ParseError("representation matrices must be dim x dim")
        self._elements: list[Matrix | None] = [None] * self.group.order
        self._elements[self.group.identity] = _mat_identity(self.dim)
        self._fill_by_words()
        self._check_homomorphism()

    def _fill_by_words(self) -> None:
        g = self.group
        for x in range(g.order):
            m = _mat_identity(self.dim)
            for k in g.words[x]:
                m = _mat_mul(m, self.gen_matrices[k])
            self._elements[x] = m

    def _check_homomorphism(self) -> None:
        g = self.group
        for x in range(g.order):
            for k, s in enumerate(g.gens):
                xs = int(g.mul[x, s])
                if _mat_mul(self._elements[x], self.gen_matrices[k]) != self._elements[xs]:
                    raise ParseError("generator matrices are not compatible with the group")

    def matrix(self, x: int) -> Matrix:
        return self._elements[x]

    def is_faithful(self) -> bool:
        return len({self._elements[x] for x in range(self.group.order)}) == self.group.order


def acts_as_minus_one(rep: Representation, inv: CentralInvolution) -> bool:
    """True iff rho(u) is exactly -identity."""
    if inv.group is not rep.group:
        raise ParseError("involution and representation live on different groups")
    return rep.matrix(inv.u) == mat_neg(_mat_identity(rep.dim))


@dataclass(eq=False)
class SymFormSpace:
    """Basis of the invariant symmetric forms, in reduced row-echelon shape."""

    rep: Representation
    basis: list[Matrix]

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


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Canonical nullspace basis: free coordinate set to 1, echelon back-substitution."""
    red, pivot_cols, _ = _row_reduce(rows)
    free = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, c in zip(red, pivot_cols):
            vec[c] = -row[fc]
        basis.append(vec)
    return basis


def invariant_symmetric_forms(rep: Representation, verify_limit: int = 200) -> SymFormSpace:
    """Nullspace of rho(s)^t Sigma rho(s) = Sigma over the generators.

    Generator-level invariance implies invariance under the whole group;
    this is re-verified element by element when |G| <= verify_limit.
    """
    d = rep.dim
    pairs = _sym_coords(d)
    rows: list[list[Fraction]] = []
    for m in rep.gen_matrices:
        for a in range(d):
            for b in range(a, d):
                row = []
                for (i, j) in pairs:
                    # coefficient of Sigma_ij in (M^t Sigma M - Sigma)_ab
                    v = m[i][a] * m[j][b]
                    if i != j:
                        v += m[j][a] * m[i][b]
                    if (i, j) == (a, b):
                        v -= 1
                    row.append(v)
                rows.append(row)
    basis_vecs = _row_reduce(_nullspace(rows, len(pairs)))[0]
    basis = [_sym_from_coords(d, v) for v in basis_vecs]
    if rep.group.order <= verify_limit:
        for sig in basis:
            for x in range(rep.group.order):
                m = rep.matrix(x)
                if _mat_mul(_mat_mul(mat_transpose(m), sig), m) != sig:
                    raise ParseError("generator-invariant form not group-invariant")
    return SymFormSpace(rep=rep, basis=basis)


def is_invariant_form(rep: Representation, sigma: Matrix) -> bool:
    """Generator-level check rho(s)^t Sigma rho(s) = Sigma."""
    for m in rep.gen_matrices:
        if _mat_mul(_mat_mul(mat_transpose(m), sigma), m) != sigma:
            return False
    return True


def leading_principal_minors_positive(sigma: Matrix) -> bool:
    """Sylvester check on sigma or -sigma (congruent-to-definite sanity)."""
    for cand in (sigma, mat_neg(sigma)):
        ok = True
        n = len(cand)
        for k in range(1, n + 1):
            sub = [row[:k] for row in cand[:k]]
            if _det(sub) <= 0:
                ok = False
                break
        if ok:
            return True
    return False
