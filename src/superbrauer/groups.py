"""Finite groups as multiplication tables, built by generator closure.

Element indexing is deterministic: breadth-first from the identity, taking
generators in the order given and multiplying on the right.  Every group
carries a generating set and the BFS spanning tree; the cohomology and forms
modules rely on them.  A closure keeps only x * s for each element x and
generator s; the table follows, because x * j = (x * p) * s when j was first
reached as p * s, and one BFS gives generators and tree.  The BFS word of an
element is read off the tree on demand.  Everything else derived from a
group (G^ab, G/U, the presentation, H^2) is built once and kept in its memo.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import CapExceeded, Int64Exceeded, NotInvertible, ParseError, TrivialInvolution
from .modlinalg import cokernel_mod, direct_sum, prime_power_factors

DEFAULT_CAP = 200_000
DEFAULT_H2_BUDGET = 150_000  # bound on (|G|-1)^2 for one H^2 solve
ENUMERATION_BUDGET = 2**12  # bound on the classes a sharp/BM/Q group enumerates
MAX_TABLE_ORDER = 20_000  # largest group whose n x n multiplication table is built

Matrix = tuple[tuple[Fraction, ...], ...]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_identity(n: int, one=Fraction(1)) -> Matrix:
    return tuple(tuple(one if i == j else one - one for j in range(n)) for i in range(n))


def _row_reduce(rows) -> tuple[list[list[Fraction]], list[int]]:
    """The nonzero rows of the reduced row echelon form of a rational matrix and
    their pivot columns, by fraction-free Gauss-Jordan (Bareiss) on the rows
    scaled to integers: at pivot p each other row becomes (p row - entry pivot row)
    / p' for the previous pivot p', exactly, so the pivot rows end on the last pivot."""
    out = [[x.numerator * (m // x.denominator) for x in row]
           for row in rows for m in [math.lcm(*(x.denominator for x in row))]]
    ncols = len(out[0]) if out else 0
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        lead = len(pivots)
        if lead == len(out):
            break
        piv = next((r for r in range(lead, len(out)) if out[r][c]), None)
        if piv is None:
            continue
        out[lead], out[piv] = out[piv], out[lead]
        top, p = out[lead], out[lead][c]
        out = [row if r == lead else [(p * x - row[c] * y) // prev for x, y in zip(row, top)]
               for r, row in enumerate(out)]
        prev = p
        pivots.append(c)
    return [[Fraction(x, prev) for x in row] for row in out[:len(pivots)]], pivots


def _mat_rank(m) -> int:
    return len(_row_reduce(m)[1])


def bfs_tree(right: np.ndarray, identity: int = 0) -> list[tuple[int, int, int]]:
    """The edges (x, k, x s_k) that first reach each element from `identity`
    by right multiplication, in BFS order, from the generator columns
    right[x, k] = x s_k; the tree spans the group iff it has order - 1 edges."""
    rows = right.tolist()
    reached = {identity}
    tree = []
    queue = [identity]
    for x in queue:  # the queue grows while it is read
        for k, y in enumerate(rows[x]):
            if y not in reached:
                reached.add(y)
                tree.append((x, k, y))
                queue.append(y)
    return tree


class FiniteGroup:
    """Multiplication-table group with 0-based element indices."""

    def __init__(self, order: int, mul: np.ndarray, inv: np.ndarray, identity: int = 0,
                 element_labels: list[str] | None = None, gens: tuple[int, ...] = (),
                 element_data: list | None = None, kind: str = "table") -> None:
        self.order = order
        self.mul = mul  # (order, order) int32
        self.inv = inv  # (order,) int32
        self.identity = identity
        self.element_labels = element_labels
        self.gens = gens
        self.element_data = element_data  # permutation tuples or rational matrices
        self.kind = kind
        self._memo: dict = {}
        # BFS-tree edges (x, k, x s_k), parents first
        self.tree = bfs_tree(mul[:, list(gens)], identity) if gens else self._choose_generators()
        if len(self.tree) != order - 1:
            raise ParseError("generators do not generate the group")

    def memo(self, key, build):
        """The structure derived from this group under `key`, built by
        build() on the first call and shared by every later one."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def word(self, x: int) -> tuple[int, ...]:
        """The BFS word of x, read backwards off the Schreier vector: the tree
        edge (p, k, y) that first reached each element y, built once."""
        edge = self.memo("schreier", lambda: {e[2]: e for e in self.tree})
        out = []
        while x != self.identity:
            x, k, _ = edge[x]
            out.append(k)
        return tuple(out[::-1])

    def _choose_generators(self) -> list[tuple[int, int, int]]:
        """Greedy small generating set for table-built groups; returns its BFS tree."""
        gens, tree, reached = [], [], {self.identity}
        for x in range(self.order):
            if x not in reached:
                gens.append(x)
                tree = bfs_tree(self.mul[:, gens], self.identity)
                reached.update(y for _, _, y in tree)
        self.gens = tuple(gens)
        return tree

    def word_to_element(self, word: list[int] | tuple[int, ...]) -> int:
        x = self.identity
        for k in word:
            if not 0 <= k < len(self.gens):
                raise ParseError(f"generator index {k} out of range")
            x = int(self.mul[x, self.gens[k]])
        return x

    def is_central(self, g: int) -> bool:
        return bool((self.mul[g, :] == self.mul[:, g]).all())

    def check_axioms(self) -> None:
        """Identity, inverse and associativity laws; raises ParseError on failure.

        Associativity is Light's test: (x s) y = x (s y) for every generator s.
        The elements a with (x a) y = x (a y) for all x, y contain the identity
        and are closed under products, and the BFS words reach every element
        from the identity by right multiplication with generators, so the
        test is exact at O(|G|^2 |S|).
        """
        n = self.order
        mul, e = self.mul, self.identity
        if not ((mul[e, :] == np.arange(n)).all() and (mul[:, e] == np.arange(n)).all()):
            raise ParseError("identity law fails")
        if not ((mul[np.arange(n), self.inv] == e).all() and (mul[self.inv, np.arange(n)] == e).all()):
            raise ParseError("inverse law fails")
        for s in self.gens:
            for lo in range(0, n, 256):  # row blocks keep the temporaries small
                if not (mul[mul[lo:lo + 256, s], :] == np.take(mul[lo:lo + 256], mul[s, :], axis=1)).all():
                    raise ParseError("associativity fails")


def _admit(j: int, cap: int) -> None:
    """Refuse element index j of a closure once min(cap, MAX_TABLE_ORDER) are in."""
    if j >= min(cap, MAX_TABLE_ORDER):
        raise CapExceeded(f"closure exceeded cap {cap}" if cap <= MAX_TABLE_ORDER
                          else f"closure passed the {MAX_TABLE_ORDER}-element multiplication table limit")


def _close_bfs(gen_objs: list, op, identity, cap: int):
    """Right-multiplication BFS closure, element by element, as (elements,
    right, parent): right[i, k] indexes elements[i] * gen_objs[k], and
    element j was first reached as elements[p] * gen_objs[k], (p, k) = parent[j]."""
    index = {identity: 0}
    elements = [identity]
    parent = [(0, 0)]
    right = []
    for i, x in enumerate(elements):  # the list grows while it is read
        row = []
        for k, g in enumerate(gen_objs):
            y = op(x, g)
            j = index.get(y)
            if j is None:
                j = len(elements)
                _admit(j, cap)
                index[y] = j
                elements.append(y)
                parent.append((i, k))
            row.append(j)
        right.append(row)
    return elements, np.array(right, dtype=np.int32).reshape(len(elements), len(gen_objs)), parent


def close_generators(generators: list, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Group generated by permutations or exact rational square matrices.

    Permutations are given as 0-based image tuples on a common domain;
    matrices as nested sequences of ints, Fractions or "p/q" strings.
    """
    _admit(0, cap)
    if not generators:
        raise ParseError("at least one generator required")
    first = generators[0]
    if _looks_like_matrix(first):
        return _finish_group(*_close_matrices(generators, len(first), cap), kind="matrices")
    return _finish_group(*_close_permutations(generators, cap), kind="permutations")


def _looks_like_matrix(g) -> bool:
    return bool(len(g)) and isinstance(g[0], (list, tuple))


def parse_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ParseError(f"bad rational entry {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational entry {x!r}") from exc
    raise ParseError(f"bad rational entry {x!r}")


def _close_permutations(generators: list, cap: int):
    deg = len(generators[0])
    gens = []
    for g in generators:
        bad = [x for x in g if isinstance(x, bool) or not isinstance(x, (int, np.integer))]
        if bad:
            raise ParseError(f"permutation entries must be integers, got {bad[0]!r}")
        p = tuple(int(x) for x in g)
        if sorted(p) != list(range(deg)):
            raise ParseError(f"not a permutation of 0..{deg - 1}: {g}")
        gens.append(p)

    def op(a, b):  # a * b acts as "apply b, then a"
        return tuple(a[b[i]] for i in range(deg))

    return _close_bfs(gens, op, tuple(range(deg)), cap)


def _close_matrices(generators: list, dim: int, cap: int):
    """Closure of invertible rational dim x dim matrices, as (elements,
    right, parent); integer generators take the batched numpy path."""
    gens: list[Matrix] = []
    for g in generators:
        m = tuple(tuple(parse_rational(x) for x in row) for row in g)
        if len(m) != dim or any(len(r) != dim for r in m):
            raise ParseError("matrix generators must be square and equally sized")
        if _mat_rank(m) != dim:
            raise NotInvertible("singular matrix generator")
        gens.append(m)
    if all(x.denominator == 1 for m in gens for row in m for x in row):
        return _close_integer(gens, dim, cap)
    return _close_bfs(gens, _mat_mul, _mat_identity(dim), cap)


def _check_int64(term: int, dim: int) -> None:
    """Refuse products whose sums of dim terms of size `term` could leave int64."""
    if term * dim >= 2**62:
        raise Int64Exceeded(f"integer matrix products with terms up to {term} leave exact int64 arithmetic "
                            "(term x dim must stay below 2^62)")


def _close_integer(gens: list[Matrix], dim: int, cap: int):
    """Batched numpy closure of integer matrices (the Weyl path), generator by
    generator within each BFS level, returning what `_close_bfs` does; a level
    is multiplied only while max|entry| * max|generator entry| * dim < 2^62."""
    gmax = max((abs(int(x)) for m in gens for row in m for x in row), default=0)
    _check_int64(gmax, dim)
    garr = np.array([[[int(x) for x in row] for row in m] for m in gens], dtype=np.int64).reshape(len(gens), dim, dim)
    store = [np.eye(dim, dtype=np.int64)]
    index = {store[0].tobytes(): 0}
    parent = [(0, 0)]
    blocks = []
    lo = 0
    while lo < len(store):
        hi = len(store)
        batch = np.stack(store[lo:hi])
        _check_int64(int(np.abs(batch).max(initial=0)) * gmax, dim)
        block = np.empty((hi - lo, len(gens)), dtype=np.int32)
        for k, gmat in enumerate(garr):
            for r, row in enumerate(batch @ gmat):
                key = row.tobytes()
                j = index.get(key)
                if j is None:
                    j = len(store)
                    _admit(j, cap)
                    index[key] = j
                    store.append(row.copy())
                    parent.append((lo + r, k))
                block[r, k] = j
        blocks.append(block)
        lo = hi
    elements = [tuple(map(tuple, m.tolist())) for m in store]
    return elements, np.vstack(blocks), parent


_TABLE_BLOCK = 256  # columns of the table built per block of its transpose


def _table(right: np.ndarray, parent: list) -> np.ndarray:
    """Multiplication table from the generator columns: when j was first
    reached as p * s_k, column j is x * j = (x * p) * s_k = right[x * p, k].
    The columns are built as contiguous rows of a (block, n) buffer, a block
    at a time, and copied into the table; a parent earlier than the block is
    read from the table.  A full transpose would be a second table."""
    n = len(right)
    mul = np.empty((n, n), dtype=np.int32)
    buf = np.empty((min(_TABLE_BLOCK, n), n), dtype=np.int32)
    buf[0] = np.arange(n)
    for lo in range(0, n, _TABLE_BLOCK):
        hi = min(lo + _TABLE_BLOCK, n)
        for j in range(max(lo, 1), hi):
            p, k = parent[j]
            buf[j - lo] = right[buf[p - lo] if p >= lo else mul[:, p], k]
        mul[:, lo:hi] = buf[:hi - lo].T
    return mul


def _finish_group(elements: list, right: np.ndarray, parent: list, kind: str) -> FiniteGroup:
    mul = _table(right, parent)
    g = FiniteGroup(
        order=len(elements),
        mul=mul,
        inv=np.argmin(mul, axis=1).astype(np.int32),  # x * inv(x) is element 0
        identity=0,
        gens=tuple(int(j) for j in right[0]),  # as listed, identity and repeats included
        element_data=elements,
        kind=kind,
    )
    g.check_axioms()
    return g


def group_from_table(table, identity: int | None = None, labels: list[str] | None = None) -> FiniteGroup:
    raw = np.asarray(table)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise ParseError("multiplication table must be square")
    n = raw.shape[0]
    # numpy would truncate floats, parse strings and read bools as 0 and 1
    bools = not isinstance(table, np.ndarray) and any(isinstance(x, bool) for row in table for x in row)
    if raw.dtype.kind not in "iu" or bools:
        raise ParseError("table entries must be integers")
    if raw.min(initial=0) < 0 or raw.max(initial=0) >= n:
        raise ParseError("table entries out of range")
    mul = raw.astype(np.int32)
    if identity is None:
        identity = next((e for e in range(n) if (mul[e, :] == np.arange(n)).all()), None)
        if identity is None:
            raise ParseError("table has no identity element")
    elif isinstance(identity, bool) or not isinstance(identity, (int, np.integer)) or not 0 <= identity < n:
        raise ParseError(f"identity {identity!r} is not an element index in 0..{n - 1}")
    identity = int(identity)
    if not ((mul[identity, :] == np.arange(n)).all() and (mul[:, identity] == np.arange(n)).all()):
        raise ParseError(f"element {identity} is not the identity of the table")
    if labels is not None and not (isinstance(labels, list) and len(labels) == n
                                   and all(isinstance(x, str) for x in labels)):
        raise ParseError(f"labels must be a list of {n} strings, one per element")
    inv = np.empty(n, dtype=np.int32)
    for i in range(n):
        js = np.nonzero(mul[i, :] == identity)[0]
        if len(js) == 0:
            raise ParseError(f"element {i} has no inverse")
        inv[i] = js[0]
    g = FiniteGroup(order=n, mul=mul, inv=inv, identity=identity, element_labels=labels, kind="table")
    g.check_axioms()
    return g


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with index (i, j) -> i * |b| + j."""
    na, nb = a.order, b.order
    nb32 = np.int32(nb)
    # one int32 allocation: axes (i1, j1, i2, j2) of the products (i1, j1)(i2, j2)
    mul = np.asarray(a.mul, dtype=np.int32)[:, None, :, None] * nb32 + np.asarray(b.mul, dtype=np.int32)[None, :, None, :]
    inv = np.asarray(a.inv, dtype=np.int32)[:, None] * nb32 + np.asarray(b.inv, dtype=np.int32)[None, :]
    return FiniteGroup(
        order=na * nb,
        mul=mul.reshape(na * nb, na * nb),
        inv=inv.ravel(),
        identity=int(a.identity * nb + b.identity),
        kind="table",
    )


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n, dtype=np.int32)
    mul = idx[:, None] + idx[None, :]
    np.subtract(mul, np.int32(n), out=mul, where=mul >= n)
    inv = (-idx) % n
    return FiniteGroup(order=n, mul=mul, inv=inv, identity=0, gens=(1 % n,) if n > 1 else (0,), kind="table")


def symmetric_group(n: int) -> FiniteGroup:
    gens = []
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    return close_generators(gens, cap=max(DEFAULT_CAP, 2)) if gens else cyclic_group(1)


class CentralInvolution:
    """A central element u with u^2 = 1; u = 1 only where explicitly allowed."""

    def __init__(self, group: FiniteGroup, u: int) -> None:
        self.group = group
        self.u = u
        if group.mul[u, u] != group.identity:
            raise ParseError("u^2 != 1")
        if not group.is_central(u):
            raise ParseError("u is not central")

    @property
    def is_trivial(self) -> bool:
        return self.u == self.group.identity


class QuotientData:
    """G/U for U = {1, u}, with projection and a canonical section."""

    def __init__(self, group: FiniteGroup, involution: CentralInvolution, quotient: FiniteGroup,
                 projection: np.ndarray, section: np.ndarray) -> None:
        self.group = group
        self.involution = involution
        self.quotient = quotient
        self.projection = projection  # element of G -> element of G/U
        self.section = section  # element of G/U -> element of G


def quotient_by_central_involution(inv: CentralInvolution) -> QuotientData:
    """Quotient by {1, u}; coset reps are minimal indices, identity coset excepted."""
    if inv.is_trivial:
        raise TrivialInvolution("u = 1 has trivial quotient data")
    return inv.group.memo(("quotient", inv.u), lambda: _quotient_impl(inv))


def _quotient_impl(inv: CentralInvolution) -> QuotientData:
    g = inv.group
    n = g.order
    partner = np.asarray(g.mul[:, inv.u])
    rep = np.minimum(np.arange(n), partner)
    rep[g.identity] = g.identity
    rep[int(partner[g.identity])] = g.identity
    reps = [g.identity] + sorted(set(rep.tolist()) - {g.identity})
    pos = np.zeros(n, dtype=np.int32)
    pos[reps] = np.arange(len(reps))
    proj = pos[rep]
    section = np.array(reps, dtype=np.int32)
    m = len(reps)
    mul = proj[np.asarray(g.mul)[np.ix_(section, section)]].astype(np.int32)
    invt = proj[np.asarray(g.inv)[section]].astype(np.int32)
    q = FiniteGroup(order=m, mul=mul, inv=invt, identity=0, kind="table")
    q.check_axioms()
    return QuotientData(group=g, involution=inv, quotient=q, projection=proj, section=section)


def is_character(g: FiniteGroup, values, n: int) -> bool:
    """Whether values (one per element, or one column per map) are additive maps
    G -> Z_n: v(1) = 0 and v(xs) = v(x) + v(s) for s in G.gens, checked in
    O(|G| |S|); induction on the BFS word of y then gives v(xy) = v(x) + v(y)."""
    v = np.asarray(values, dtype=np.int64)
    gens = list(g.gens)
    xs = np.asarray(g.mul)[:, gens]
    return not (v[g.identity] % n).any() and not ((v[:, None] + v[gens][None] - v[xs]) % n).any()


class GroupCharacter:
    """Additive character G -> Z_N."""

    def __init__(self, group: FiniteGroup, target_order: int, values: np.ndarray) -> None:
        self.group = group
        self.target_order = target_order
        self.values = np.asarray(values, dtype=np.int64) % target_order
        if not is_character(group, self.values, target_order):
            raise ParseError("character values are not a homomorphism")

    def __call__(self, g: int) -> int:
        return int(self.values[g])


class AbelianInvariants:
    """Cyclic decomposition of G^ab, largest invariant factor first."""

    def __init__(self, group: FiniteGroup, cyclic_orders: tuple[int, ...], projection: np.ndarray,
                 commutator_subgroup: tuple[int, ...]) -> None:
        self.group = group
        self.cyclic_orders = cyclic_orders
        self.projection = projection  # (|G|, k) coordinate of each element in the decomposition
        self.commutator_subgroup = commutator_subgroup

    def coords(self, g: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.projection[g])


def abelianization(g: FiniteGroup) -> AbelianInvariants:
    return g.memo("abelianization", lambda: _abelianization_impl(g))


def _abelianization_impl(g: FiniteGroup) -> AbelianInvariants:
    orders, coords = abelian_invariants(g.mul[:, list(g.gens)], g.tree)
    projection = np.array(coords, dtype=np.int64).reshape(len(orders), g.order).T
    return AbelianInvariants(
        group=g,
        cyclic_orders=orders,
        projection=projection,
        commutator_subgroup=tuple(np.flatnonzero(~projection.any(axis=1)).tolist()),
    )


def abelian_invariants(right: np.ndarray, tree) -> tuple[tuple[int, ...], list]:
    """Invariant factors, largest first, of the abelianization of the group
    with generator columns right[x, k] = x s_k (n x m) and BFS tree `tree`,
    and the coordinates (n,) of each element along each factor.

    G^ab is Z^S modulo the abelianized Schreier generators c(x) + e_s -
    c(xs), c(x) the letter count of the tree word of x (Reidemeister-Schreier),
    and x maps to the class of c(x).  p^e || n kills the p-part of G^ab, so
    the cokernel of the relations over Z_{p^e} is that p-part."""
    n, m = right.shape
    counts, eye = np.zeros((n, m), dtype=np.int32), np.eye(m, dtype=np.int32)  # word lengths stay below n
    for x, k, y in tree:
        counts[y] = counts[x] + eye[k]
    rel = counts[:, None, :] + eye - counts[right]
    parts = []
    for p, e in prime_power_factors(n):
        ck = cokernel_mod(rel.reshape(n * m, m).T, p, e)
        parts.append((ck.orders, ck.class_coords(counts)))
    return direct_sum(parts)


def all_characters(g: FiniteGroup, target_order: int):
    """Yield every character G -> Z_N (finitely many via the abelianization)."""
    import itertools

    ab = abelianization(g)
    n = target_order
    ranges = [range(0, n, n // math.gcd(d, n)) for d in ab.cyclic_orders]
    for values in itertools.product(*ranges):
        vals = (ab.projection @ np.array(values, dtype=np.int64)) % n
        yield GroupCharacter(group=g, target_order=n, values=vals)


def splitting_character(inv: CentralInvolution) -> GroupCharacter | None:
    """A character chi: G -> Z_2 with chi(u) = 1, when one exists.

    Existence is equivalent to G = U x G/U and to the image of u in G^ab
    not being a square.
    """
    if inv.is_trivial:
        raise TrivialInvolution("u = 1 admits no splitting character")
    g = inv.group
    ab = abelianization(g)
    ucoords = ab.coords(inv.u)
    for i, d in enumerate(ab.cyclic_orders):
        if d % 2 == 0 and ucoords[i] % 2 == 1:
            vals = ab.projection[:, i] % 2
            return GroupCharacter(group=g, target_order=2, values=vals)
    return None


# ---------------------------------------------------------------------------
# JSON input format


def parse_group_spec(spec: dict, cap: int = DEFAULT_CAP) -> tuple[FiniteGroup, int | None]:
    """Parse {"kind": ..., "generators": ..., "u": ...}; returns (group, u index)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError("group spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind in ("permutations", "matrices"):
            gens = [list(p) for p in spec["generators"]]
            if any(_looks_like_matrix(p) != (kind == "matrices") for p in gens):
                raise ParseError(f"kind {kind!r} needs each generator as "
                                 + ("a list of matrix rows" if kind == "matrices" else "a flat list of point images"))
            g = close_generators(gens, cap=cap)
        elif kind == "table":
            g = group_from_table(spec["table"] if "table" in spec else spec["generators"],
                                 identity=spec.get("identity"), labels=spec.get("labels"))
        else:
            raise ParseError(f"unknown group kind {kind!r}")
    except KeyError as exc:
        raise ParseError(f"group spec of kind {kind!r} lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed group spec of kind {kind!r}: {exc}") from exc
    return g, resolve_u(g, spec.get("u"))


def resolve_u(g: FiniteGroup, u) -> int | None:
    """The element named by u: an index, a word "g0 g1" or "g0*g1" in the
    generators, or a list of generator indices; None stays None."""
    if u is None:
        return None
    if isinstance(u, int) and not isinstance(u, bool):
        if not 0 <= u < g.order:
            raise ParseError(f"u index {u} out of range")
        return u
    if isinstance(u, str):
        word = []
        for t in u.replace("*", " ").split():
            if not (t.startswith("g") and t[1:].isdecimal()):
                raise ParseError(f"bad generator token {t!r} in u word")
            word.append(int(t[1:]))
        return g.word_to_element(word)
    if isinstance(u, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in u):
        return g.word_to_element(u)
    raise ParseError("u must be an element index or a word in generators")


def read_group_file(path: str | Path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read group file {path}: {exc}") from exc


def load_group_file(path: str | Path, cap: int = DEFAULT_CAP) -> tuple[FiniteGroup, int | None]:
    return parse_group_spec(read_group_file(path), cap=cap)
