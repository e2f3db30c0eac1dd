"""Finite groups as multiplication tables, built by generator closure.

Element indexing is deterministic: breadth-first from the identity, taking
generators in the order given and multiplying on the right.  Every group
carries a generating set and a BFS word for each element; the cohomology
module relies on both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import CapExceeded, NotInvertible, ParseError, TrivialInvolution

DEFAULT_CAP = 200_000

Matrix = tuple[tuple[Fraction, ...], ...]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _row_reduce(rows) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Exact Gauss-Jordan elimination of a matrix of Fractions.

    Returns the nonzero rows of the reduced row echelon form, their pivot
    columns, and the signed product of the pivots, which is the determinant
    when the matrix is square and of full rank.
    """
    out = [list(r) for r in rows]
    ncols = len(out[0]) if out else 0
    pivots: list[int] = []
    det = Fraction(1)
    for c in range(ncols):
        lead = len(pivots)
        if lead == len(out):
            break
        piv = next((r for r in range(lead, len(out)) if out[r][c] != 0), None)
        if piv is None:
            continue
        if piv != lead:
            out[lead], out[piv] = out[piv], out[lead]
            det = -det
        pv = out[lead][c]
        det *= pv
        out[lead] = [x / pv for x in out[lead]]
        for r in range(len(out)):
            if r != lead and out[r][c] != 0:
                f = out[r][c]
                out[r] = [x - f * y for x, y in zip(out[r], out[lead])]
        pivots.append(c)
    return out[:len(pivots)], pivots, det


def _mat_rank(m) -> int:
    return len(_row_reduce(m)[1])


def _det(rows) -> Fraction:
    _, pivots, det = _row_reduce(rows)
    return det if len(pivots) == len(rows) else Fraction(0)


@dataclass(eq=False)
class FiniteGroup:
    """Multiplication-table group with 0-based element indices."""

    order: int
    mul: np.ndarray  # (order, order) int32
    inv: np.ndarray  # (order,) int32
    identity: int = 0
    element_labels: list[str] | None = None
    gens: tuple[int, ...] = ()
    words: list[tuple[int, ...]] = field(default_factory=list)
    element_data: list | None = None  # permutation tuples or rational matrices
    kind: str = "table"

    def __post_init__(self) -> None:
        if not self.gens:
            self._choose_generators()
        if not self.words:
            self.words = self._bfs_words()

    def _choose_generators(self) -> None:
        """Greedy small generating set for table-built groups."""
        gens: list[int] = []
        reached = {self.identity}
        for x in range(self.order):
            if x in reached:
                continue
            gens.append(x)
            frontier = [self.identity]
            reached = {self.identity}
            while frontier:
                nxt = []
                for y in frontier:
                    for s in gens:
                        z = int(self.mul[y, s])
                        if z not in reached:
                            reached.add(z)
                            nxt.append(z)
                frontier = nxt
            if len(reached) == self.order:
                break
        self.gens = tuple(gens)

    def _bfs_words(self) -> list[tuple[int, ...]]:
        words: dict[int, tuple[int, ...]] = {self.identity: ()}
        queue = [self.identity]
        while queue:
            nxt = []
            for x in queue:
                for k, s in enumerate(self.gens):
                    y = int(self.mul[x, s])
                    if y not in words:
                        words[y] = words[x] + (k,)
                        nxt.append(y)
            queue = nxt
        if len(words) != self.order:
            raise ParseError("generators do not generate the group")
        return [words[i] for i in range(self.order)]

    def commutator(self, g: int, h: int) -> int:
        """g^-1 h^-1 g h."""
        return int(self.mul[self.mul[self.inv[g], self.inv[h]], self.mul[g, h]])

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = int(self.mul[x, g])
            k += 1
        return k

    def power(self, g: int, k: int) -> int:
        x = self.identity
        if k < 0:
            g, k = int(self.inv[g]), -k
        for _ in range(k):
            x = int(self.mul[x, g])
        return x

    def word_to_element(self, word: list[int] | tuple[int, ...]) -> int:
        x = self.identity
        for k in word:
            if not 0 <= k < len(self.gens):
                raise ParseError(f"generator index {k} out of range")
            x = int(self.mul[x, self.gens[k]])
        return x

    def is_central(self, g: int) -> bool:
        return bool((self.mul[g, :] == self.mul[:, g]).all())

    def subgroup_closure(self, seeds: list[int]) -> list[int]:
        reached = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for s in seeds:
                    y = int(self.mul[x, s])
                    if y not in reached:
                        reached.add(y)
                        nxt.append(y)
            frontier = nxt
        return sorted(reached)

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
                if not (mul[mul[lo:lo + 256, s], :] == mul[lo:lo + 256, mul[s, :]]).all():
                    raise ParseError("associativity fails")


def _close_bfs(gen_objs: list, op, identity, cap: int):
    """Generic right-multiplication BFS closure; returns (elements, index)."""
    index = {identity: 0}
    elements = [identity]
    queue = [0]
    while queue:
        nxt = []
        for i in queue:
            for g in gen_objs:
                y = op(elements[i], g)
                if y not in index:
                    j = len(elements)
                    if j >= cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
                    index[y] = j
                    elements.append(y)
                    nxt.append(j)
        queue = nxt
    return elements, index


def close_generators(generators: list, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Group generated by permutations or exact rational square matrices.

    Permutations are given as 0-based image tuples on a common domain;
    matrices as nested sequences of ints, Fractions or "p/q" strings.
    """
    if cap < 1:
        raise ParseError("cap must be >= 1")
    if not generators:
        raise ParseError("at least one generator required")
    first = generators[0]
    if _looks_like_matrix(first):
        return _close_matrices(generators, cap)
    return _close_permutations(generators, cap)


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


def _close_permutations(generators: list, cap: int) -> FiniteGroup:
    deg = len(generators[0])
    gens = []
    for g in generators:
        p = tuple(int(x) for x in g)
        if sorted(p) != list(range(deg)):
            raise ParseError(f"not a permutation of 0..{deg - 1}: {g}")
        gens.append(p)
    identity = tuple(range(deg))

    def op(a, b):  # a * b acts as "apply b, then a"
        return tuple(a[b[i]] for i in range(deg))

    elements, index = _close_bfs(gens, op, identity, cap)
    n = len(elements)
    arr = np.array(elements, dtype=np.int64)
    mul = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        prod = arr[i][arr]  # compose elements[i] with every element
        for j in range(n):
            mul[i, j] = index[tuple(int(v) for v in prod[j])]
    return _finish_group(mul, elements, [index[g] for g in gens], kind="permutations")


def _close_matrices(generators: list, cap: int) -> FiniteGroup:
    dim = len(generators[0])
    gens: list[Matrix] = []
    for g in generators:
        m = tuple(tuple(parse_rational(x) for x in row) for row in g)
        if len(m) != dim or any(len(r) != dim for r in m):
            raise ParseError("matrix generators must be square and equally sized")
        if _mat_rank(m) != dim:
            raise NotInvertible("singular matrix generator")
        gens.append(m)
    if all(x.denominator == 1 for m in gens for row in m for x in row):
        return _close_matrices_integer(gens, dim, cap)
    identity = _mat_identity(dim)
    elements, index = _close_bfs(gens, _mat_mul, identity, cap)
    n = len(elements)
    mul = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        for j in range(n):
            mul[i, j] = index[_mat_mul(elements[i], elements[j])]
    return _finish_group(mul, elements, [index[g] for g in gens], kind="matrices")


def _close_matrices_integer(gens: list[Matrix], dim: int, cap: int) -> FiniteGroup:
    """Batched numpy closure for integer matrix generators (the Weyl path)."""
    garr = np.array([[[int(x) for x in row] for row in m] for m in gens], dtype=np.int64)
    ident = np.eye(dim, dtype=np.int64)
    store: list[np.ndarray] = [ident]
    index: dict[bytes, int] = {ident.tobytes(): 0}
    frontier = [0]
    while frontier:
        batch = np.stack([store[i] for i in frontier])
        nxt = []
        for gmat in garr:
            prods = batch @ gmat
            for row in prods:
                key = row.tobytes()
                if key not in index:
                    j = len(store)
                    if j >= cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
                    index[key] = j
                    store.append(row.copy())
                    nxt.append(j)
        frontier = nxt
    n = len(store)
    if n > 20_000:
        raise CapExceeded(f"group of order {n} needs an unreasonable {n}x{n} table")
    arr = np.stack(store)
    mul = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        prods = arr[i] @ arr
        for j in range(n):
            mul[i, j] = index[prods[j].tobytes()]
    elements = [tuple(tuple(int(x) for x in row) for row in m) for m in store]
    gen_idx = [index[np.array([[int(x) for x in row] for row in m], dtype=np.int64).tobytes()] for m in gens]
    return _finish_group(mul, elements, gen_idx, kind="matrices")


def _finish_group(mul: np.ndarray, elements: list, gen_indices: list[int], kind: str) -> FiniteGroup:
    n = mul.shape[0]
    inv = np.empty(n, dtype=np.int32)
    for i in range(n):
        js = np.nonzero(mul[i, :] == 0)[0]
        inv[i] = js[0]
    g = FiniteGroup(
        order=n,
        mul=mul,
        inv=inv,
        identity=0,
        gens=tuple(dict.fromkeys(gi for gi in gen_indices if gi != 0)) or (0,),
        element_data=elements,
        kind=kind,
    )
    g.check_axioms()
    return g


def group_from_table(table, identity: int | None = None, labels: list[str] | None = None) -> FiniteGroup:
    mul = np.array(table, dtype=np.int32)
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise ParseError("multiplication table must be square")
    n = mul.shape[0]
    if mul.min() < 0 or mul.max() >= n:
        raise ParseError("table entries out of range")
    if identity is None:
        ids = [e for e in range(n) if (mul[e, :] == np.arange(n)).all()]
        if not ids:
            raise ParseError("table has no identity element")
        identity = ids[0]
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
    ia = np.repeat(np.arange(na), nb)
    ib = np.tile(np.arange(nb), na)
    mul = (a.mul[np.ix_(ia, ia)] * nb + b.mul[np.ix_(ib, ib)]).astype(np.int32)
    inv = (np.asarray(a.inv)[ia] * nb + np.asarray(b.inv)[ib]).astype(np.int32)
    return FiniteGroup(
        order=na * nb,
        mul=mul,
        inv=inv,
        identity=int(a.identity * nb + b.identity),
        kind="table",
    )


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    mul = ((idx[:, None] + idx[None, :]) % n).astype(np.int32)
    inv = ((-idx) % n).astype(np.int32)
    return FiniteGroup(order=n, mul=mul, inv=inv, identity=0, gens=(1 % n,) if n > 1 else (0,), kind="table")


def symmetric_group(n: int) -> FiniteGroup:
    gens = []
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    return close_generators(gens, cap=max(DEFAULT_CAP, 2)) if gens else cyclic_group(1)


@dataclass(eq=False)
class CentralInvolution:
    """A central element u with u^2 = 1; u = 1 only where explicitly allowed."""

    group: FiniteGroup
    u: int

    def __post_init__(self) -> None:
        g = self.group
        if g.mul[self.u, self.u] != g.identity:
            raise ParseError("u^2 != 1")
        if not g.is_central(self.u):
            raise ParseError("u is not central")

    @property
    def is_trivial(self) -> bool:
        return self.u == self.group.identity


@dataclass(eq=False)
class QuotientData:
    """G/U for U = {1, u}, with projection and a canonical section."""

    group: FiniteGroup
    involution: CentralInvolution
    quotient: FiniteGroup
    projection: np.ndarray  # element of G -> element of G/U
    section: np.ndarray  # element of G/U -> element of G


def quotient_by_central_involution(inv: CentralInvolution) -> QuotientData:
    """Quotient by {1, u}; coset reps are minimal indices, identity coset excepted."""
    if inv.is_trivial:
        raise TrivialInvolution("u = 1 has trivial quotient data")
    g = inv.group
    cache = getattr(g, "_quotient_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(g, "_quotient_cache", cache)
    if inv.u in cache:
        return cache[inv.u]
    qd = _quotient_impl(inv)
    cache[inv.u] = qd
    return qd


def _quotient_impl(inv: CentralInvolution) -> QuotientData:
    g = inv.group
    n = g.order
    partner = np.asarray(g.mul[:, inv.u])
    rep = np.minimum(np.arange(n), partner)
    rep[g.identity] = g.identity
    rep[int(partner[g.identity])] = g.identity
    reps = sorted(set(int(r) for r in rep))
    reps.remove(g.identity)
    reps.insert(0, g.identity)
    rep_index = {r: i for i, r in enumerate(reps)}
    proj = np.array([rep_index[int(rep[x])] for x in range(n)], dtype=np.int32)
    section = np.array(reps, dtype=np.int32)
    m = len(reps)
    mul = proj[np.asarray(g.mul)[np.ix_(section, section)]].astype(np.int32)
    invt = proj[np.asarray(g.inv)[section]].astype(np.int32)
    q = FiniteGroup(order=m, mul=mul, inv=invt, identity=0, kind="table")
    q.check_axioms()
    return QuotientData(group=g, involution=inv, quotient=q, projection=proj, section=section)


@dataclass(eq=False)
class GroupCharacter:
    """Additive character G -> Z_N."""

    group: FiniteGroup
    target_order: int
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.int64) % self.target_order
        self.values = v
        mul = np.asarray(self.group.mul)
        if not ((v[:, None] + v[None, :]) % self.target_order == v[mul]).all():
            raise ParseError("character values are not a homomorphism")

    def __call__(self, g: int) -> int:
        return int(self.values[g])


@dataclass(eq=False)
class AbelianInvariants:
    """Cyclic decomposition of G^ab, largest invariant factor first."""

    group: FiniteGroup
    cyclic_orders: tuple[int, ...]
    projection: np.ndarray  # (|G|, k) coordinate of each element in the decomposition
    commutator_subgroup: tuple[int, ...]

    def coords(self, g: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.projection[g])


def _abelian_basis_from_table(mul: np.ndarray, identity: int) -> tuple[list[int], list[int]]:
    """Basis realizing the invariant factors (largest first) of an abelian table group.

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
    return basis, orders


def abelianization(g: FiniteGroup) -> AbelianInvariants:
    cached = getattr(g, "_abelianization", None)
    if cached is None:
        cached = _abelianization_impl(g)
        object.__setattr__(g, "_abelianization", cached)
    return cached


def _abelianization_impl(g: FiniteGroup) -> AbelianInvariants:
    comms = sorted({g.commutator(a, b) for a in range(g.order) for b in range(g.order)})
    ksub = g.subgroup_closure(comms)
    kset = set(ksub)
    # cosets of the commutator subgroup
    rep_of = {}
    coset_reps = []
    for x in range(g.order):
        if x in rep_of:
            continue
        members = sorted(int(g.mul[x, k]) for k in ksub)
        r = members[0] if g.identity not in members else g.identity
        for m in members:
            rep_of[m] = r
        coset_reps.append(r)
    coset_reps = sorted(set(rep_of.values()))
    idx = {r: i for i, r in enumerate(coset_reps)}
    m = len(coset_reps)
    qmul = np.empty((m, m), dtype=np.int32)
    for i, a in enumerate(coset_reps):
        for j, b in enumerate(coset_reps):
            qmul[i, j] = idx[rep_of[int(g.mul[a, b])]]
    qid = idx[rep_of[g.identity]]
    basis, factors = _abelian_basis_from_table(qmul, qid)
    # discrete log over the whole quotient
    coords = {qid: tuple(0 for _ in factors)}
    for pos, (b, d) in enumerate(zip(basis, factors)):
        new = {}
        for x, c in coords.items():
            y = x
            for k in range(d):
                cc = list(c)
                cc[pos] = k
                new[y] = tuple(cc)
                y = int(qmul[y, b])
        coords = new
    proj = np.zeros((g.order, len(factors)), dtype=np.int64)
    for x in range(g.order):
        proj[x] = coords[idx[rep_of[x]]]
    return AbelianInvariants(
        group=g,
        cyclic_orders=tuple(factors),
        projection=proj,
        commutator_subgroup=tuple(ksub),
    )


def all_characters(g: FiniteGroup, target_order: int, ab: AbelianInvariants | None = None):
    """Yield every character G -> Z_N (finitely many via the abelianization)."""
    import itertools

    ab = ab or abelianization(g)
    n = target_order
    ranges = [range(0, n, n // math.gcd(d, n)) for d in ab.cyclic_orders]
    for values in itertools.product(*ranges):
        vals = (ab.projection @ np.array(values, dtype=np.int64)) % n
        yield GroupCharacter(group=g, target_order=n, values=vals)


def splitting_character(inv: CentralInvolution, ab: AbelianInvariants | None = None) -> GroupCharacter | None:
    """A character chi: G -> Z_2 with chi(u) = 1, when one exists.

    Existence is equivalent to G = U x G/U and to the image of u in G^ab
    not being a square.
    """
    if inv.is_trivial:
        raise TrivialInvolution("u = 1 admits no splitting character")
    g = inv.group
    ab = ab or abelianization(g)
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
        if kind == "permutations":
            g = close_generators([list(p) for p in spec["generators"]], cap=cap)
        elif kind == "matrices":
            g = close_generators(list(spec["generators"]), cap=cap)
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


def load_group_file(path: str | Path, cap: int = DEFAULT_CAP) -> tuple[FiniteGroup, int | None]:
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read group file {path}: {exc}") from exc
    return parse_group_spec(spec, cap=cap)


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
