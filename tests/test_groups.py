"""Group construction, quotients, abelianization and splitting characters."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superbrauer import (
    CapExceeded,
    CentralInvolution,
    NotInvertible,
    ParseError,
    TrivialInvolution,
    abelianization,
    all_characters,
    close_generators,
    cyclic_group,
    direct_product,
    group_from_table,
    parse_group_spec,
    quotient_by_central_involution,
    splitting_character,
    symmetric_group,
)
from superbrauer import groups
from superbrauer.groups import is_character
from superbrauer.sharp import ZGrading
from superbrauer.weyl import RootSystemType, build_weyl, reflection_matrices

from .oracles import (all_pairs_is_character, enumerated_group_table, fraction_row_reduce, quotient_table_abelianization,
                      serialize_group)


def test_close_b2_matrices():
    g = close_generators(reflection_matrices(RootSystemType.parse("B2")))
    assert g.order == 8


def test_close_permutations_s3():
    g = close_generators([[1, 0, 2], [0, 2, 1]])
    assert g.order == 6


def test_e8_cap_exceeded():
    """W(E8) is refused once its closure passes the table limit, not at the cap."""
    mats = reflection_matrices(RootSystemType.parse("E8"))
    with pytest.raises(CapExceeded, match="20000-element multiplication table limit"):
        close_generators(mats, cap=10**6)


@pytest.mark.parametrize("gens", [
    [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]],  # S8, 40320 elements
    [[[1, "1/2"], [0, 1]]],  # infinite, through the rational closure
], ids=["S8", "rational"])
def test_table_limit_refused_while_closing(gens):
    """Every closure kind stops at min(cap, 20000) elements and says which bound it hit."""
    with pytest.raises(CapExceeded, match="20000-element multiplication table limit"):
        close_generators(gens, cap=10**6)
    with pytest.raises(CapExceeded, match="closure exceeded cap 50$"):
        close_generators(gens, cap=50)
    with pytest.raises(CapExceeded, match="^closure exceeded cap 0$"):  # a cap of 0 admits not even the identity
        close_generators(gens, cap=0)


def _conjugated_b3():
    """W(B3) conjugated by diag(1, 2, 3): a rational, non-integral closure."""
    d = [1, 2, 3]
    return [[[Fraction(m[i][j] * d[i], d[j]) for j in range(3)] for i in range(3)]
            for m in reflection_matrices(RootSystemType.parse("B3"))]


_Q8 = [[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
       [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]]

# generating data for each closure kind; the SHA-256 prefixes of (element
# data, table, inverses, gens, words) and of the abelianization were taken
# when every table cell was still computed by multiplying its two elements;
# the A4 and Q8 abelianization digests were re-taken when G^ab moved from a
# greedy basis of the quotient table to the Smith form of the Schreier
# relations (same invariants and commutator subgroups, another basis)
_CLOSED_GROUPS = {
    "S4": (lambda: [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]], "61f6596fbf577845", "144b6f08e1908a66"),
    "A4": (lambda: [[1, 2, 0, 3], [0, 2, 3, 1]], "b5addd69cc973fe6", "db031218eb01e132"),
    "Z2xZ4": (lambda: [[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]], "b2e2f0863e835944", "e5605c4c41ef9df1"),
    "W(B3)": (lambda: reflection_matrices(RootSystemType.parse("B3")), "3c0ea5e0475b7b13", "0ca3c0f67c218e75"),
    "W(F4)": (lambda: reflection_matrices(RootSystemType.parse("F4")), "85321d82a800833d", "22b307778a6d87a1"),
    "Q8": (lambda: _Q8, "a56f7234dd8f40ed", "4f480165ec37cadb"),
    "W(B3)^diag(1,2,3)": (_conjugated_b3, "6addd3a220bbe455", "0ca3c0f67c218e75"),
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", list(_CLOSED_GROUPS))
def test_table_matches_enumeration(name):
    """The table from the generator columns equals the product of every pair."""
    g = close_generators(_CLOSED_GROUPS[name][0]())
    assert np.array_equal(g.mul, enumerated_group_table(g))


@pytest.mark.parametrize("name", list(_CLOSED_GROUPS))
def test_closure_results_pinned(name):
    """Element order, table, words and abelianization are those of the
    pair-by-pair closure, digest for digest; the words are read off the tree."""
    gens, group_digest, ab_digest = _CLOSED_GROUPS[name]
    g = close_generators(gens())
    mul, inv = np.asarray(g.mul, dtype=np.int32), np.asarray(g.inv, dtype=np.int32)
    assert _digest(g.element_data, mul, inv, g.gens, [g.word(x) for x in range(g.order)]) == group_digest
    ab = abelianization(g)
    assert _digest(ab.cyclic_orders, np.asarray(ab.projection, dtype=np.int64), ab.commutator_subgroup) == ab_digest


def _assert_bfs_tree(g):
    """Each non-identity element is reached by exactly one tree edge (x, k, y),
    from an x reached earlier, and its word extends the word of x by k."""
    reached = {g.identity}
    for x, k, y in g.tree:
        assert x in reached and y not in reached
        assert int(g.mul[x, g.gens[k]]) == y and g.word(y) == g.word(x) + (k,)
        reached.add(y)
    assert len(reached) == g.order == len(g.tree) + 1


@pytest.mark.parametrize("name", list(_CLOSED_GROUPS))
def test_bfs_tree_of_closures(name):
    _assert_bfs_tree(close_generators(_CLOSED_GROUPS[name][0]()))


def test_bfs_tree_of_table_groups(z4_shifted):
    """A table group whose identity is not element 0, a direct product and a quotient."""
    assert z4_shifted.identity == 1
    s3xz4 = direct_product(symmetric_group(3), z4_shifted)
    quotient = quotient_by_central_involution(CentralInvolution(s3xz4, 3)).quotient  # u = (1, the involution of Z4)
    for g in (z4_shifted, s3xz4, quotient):
        _assert_bfs_tree(g)


def test_singular_generator_rejected():
    with pytest.raises(NotInvertible):
        close_generators([[[1, 0], [0, 0]]])


def test_group_axioms_exhaustive():
    for g in [cyclic_group(6), symmetric_group(4), direct_product(cyclic_group(2), symmetric_group(3))]:
        g.check_axioms()  # raises on failure
        n = g.order
        mul = np.asarray(g.mul)
        for a in range(n):
            assert (mul[mul[a, :], :] == mul[a, mul]).all()


def _intercalate_z1024(symmetric=False):
    """Z_1024 with the intercalate at rows 3, 515 and columns 5, 517 swapped:
    still a Latin square with identity 0, but not associative."""
    n = 1024
    t = np.add.outer(np.arange(n), np.arange(n)) % n
    rows, cols = [3, 3, 515, 515], [5, 517, 5, 517]
    t[rows, cols] = t[rows, [517, 5, 517, 5]]
    if symmetric:
        t[cols, rows] = t[rows, cols]
    return t


def test_intercalate_table_rejected():
    """Light's test catches one swapped intercalate in a table of order 1024."""
    with pytest.raises(ParseError, match="associativity"):
        group_from_table(_intercalate_z1024())


def test_quotient_z4():
    z4 = cyclic_group(4)
    qd = quotient_by_central_involution(CentralInvolution(z4, 2))
    assert qd.quotient.order == 2
    assert (qd.projection[qd.section] == np.arange(2)).all()


def test_quotient_wb2(datum_b2):
    qd = quotient_by_central_involution(datum_b2.inv)
    assert qd.quotient.order == 4
    assert abelianization(qd.quotient).cyclic_orders == (2, 2)


def test_quotient_direct_factor():
    g = direct_product(cyclic_group(2), symmetric_group(3))
    u = 1 * symmetric_group(3).order  # the Z2 generator, index (1, e)
    qd = quotient_by_central_involution(CentralInvolution(g, u))
    q = qd.quotient
    assert q.order == 6
    assert abelianization(q).cyclic_orders == (2,)
    assert any(q.mul[a, b] != q.mul[b, a] for a in range(6) for b in range(6))  # nonabelian: S3


def test_projection_section_identity():
    for g, u in [(cyclic_group(8), 4), (direct_product(cyclic_group(2), cyclic_group(4)), 1 * 4 + 2)]:
        inv = CentralInvolution(g, u)
        qd = quotient_by_central_involution(inv)
        assert (qd.projection[qd.section] == np.arange(qd.quotient.order)).all()
        # projection is a homomorphism with kernel {1, u}
        proj, mul = qd.projection, np.asarray(g.mul)
        qmul = np.asarray(qd.quotient.mul)
        for a in range(g.order):
            for b in range(g.order):
                assert proj[mul[a, b]] == qmul[proj[a], proj[b]]
        kernel = [x for x in range(g.order) if proj[x] == qd.quotient.identity]
        assert sorted(kernel) == sorted([g.identity, u])


def test_trivial_involution_rejected():
    z2 = cyclic_group(2)
    with pytest.raises(TrivialInvolution):
        quotient_by_central_involution(CentralInvolution(z2, 0))


def test_abelianization_examples(s4, datum_b3):
    assert abelianization(s4).cyclic_orders == (2,)
    assert abelianization(cyclic_group(6)).cyclic_orders == (6,)
    assert abelianization(build_weyl(datum_b3.type).group).cyclic_orders == (2, 2)


def test_abelianization_projection_kills_commutators(s4):
    ab = abelianization(s4)
    for k in ab.commutator_subgroup:
        assert all(c == 0 for c in ab.coords(k))
    # projection is a homomorphism
    for a in range(s4.order):
        for b in range(s4.order):
            ab_sum = tuple((x + y) % d for x, y, d in zip(ab.coords(a), ab.coords(b), ab.cyclic_orders))
            assert ab.coords(int(s4.mul[a, b])) == ab_sum


def _cyclic_product(orders):
    g = cyclic_group(orders[0])
    for d in orders[1:]:
        g = direct_product(g, cyclic_group(d))
    return g


def _dihedral(n):
    return close_generators([[(i + 1) % n for i in range(n)], [(-i) % n for i in range(n)]])


_NAMED_GROUPS = {
    "Z4xZ6": lambda: _cyclic_product([4, 6]),
    "Z3xZ6": lambda: _cyclic_product([3, 6]),
    "Z12": lambda: cyclic_group(12),
    "Q8": lambda: close_generators(_Q8),
    "A4": lambda: close_generators(_CLOSED_GROUPS["A4"][0]()),
    "A5": lambda: close_generators([[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]),  # perfect
    "Z1": lambda: cyclic_group(1),
}

_small_groups = st.one_of(
    st.sampled_from(sorted(_NAMED_GROUPS)).map(lambda name: _NAMED_GROUPS[name]()),
    st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]), min_size=1, max_size=3)
      .filter(lambda ds: np.prod(ds) <= 144).map(_cyclic_product),
    st.integers(3, 12).map(_dihedral),
    st.tuples(st.sampled_from(["Q8", "A4", "Z12"]), st.integers(3, 6))
      .map(lambda t: direct_product(_NAMED_GROUPS[t[0]](), _dihedral(t[1]))),
    st.integers(2, 6).flatmap(lambda deg: st.lists(st.permutations(list(range(deg))), min_size=1, max_size=3))
      .map(close_generators),
)


@settings(max_examples=60, deadline=None)
@given(_small_groups)
def test_abelianization_matches_quotient_table_oracle(g):
    """The Smith form of the Schreier relations gives the invariant factors and
    commutator subgroup of the coset-table oracle, and its projection is a
    homomorphism onto the product of the cyclic factors."""
    ab = abelianization(g)
    assert (ab.cyclic_orders, ab.commutator_subgroup) == quotient_table_abelianization(g)
    orders = np.array(ab.cyclic_orders, dtype=np.int64)
    proj = np.asarray(ab.projection)
    assert proj.shape == (g.order, len(orders))
    assert not ((proj[np.asarray(g.mul)] - proj[:, None] - proj[None, :]) % orders).any()
    assert len({tuple(row) for row in proj.tolist()}) == np.prod(orders, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(_small_groups, st.sampled_from([2, 3, 4, 6]), st.data())
def test_generator_character_check_matches_all_pairs_oracle(g, n, data):
    """is_character on the generators decides as the all-pairs compare, on
    characters, on characters moved at one element and on random values, one
    map at a time and as columns of one array."""
    chars = list(all_characters(g, n))
    maps = []
    for kind in data.draw(st.lists(st.sampled_from(["character", "moved", "random"]), min_size=1, max_size=3)):
        v = np.array(chars[data.draw(st.integers(0, len(chars) - 1))].values, dtype=np.int64)
        if kind == "moved":
            v[data.draw(st.integers(0, g.order - 1))] += data.draw(st.integers(1, n - 1))
        elif kind == "random":
            v = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=g.order, max_size=g.order)))
        maps.append(v)
        assert is_character(g, v, n) == all_pairs_is_character(g, v, n)
        assert kind != "character" or is_character(g, v, n)
    verdicts = [all_pairs_is_character(g, v, n) for v in maps]
    assert is_character(g, np.stack(maps, axis=1), n) == all(verdicts)


def test_character_checks_stay_linear_in_the_order():
    """A splitting character of Z2 x Z2000 and its grading are checked on the
    generators: the all-pairs compares held 4000 x 4000 arrays (about 260 MB)."""
    g = direct_product(cyclic_group(2), cyclic_group(2000))
    inv = CentralInvolution(g, 2000)
    tracemalloc.start()
    try:
        chi = splitting_character(inv)
        grading = ZGrading(group=g, degree=chi.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chi(inv.u) == 1 and grading.degree.tolist() == chi.values.tolist()
    assert peak < 16 * 2**20


def test_tables_are_built_without_int64_temporaries(monkeypatch):
    """The int32 tables of Z4000 and Z2 x Z2000 peak below 1.5 times their
    size while they are built.  The peak is read when the table reaches the
    FiniteGroup constructor, whose BFS is not part of the build."""
    z2, z2000 = cyclic_group(2), cyclic_group(2000)
    built = []
    monkeypatch.setattr(groups, "FiniteGroup", lambda **kw: built.append((tracemalloc.get_traced_memory()[1], kw["mul"])))
    for build in (lambda: cyclic_group(4000), lambda: direct_product(z2, z2000)):
        tracemalloc.start()
        try:
            build()
        finally:
            tracemalloc.stop()
    (peak_c, mul_c), (peak_d, mul_d) = built
    assert mul_c[3999, 1] == 0 and mul_c[1234, 3000] == 234
    assert mul_d[2000 + 1999, 2000 + 1] == 0 and mul_d[1, 2000 + 1999] == 2000
    for peak, mul in built:
        assert mul.dtype == np.int32 and mul.shape == (4000, 4000)
        assert peak < 1.5 * mul.nbytes


def test_group_keeps_no_word_per_element():
    """The BFS keeps its tree and no word per element: cyclic_group(4000) keeps
    its 61 MB int32 table plus well under 1 MB (a word per element was 61 MB
    more), and the greedy generator choice on the Z2 x Z2000 table keeps under
    1 MB and peaks under 2 MB beyond the shared table."""
    tracemalloc.start()
    try:
        g = cyclic_group(4000)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.word(3999) == (0,) * 3999 and kept < 62 * 2**20
    d = direct_product(cyclic_group(2), cyclic_group(2000))
    tracemalloc.start()
    try:
        g = groups.FiniteGroup(order=4000, mul=d.mul, inv=d.inv, identity=0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.gens == (1, 2000) and g.word(2001) == (0, 1)
    assert kept < 2**20 and peak < 2 * 2**20


def test_splitting_character_examples(datum_g2, datum_b2):
    chi = splitting_character(datum_g2.inv)
    assert chi is not None and chi(datum_g2.inv.u) == 1
    assert splitting_character(datum_b2.inv) is None
    g = direct_product(cyclic_group(2), symmetric_group(3))
    inv = CentralInvolution(g, symmetric_group(3).order)
    chi = splitting_character(inv)
    assert chi is not None and chi(inv.u) == 1


def test_splitting_character_oracle():
    """Exists iff exhaustive character enumeration finds chi with chi(u) = 1."""
    cases = [
        (cyclic_group(4), 2),
        (direct_product(cyclic_group(2), cyclic_group(2)), 2),
        (direct_product(cyclic_group(2), cyclic_group(4)), 4 + 2),
        (cyclic_group(2), 1),
    ]
    for g, u in cases:
        inv = CentralInvolution(g, u)
        got = splitting_character(inv)
        brute = any(chi(u) == 1 for chi in all_characters(g, 2))
        assert (got is not None) == brute
        if got is not None:
            assert got(u) == 1


def test_group_spec_roundtrip():
    g = symmetric_group(3)
    doc = serialize_group(g)
    g2, _ = parse_group_spec(doc)
    assert g2.order == g.order
    assert (np.asarray(g2.mul) == np.asarray(g.mul)).all()
    assert json.loads(json.dumps(doc)) == doc


def test_group_spec_u_word():
    spec = {"kind": "permutations", "generators": [[1, 0, 2, 3], [0, 1, 3, 2]], "u": "g0 g1"}
    g, u = parse_group_spec(spec)
    assert g.order == 4
    assert u == g.word_to_element([0, 1])


def test_u_word_names_the_generators_as_listed():
    """gk is the k-th generator of the file, identity and repeats included."""
    swap01, ident, swap23 = [1, 0, 2, 3], [0, 1, 2, 3], [0, 1, 3, 2]
    g, u = parse_group_spec({"kind": "permutations", "generators": [swap01, ident, swap23], "u": "g1"})
    assert u == g.identity
    assert [g.element_data[s] for s in g.gens] == [tuple(swap01), tuple(ident), tuple(swap23)]
    g, u = parse_group_spec({"kind": "permutations", "generators": [swap01, ident, swap23, swap01], "u": "g0 g2"})
    assert g.order == 4 and len(g.gens) == 4 and g.gens[0] == g.gens[3]
    assert g.element_data[u] == (1, 0, 3, 2)


def test_bad_specs_raise():
    with pytest.raises(ParseError):
        parse_group_spec({"kind": "nonsense"})
    with pytest.raises(ParseError):
        parse_group_spec({"kind": "permutations", "generators": [[0, 0, 1]]})


@st.composite
def _rational_rows(draw):
    """Up to 7 rows of up to 7 rationals (numerators up to 2^70 in one case in
    four), with zero rows and rows that are rational combinations of earlier ones."""
    ncols = draw(st.integers(0, 7))
    big = draw(st.integers(0, 3)) == 0
    entry = st.fractions(-(2**70), 2**70, max_denominator=50) if big else st.fractions(-5, 5, max_denominator=6)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(st.fractions(-3, 3, max_denominator=4)), draw(st.fractions(-3, 3, max_denominator=4))
            rows.append([x * p + y * q for p, q in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


@settings(max_examples=150, deadline=None)
@given(_rational_rows())
def test_row_reduce_matches_fraction_gauss_jordan(rows):
    """The fraction-free elimination gives the reduced row echelon form and the
    pivots of Gauss-Jordan on Fractions, also with int entries."""
    assert groups._row_reduce(rows) == fraction_row_reduce(rows)
    ints = [[x.numerator for x in row] for row in rows]
    assert groups._row_reduce(ints) == fraction_row_reduce([[Fraction(x) for x in row] for row in ints])
