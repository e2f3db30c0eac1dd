"""Shared fixtures; expensive Weyl data is session scoped so the memos
attached to the group instances are reused across test modules."""

from __future__ import annotations

import pytest

from superbrauer import (
    CentralInvolution,
    RootSystemType,
    close_generators,
    cyclic_group,
    direct_product,
    group_datum,
    group_from_table,
    symmetric_group,
)


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def z4_shifted():
    """Z4 as a table with element i + 1 for i in Z4: the identity is element 1."""
    return group_from_table([[(a + b - 1) % 4 for b in range(4)] for a in range(4)])


@pytest.fixture(scope="session")
def z2z2():
    return direct_product(cyclic_group(2), cyclic_group(2))


@pytest.fixture(scope="session")
def z2z4():
    return direct_product(cyclic_group(2), cyclic_group(4))


@pytest.fixture(scope="session")
def z4z4():
    return direct_product(cyclic_group(4), cyclic_group(4))


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric_group(4)


@pytest.fixture(scope="session")
def q8():
    # quaternion group as 4x4 integer matrices (left multiplication by i, j)
    i = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    j = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    g = close_generators([i, j])
    assert g.order == 8
    return g


@pytest.fixture(scope="session")
def wb2_signed():
    """W(B2) as signed permutations of the orthonormal basis (Sigma = I invariant)."""
    return close_generators([[[0, 1], [1, 0]], [[1, 0], [0, -1]]])


def _minus_identity_index(g, dim):
    from fractions import Fraction

    minus = tuple(tuple(Fraction(-1) if i == j else Fraction(0) for j in range(dim)) for i in range(dim))
    return next(i for i in range(g.order) if g.element_data[i] == minus)


@pytest.fixture(scope="session")
def wb2_inv(wb2_signed):
    return CentralInvolution(wb2_signed, _minus_identity_index(wb2_signed, 2))


@pytest.fixture(scope="session")
def datum_a1():
    return group_datum(RootSystemType.parse("A1"))


@pytest.fixture(scope="session")
def datum_a2():
    return group_datum(RootSystemType.parse("A2"))


@pytest.fixture(scope="session")
def datum_a3():
    return group_datum(RootSystemType.parse("A3"))


@pytest.fixture(scope="session")
def datum_b2():
    return group_datum(RootSystemType.parse("B2"))


@pytest.fixture(scope="session")
def datum_b3():
    return group_datum(RootSystemType.parse("B3"))


@pytest.fixture(scope="session")
def datum_d4():
    return group_datum(RootSystemType.parse("D4"))


@pytest.fixture(scope="session")
def datum_g2():
    return group_datum(RootSystemType.parse("G2"))
