"""Exact square integer matrices: construction, their components as
certification finds them, and the oracle's rows, negation, product,
powers, transpose and standard form."""
from __future__ import annotations

import copy
import pickle

import pytest

import power_oracle
from power_oracle import (
    binary_power,
    dense_block,
    from_rows,
    identity,
    is_identity,
    matmul,
    negated,
    nonzero_rows,
    standard_form,
    to_rows,
    trace,
    transpose,
)

from sptorsion.matrices import IntMatrix
from sptorsion.witness import _components


def test_construction_and_access():
    m = from_rows([[1, 2], [3, 4]])
    assert m.size == 2
    assert m.entries == (1, 2, 3, 4)
    assert m.row(1) == (3, 4)
    assert to_rows(m) == [[1, 2], [3, 4]]
    for rows in ([[1, 2], [3]], [[1, 2, 3]], [[1, 2, 3], [4]]):
        with pytest.raises(ValueError):
            from_rows(rows)


@pytest.mark.parametrize(
    "size, entries",
    [(2, (1, 2, 3)), (1, ()), (0, (1,)), (-1, ()), (-1, (1,))],
)
def test_construction_refuses_a_wrong_shape(size, entries):
    with pytest.raises(ValueError):
        IntMatrix(size, entries)


def test_matrix_is_an_immutable_value():
    m = IntMatrix(1, (1,))
    for name in ("size", "entries"):
        with pytest.raises(AttributeError):
            setattr(m, name, getattr(m, name))
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert repr(m) == "IntMatrix(size=1, entries=(1,))"
    same = IntMatrix(size=1, entries=(1,))
    assert m == same and not m != same and hash(m) == hash(same)
    assert copy.copy(m) == m == pickle.loads(pickle.dumps(m))
    assert dict.fromkeys([m, same, negated(m)]) == {m: None, negated(m): None}
    for other in (negated(m), IntMatrix(1, (2,)), (1, (1,)), identity(2), identity(0)):
        assert m != other and not m == other


def test_arithmetic():
    a = from_rows([[1, 2], [3, 4]])
    b = from_rows([[0, 1], [1, 0]])
    assert to_rows(matmul(a, b)) == [[2, 1], [4, 3]]
    assert to_rows(negated(a)) == [[-1, -2], [-3, -4]]
    assert to_rows(transpose(a)) == [[1, 3], [2, 4]]
    with pytest.raises(ValueError):
        matmul(a, identity(3))


def test_power():
    a = from_rows([[0, -1], [1, 0]])
    assert is_identity(binary_power(a, 4))
    assert not is_identity(binary_power(a, 2))
    assert is_identity(binary_power(a, 0))
    with pytest.raises(ValueError):
        binary_power(a, -1)


def test_power_matches_repeated_product(monkeypatch):
    a = from_rows([[2, 1], [1, 1]])  # infinite order
    products = []

    def counted(x, y):
        products.append(1)
        return matmul(x, y)

    monkeypatch.setattr(power_oracle, "matmul", counted)
    expected = identity(2)
    for e in range(40):
        products.clear()
        assert binary_power(a, e) == expected
        # one product per set bit and one squaring per bit below the top
        assert len(products) == (bin(e).count("1") + e.bit_length() - 1 if e else 0)
        expected = matmul(expected, a)


def test_diagonal_blocks_of_permuted_block_diagonal():
    # blocks at index sets {2, 5}, {0, 3, 7}, {6}, {1, 4}; the last one is
    # joined only by its upper-right entry
    placed = [
        ([2, 5], [[0, -1], [1, 1]]),
        ([0, 3, 7], [[2, 0, 1], [1, 1, 0], [0, 1, 3]]),
        ([6], [[5]]),
        ([1, 4], [[1, 1], [0, 1]]),
    ]
    rows = [[0] * 8 for _ in range(8)]
    for idx, block in placed:
        for r, i in enumerate(idx):
            for c, j in enumerate(idx):
                rows[i][j] = block[r][c]
    a = from_rows(rows)
    blocks = components(a)
    assert [to_rows(b) for b in blocks] == [placed[k][1] for k in (1, 3, 0, 2)]
    assert [trace(b) for b in blocks] == [6, 2, 1, 5]
    assert trace(a) == 14
    assert components(from_rows([[0] * 3] * 3)) == [from_rows([[0]])] * 3
    assert _components(nonzero_rows(from_rows([[0] * 3] * 3))) == [(1, ())] * 3
    assert components(identity(4)) == [identity(1)] * 4
    assert len(dict.fromkeys(_components(nonzero_rows(identity(4))))) == 1
    assert components(identity(0)) == [] and is_identity(identity(0))


def components(a: IntMatrix) -> list[IntMatrix]:
    """The blocks certification finds in a, as matrices."""
    return [dense_block(b) for b in _components(nonzero_rows(a))]


def test_standard_form_properties():
    sympy = pytest.importorskip("sympy")
    for g in range(1, 6):
        j = standard_form(g)
        assert transpose(j) == negated(j)
        assert matmul(j, j) == negated(identity(2 * g))
        assert sympy.Matrix(to_rows(j)).det() == 1
    with pytest.raises(ValueError):
        standard_form(0)
