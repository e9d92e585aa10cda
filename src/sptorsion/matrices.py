"""Exact integer matrices and the little linear algebra the witnesses need.

Everything is plain Python integers in immutable row-major tuples, so
arithmetic is exact at any size and values hash and compare structurally.
Products skip zero entries of the left operand. diagonal_blocks splits a
square matrix into the direct sum its nonzero pattern allows, so powers
can be taken block by block.

standard_form(g) is the block form J with upper-right +I_g, lower-left
-I_g; a matrix A is symplectic for it when A^T J A = J.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter

__all__ = [
    "IntMatrix",
    "identity",
    "standard_form",
]


class IntMatrix:
    """Immutable integer matrix; entries row-major."""

    __slots__ = ("_rows", "_cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self._rows, self._cols, self._entries = rows, cols, entries

    # read-only fields
    rows = property(attrgetter("_rows"))
    cols = property(attrgetter("_cols"))
    entries = property(attrgetter("_entries"))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._rows, self._cols, self._entries) == (other._rows, other._cols, other._entries)

    def __hash__(self) -> int:
        return hash((self._rows, self._cols, self._entries))

    def __repr__(self) -> str:
        return f"IntMatrix(rows={self._rows!r}, cols={self._cols!r}, entries={self._entries!r})"

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "IntMatrix":
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(n, m, tuple(x for r in rows for x in r))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self._entries[i * self._cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        cols, entries = self._cols, self._entries
        return IntMatrix(cols, self._rows, tuple(x for j in range(cols) for x in entries[j::cols]))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-x for x in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for t in range(k):
                av = arow[t]
                if av == 0:
                    continue
                brow = b[t * m : (t + 1) * m]
                base = i * m
                for j in range(m):
                    out[base + j] += av * brow[j]
        return IntMatrix(n, m, tuple(out))

    def trace(self) -> int:
        return sum(self.entries[:: self.cols + 1])

    def diagonal_blocks(self) -> list["IntMatrix"]:
        """Principal submatrices on the connected components of the
        nonzero pattern, ordered by smallest index.

        Union-find joins row i and column j whenever entry (i, j) is
        nonzero, so every entry outside the blocks is zero: the matrix is
        their direct sum after one simultaneous permutation of rows and
        columns, and its k-th power is I exactly when every block's is.
        """
        if self.rows != self.cols:
            raise ValueError("only square matrices have diagonal blocks")
        n, entries = self.rows, self.entries
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for at in compress(range(n * n), entries):
            parent[find(at // n)] = find(at % n)
        members: dict[int, list[int]] = {}
        for i in range(n):
            members.setdefault(find(i), []).append(i)
        return [
            IntMatrix(
                len(idx), len(idx), tuple(entries[r * n + c] for r in idx for c in idx)
            )
            for idx in members.values()
        ]

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        n = self.cols
        return all(
            x == (1 if i % (n + 1) == 0 else 0) for i, x in enumerate(self.entries)
        ) if n else True


def identity(n: int) -> IntMatrix:
    entries = [0] * (n * n)
    entries[:: n + 1] = [1] * n
    return IntMatrix(n, n, tuple(entries))


def standard_form(g: int) -> IntMatrix:
    """The 2g x 2g alternating block form J: +I_g upper right, -I_g lower left."""
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    n = 2 * g
    entries = [0] * (n * n)
    for i in range(g):
        entries[i * n + (g + i)] = 1
        entries[(g + i) * n + i] = -1
    return IntMatrix(n, n, tuple(entries))
