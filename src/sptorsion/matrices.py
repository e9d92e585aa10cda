"""Exact square integer matrices and the little linear algebra the
witnesses need.

Everything is plain Python integers in immutable row-major tuples, so
arithmetic is exact at any size and values hash and compare structurally.
diagonal_blocks splits a matrix into the direct sum its nonzero pattern
allows, so a witness is certified block by block. There is no matrix
product: certification multiplies a block only with vectors
(`sptorsion.witness`).
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter

__all__ = ["IntMatrix"]


class IntMatrix:
    """Immutable size x size integer matrix; entries row-major."""

    __slots__ = ("_size", "_entries")

    def __init__(self, size: int, entries: tuple[int, ...]) -> None:
        if size < 0:
            raise ValueError("matrix size must be nonnegative")
        if len(entries) != size * size:
            raise ValueError(f"{size}x{size} matrix needs {size * size} entries, got {len(entries)}")
        self._size, self._entries = size, entries

    # read-only fields
    size = property(attrgetter("_size"))
    entries = property(attrgetter("_entries"))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._entries == other._entries  # their length fixes the size

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"IntMatrix(size={self._size!r}, entries={self._entries!r})"

    def row(self, i: int) -> tuple[int, ...]:
        n = self._size
        return self._entries[i * n : (i + 1) * n]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self._size)]

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self._size, tuple(-x for x in self._entries))

    def diagonal_blocks(self) -> list["IntMatrix"]:
        """Principal submatrices on the connected components of the
        nonzero pattern, ordered by smallest index.

        Union-find joins row i and column j whenever entry (i, j) is
        nonzero, so every entry outside the blocks is zero: the matrix is
        their direct sum after one simultaneous permutation of rows and
        columns, and its k-th power is I exactly when every block's is.
        """
        n, entries = self._size, self._entries
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
            IntMatrix(len(idx), tuple(entries[r * n + c] for r in idx for c in idx))
            for idx in members.values()
        ]
