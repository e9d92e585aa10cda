"""Exact square integer matrices: the value type of witnesses.

Entries are plain Python integers in an immutable row-major tuple, so
values are exact at any size and hash and compare structurally. There is
no arithmetic here: certification reads a matrix's nonzero entries once
and works on its components from them, multiplying a block only with
vectors (`sptorsion.witness`).
"""

from __future__ import annotations

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
