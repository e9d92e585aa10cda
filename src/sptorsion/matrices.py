"""Exact integer matrices and the little linear algebra the witnesses need.

Everything is plain Python integers in immutable row-major tuples, so
arithmetic is exact at any size and values hash and compare structurally.
Products skip zero entries of the left operand, and powers use binary
exponentiation.

standard_form(g) is the block form J with upper-right +I_g, lower-left
-I_g; a matrix A is symplectic for it when A^T J A = J.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "IntMatrix",
    "identity",
    "standard_form",
]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; entries row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "IntMatrix":
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(n, m, tuple(x for r in rows for x in r))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-x for x in self.entries))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

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

    def __pow__(self, e: int) -> "IntMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices have powers")
        if e < 0:
            raise ValueError("negative powers not supported")
        result = identity(self.rows)
        base = self
        while e:
            if e & 1:
                result = result @ base
            e >>= 1
            if e:
                base = base @ base
        return result

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        n = self.cols
        return all(
            x == (1 if i % (n + 1) == 0 else 0) for i, x in enumerate(self.entries)
        ) if n else True


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


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
