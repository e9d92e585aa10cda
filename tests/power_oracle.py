"""Dense whole-matrix arithmetic: the oracle that certification is
tested against.

`sptorsion` makes no matrix product; this module keeps the dense one.
`matmul` is the schoolbook product, skipping zero entries of the left
operand, `binary_power` is plain square-and-multiply with it, and
`oracle_certificate` runs the three witness checks with them, one
powering chain per exponent, the way certification worked before it
split the matrix into components and decided each from minimal
polynomials. It is the one place that still forms A^T J A, with
`transpose` and the `standard_form` J.
"""
from __future__ import annotations

from sympy import primefactors

from sptorsion.matrices import IntMatrix
from sptorsion.witness import ProperPowerCheck, WitnessCertificate


def from_rows(rows: list[list[int]]) -> IntMatrix:
    """The square matrix with these rows; ValueError unless each row is
    as long as there are rows."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"a {n}-row matrix needs rows of length {n}")
    return IntMatrix(n, tuple(x for r in rows for x in r))


def transpose(a: IntMatrix) -> IntMatrix:
    n, entries = a.size, a.entries
    return IntMatrix(n, tuple(x for j in range(n) for x in entries[j::n]))


def standard_form(g: int) -> IntMatrix:
    """The 2g x 2g alternating block form J: +I_g upper right, -I_g lower
    left; a matrix A is symplectic for it when A^T J A = J."""
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    n = 2 * g
    entries = [0] * (n * n)
    for i in range(g):
        entries[i * n + (g + i)] = 1
        entries[(g + i) * n + i] = -1
    return IntMatrix(n, tuple(entries))


def identity(n: int) -> IntMatrix:
    entries = [0] * (n * n)
    entries[:: n + 1] = [1] * n
    return IntMatrix(n, tuple(entries))


def is_identity(a: IntMatrix) -> bool:
    return a == identity(a.size)


def trace(a: IntMatrix) -> int:
    return sum(a.entries[:: a.size + 1])


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a b; ValueError unless the sizes agree."""
    n = a.size
    if b.size != n:
        raise ValueError(f"cannot multiply {n}x{n} by {b.size}x{b.size}")
    x, y = a.entries, b.entries
    out = [0] * (n * n)
    for i in range(n):
        arow = x[i * n : (i + 1) * n]
        base = i * n
        for t in range(n):
            av = arow[t]
            if av == 0:
                continue
            brow = y[t * n : (t + 1) * n]
            for j in range(n):
                out[base + j] += av * brow[j]
    return IntMatrix(n, tuple(out))


def binary_power(a: IntMatrix, e: int) -> IntMatrix:
    """a^e for e >= 0: one product per set bit of e (the first one by
    the identity) and one squaring per bit below the top."""
    if e < 0:
        raise ValueError("negative powers not supported")
    result = identity(a.size)
    base = a
    while e:
        if e & 1:
            result = matmul(result, base)
        e >>= 1
        if e:
            base = matmul(base, base)
    return result


def oracle_certificate(a: IntMatrix, m: int, g: int) -> WitnessCertificate:
    """Symplectic, A^m = I and A^(m/p) = I for every prime p of m, each
    power taken on the whole matrix."""
    j = standard_form(g)
    return WitnessCertificate(
        matmul(matmul(transpose(a), j), a) == j,
        is_identity(binary_power(a, m)),
        tuple(
            ProperPowerCheck(p, m // p, is_identity(binary_power(a, m // p)))
            for p in primefactors(m)
        ),
    )
