"""The reference construction of the prime-power blocks: P C P^-1.

For n = p^alpha, C is the companion matrix of Phi_n and P = diag(I, T)
carries the trace form of Z[zeta_n] to the standard form J (see the
`sptorsion.witness` module docstring). `sptorsion.witness` writes the
product down directly; the tests check it against this one.
"""

from __future__ import annotations

from power_oracle import matmul

from sptorsion.matrices import IntMatrix


def _block_polynomial(p: int, alpha: int) -> tuple[int, ...]:
    """Phi_(p^alpha)(x) = Phi_p(x^q), q = p^(alpha-1), ascending: ones at
    the multiples of q up to the degree (p - 1) q."""
    q = p ** (alpha - 1)
    return tuple(int(e % q == 0) for e in range((p - 1) * q + 1))


def companion(poly: tuple[int, ...]) -> IntMatrix:
    """Companion matrix of a monic polynomial: subdiagonal ones, last
    column the negated lower coefficients."""
    if len(poly) < 2:
        raise ValueError("polynomial must have degree >= 1")
    if poly[-1] != 1:
        raise ValueError("companion matrix needs a monic polynomial")
    d = len(poly) - 1
    entries = [0] * (d * d)
    for i in range(1, d):
        entries[i * d + (i - 1)] = 1
    for i in range(d):
        entries[i * d + (d - 1)] = -poly[i]
    return IntMatrix(d, tuple(entries))


def _trace_form_row(p: int, alpha: int) -> list[int]:
    """First row s_(d-1), ..., s_(d+h-2) of T = I - N^q: one, then -1 at
    offset q when q < h (see the `sptorsion.witness` docstring)."""
    q = p ** (alpha - 1)
    return [int(t == 0) - int(t == q) for t in range((p - 1) * q // 2)]


def _lift(row: list[int]) -> IntMatrix:
    """diag(I_h, T) for the h x h upper-triangular Toeplitz T of `row`."""
    h = len(row)
    n = 2 * h
    entries = [0] * (n * n)
    for i in range(h):
        entries[i * n + i] = 1
        for j in range(i, h):
            entries[(h + i) * n + h + j] = row[j - i]
    return IntMatrix(n, tuple(entries))


def conjugated_companion(p: int, alpha: int) -> IntMatrix:
    """P C P^-1 with P = diag(I, T), P^-1 = diag(I, T^-1),
    T^-1 = sum_k N^(kq)."""
    q = p ** (alpha - 1)
    inverse = [int(t % q == 0) for t in range((p - 1) * q // 2)]
    p_matrix = _lift(_trace_form_row(p, alpha))
    return matmul(matmul(p_matrix, companion(_block_polynomial(p, alpha))), _lift(inverse))
