"""Sieve, bounded factorization, and primorials.

Every prime of an order in S(g) is at most 2g + 1, so trial division up
to that limit is a complete test: `factor(m, limit)` returns the prime
powers of m up to limit, as plain (prime, exponent) pairs, and the
unfactored cofactor, and divides by nothing above min(limit, isqrt(m)).
There is deliberately no large-integer machinery here.

Everything works on Python's native arbitrary-precision integers and is
deterministic. All returned objects are immutable; every function is
pure and safe to call concurrently.
"""

from __future__ import annotations

import math

__all__ = [
    "sieve",
    "factor",
    "primorial",
]


def sieve(limit: int) -> tuple[int, ...]:
    """Eratosthenes sieve: every prime <= limit, ascending, so pi(limit)
    is the length of the result.

    Raises ValueError for limit < 2.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = bytearray(len(range(start, limit + 1, p)))
    return tuple(i for i, f in enumerate(flags) if f)


def factor(m: int, limit: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The prime powers of m >= 1 whose primes are <= limit, and the rest.

    The first item is a tuple of (prime, exponent) pairs, primes
    ascending, exponents >= 1; it is empty when no such prime divides m.

    Trial division by 2 and the odd numbers up to min(limit, isqrt(rest)),
    with no table: the cost is bounded by the smaller of the two, so a
    huge m or a huge limit alone stays cheap. The cofactor (second item)
    is 1 exactly when every prime of m is <= limit; otherwise it is the
    product of the prime powers of m above limit. Raises ValueError for
    m <= 0.
    """
    if m <= 0:
        raise ValueError(f"cannot factor non-positive integer {m}")
    entries: list[tuple[int, int]] = []
    rest = m
    d = 2
    while d <= limit and d * d <= rest:
        if rest % d == 0:
            a = 0
            while rest % d == 0:
                rest //= d
                a += 1
            entries.append((d, a))
        d += 1 if d == 2 else 2
    if 1 < rest <= limit:  # no divisor up to isqrt(rest): rest is prime
        entries.append((rest, 1))
        rest = 1
    return tuple(entries), rest


def primorial(x: int) -> int:
    """Product of every prime <= x (x >= 2). Exact."""
    if x < 2:
        raise ValueError(f"primorial needs x >= 2, got {x}")
    m = 1
    for p in sieve(x):
        m *= p
    return m
