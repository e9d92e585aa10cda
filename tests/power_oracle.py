"""Binary powering of whole matrices: the oracle that certification is
tested against.

`binary_power` is plain square-and-multiply on the dense matrix, and
`oracle_certificate` runs the three witness checks with it, one powering
chain per exponent, the way certification worked before it split the
matrix into components.
"""
from __future__ import annotations

from sympy import primefactors

from sptorsion.matrices import IntMatrix, identity, standard_form
from sptorsion.witness import ProperPowerCheck, WitnessCertificate


def binary_power(a: IntMatrix, e: int) -> IntMatrix:
    """a^e for e >= 0: one product per set bit of e (the first one by
    the identity) and one squaring per bit below the top."""
    if a.rows != a.cols:
        raise ValueError("only square matrices have powers")
    if e < 0:
        raise ValueError("negative powers not supported")
    result = identity(a.rows)
    base = a
    while e:
        if e & 1:
            result = result @ base
        e >>= 1
        if e:
            base = base @ base
    return result


def oracle_certificate(a: IntMatrix, m: int, g: int) -> WitnessCertificate:
    """Symplectic, A^m = I and A^(m/p) = I for every prime p of m, each
    power taken on the whole matrix."""
    j = standard_form(g)
    return WitnessCertificate(
        a.transpose() @ j @ a == j,
        binary_power(a, m).is_identity(),
        tuple(
            ProperPowerCheck(p, m // p, binary_power(a, m // p).is_identity())
            for p in primefactors(m)
        ),
    )
