"""Cyclotomic polynomials, the trace-form blocks, and witness certificates."""
from __future__ import annotations

import pytest

from sptorsion.criterion import enumerate_orders, membership
from sptorsion.matrices import IntMatrix, identity, standard_form
from sptorsion.numtheory import is_prime, totient_prime_power
from sptorsion.witness import (
    NotRealizableError,
    _lift,
    _prime_power_block,
    _trace_form_row,
    build_witness,
    companion,
    cyclotomic,
    verify_witness,
    witness_from_json,
    witness_to_json,
)

# every prime power n = p^alpha >= 3 with phi(n) <= 130: 45 blocks
PRIME_POWERS = [
    (p, alpha)
    for p in range(2, 132)
    if is_prime(p)
    for alpha in range(1, 9)
    if p**alpha >= 3 and totient_prime_power(p, alpha) <= 130
]


def poly_eval(poly: tuple[int, ...], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def test_cyclotomic_small():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(8) == (1, 0, 0, 0, 1)
    assert cyclotomic(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", list(range(1, 121)))
def test_cyclotomic_product_identity(n):
    # the product of Phi_d over divisors d of n is x^n - 1
    product = (1,)
    for d in divisors(n):
        product = poly_mul(product, cyclotomic(d))
    expected = tuple([-1] + [0] * (n - 1) + [1])
    assert product == expected


def test_cyclotomic_105_has_coefficient_two():
    # first index where a coefficient outside {-1, 0, 1} appears
    poly = cyclotomic(105)
    assert poly[7] == -2


@pytest.mark.parametrize("n", [3, 4, 5, 9, 12, 16, 25, 49])
def test_cyclotomic_palindrome(n):
    poly = cyclotomic(n)
    assert poly == poly[::-1]


def test_companion_shape_and_charpoly():
    sympy = pytest.importorskip("sympy")
    for poly in [(1, 1, 1), (1, 0, 1), (-2, 3, 0, 1), (5, -1, 2, 0, 0, 1)]:
        c = companion(poly)
        d = len(poly) - 1
        assert c.rows == c.cols == d
        # char poly check by evaluation: det(xI - C) agrees with the input
        # polynomial at d+1 points, which pins a degree-d monic polynomial
        for x in range(-(d + 1) // 2, d // 2 + 2):
            scaled = sympy.Matrix(
                [
                    [x * (1 if i == j else 0) - c[i, j] for j in range(d)]
                    for i in range(d)
                ]
            )
            assert scaled.det() == poly_eval(poly, x)


def test_companion_rejects_bad_input():
    with pytest.raises(ValueError):
        companion((1, 2))  # not monic
    with pytest.raises(ValueError):
        companion((1,))  # degree 0


def test_companion_satisfies_own_polynomial():
    poly = cyclotomic(12)
    c = companion(poly)
    d = c.rows
    acc = IntMatrix.from_rows([[0] * d for _ in range(d)])
    power = identity(d)
    for coeff in poly:
        if coeff:
            acc = acc + IntMatrix.from_rows(
                [[coeff * power[i, j] for j in range(d)] for i in range(d)]
            )
        power = power @ c
    assert acc.to_rows() == [[0] * d for _ in range(d)]


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_invariant_lattice_and_form(n):
    # the trace form on the lattice Z[zeta_n], in the power basis:
    # P^T J P = [[0, T], [-T^T, 0]] with P = diag(I, T)
    poly = cyclotomic(n)
    d = len(poly) - 1
    row = _trace_form_row(poly)
    p_matrix = _lift(row)
    form = p_matrix.transpose() @ standard_form(d // 2) @ p_matrix
    c = companion(poly)
    assert form.transpose() == -form
    assert c.transpose() @ form @ c == form
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
    # s_e is the coefficient of x^(d-1) in x^e mod Phi_n
    expected = [
        sympy.Poly(x**e, x).rem(phi).coeff_monomial(x ** (d - 1))
        for e in range(d - 1, d - 1 + d // 2)
    ]
    assert row == expected
    assert sympy.Matrix(form.to_rows()).det() == 1


@pytest.mark.parametrize(
    "p, alpha", PRIME_POWERS, ids=[str(p**a) for p, a in PRIME_POWERS]
)
def test_prime_power_block(p, alpha):
    n = p**alpha
    a = _prime_power_block(p, alpha)
    j = standard_form(a.rows // 2)
    assert a.transpose() @ j @ a == j
    assert (a**n).is_identity()
    assert not (a ** (n // p)).is_identity()
    if a.rows <= 40:
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        charpoly = sympy.Matrix(a.to_rows()).charpoly(x)
        assert charpoly == sympy.Poly(sympy.cyclotomic_poly(n, x), x)


@pytest.mark.parametrize("p, alpha", [(17, 1), (19, 1), (3, 3), (2, 5), (5, 2)])
def test_blocks_up_to_totient_twenty(p, alpha):
    # every block the g <= 10 sweeps need gives a certified witness
    totient = p ** (alpha - 1) * (p - 1)
    w = build_witness(p**alpha, totient // 2)
    assert w.certificate.all_passed


def test_witness_examples():
    w = build_witness(2, 1)
    assert w.matrix.to_rows() == [[-1, 0], [0, -1]]
    w = build_witness(4, 1)
    assert w.matrix.to_rows() == [[0, -1], [1, 0]]
    w = build_witness(6, 1)
    assert w.certificate.all_passed
    assert (w.matrix**6).is_identity()
    assert not (w.matrix**3).is_identity()
    assert not (w.matrix**2).is_identity()


def test_witness_not_realizable():
    with pytest.raises(NotRealizableError) as exc_info:
        build_witness(5, 1)
    decision = exc_info.value.decision
    assert not decision.member
    assert decision.deficit == 2


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_witness_sweep_small(g):
    j = standard_form(g)
    for m in enumerate_orders(g):
        w = build_witness(m, g)
        a = w.matrix
        assert a.rows == 2 * g
        assert a.transpose() @ j @ a == j
        assert (a**m).is_identity()
        for term in membership(m, g).report.terms:
            assert not (a ** (m // term.prime)).is_identity()


def test_witness_deterministic():
    first = build_witness(12, 3)
    second = build_witness(12, 3)
    assert first.matrix == second.matrix
    assert witness_to_json(first) == witness_to_json(second)


def test_witness_serialization_round_trip():
    w = build_witness(12, 3)
    document = witness_to_json(w)
    restored = witness_from_json(document)
    assert restored.matrix == w.matrix
    assert restored.claimed_order == 12
    assert restored.certificate.all_passed
    assert verify_witness(restored, 3).all_passed


def test_verify_rejects_tampering():
    w = build_witness(6, 2)
    rows = w.matrix.to_rows()
    rows[0][0] += 1
    tampered = type(w)(
        matrix=IntMatrix.from_rows(rows),
        claimed_order=w.claimed_order,
        certificate=w.certificate,
    )
    certificate = verify_witness(tampered, 2)
    assert not certificate.all_passed
    assert "symplectic" in certificate.failing_checks()


def test_verify_rejects_size_mismatch():
    w = build_witness(4, 1)
    with pytest.raises(ValueError):
        verify_witness(w, 2)


def test_witness_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        witness_from_json("not json")
    with pytest.raises(ValueError):
        witness_from_json("{}")
