"""Cyclotomic polynomials, the trace-form blocks, and witness certificates."""
from __future__ import annotations

import hashlib
import json
import random
import time
from math import gcd

import pytest
import sympy

from power_oracle import binary_power, oracle_certificate
from sptorsion import cli
from sptorsion.criterion import enumerate_orders, membership
from sptorsion.matrices import IntMatrix, identity, standard_form
from sptorsion.witness import (
    NotRealizableError,
    SymplecticWitness,
    _certify,
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
    for p in sympy.primerange(2, 132)
    for alpha in range(1, 9)
    if p**alpha >= 3 and sympy.totient(p**alpha) <= 130
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


def test_cyclotomic_against_sympy():
    x = sympy.Symbol("x")
    for n in range(1, 301):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(cyclotomic(n)) == expected, n


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
    acc = [0] * (d * d)
    power = identity(d)
    for coeff in poly:
        acc = [x + coeff * y for x, y in zip(acc, power.entries)]
        power = power @ c
    assert acc == [0] * (d * d)


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
    assert binary_power(a, n).is_identity()
    assert not binary_power(a, n // p).is_identity()
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
    assert binary_power(w.matrix, 6).is_identity()
    assert not binary_power(w.matrix, 3).is_identity()
    assert not binary_power(w.matrix, 2).is_identity()


def test_witness_not_realizable():
    with pytest.raises(NotRealizableError, match="cost 6 exceeds budget 4 by 2") as exc_info:
        build_witness(9, 2)
    decision = exc_info.value.decision
    assert not decision.member
    assert decision.deficit == 2
    with pytest.raises(NotRealizableError, match="prime factor above 2g \\+ 1 = 3") as exc_info:
        build_witness(5, 1)
    assert exc_info.value.decision.report.cofactor == 5


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_witness_sweep_small(g):
    j = standard_form(g)
    for m in enumerate_orders(g):
        w = build_witness(m, g)
        a = w.matrix
        assert a.rows == 2 * g
        assert a.transpose() @ j @ a == j
        assert binary_power(a, m).is_identity()
        for term in membership(m, g).report.terms:
            assert not binary_power(a, m // term.prime).is_identity()


# SHA-256 of the concatenated witness documents of S(g), ascending m
WITNESS_DIGESTS = {
    1: "33204b453c64ada4e48dd3307412356d9e2453e90abc73953c86634a4311fa3b",
    2: "4251d9ae82a337f1cb9db9eee149e873a081a9997ee87fba9f70dae8fd0a6e48",
    3: "db252cbd08a3211fb467cfe6e820e2b0a3f5c92627771a7aa01e8cfa52506685",
    4: "2ad242f4715731ef5c451a5dc49bca93a0f2624585fc954e7d4c0253d2911070",
    5: "8e396a7c640023d6b1e285eba6cd8748c38d4a59d53760b487ec80691f2b80ec",
    6: "79d06aedec6e1674f478db6a27280a77a2164cb043d0d8458c2b20ef772f38f6",
}


def test_witness_documents_frozen_g1_6():
    counts = {}
    for g, expected in WITNESS_DIGESTS.items():
        digest = hashlib.sha256()
        orders = enumerate_orders(g)
        for m in orders:
            digest.update(witness_to_json(build_witness(m, g)).encode())
        counts[g] = len(orders)
        assert digest.hexdigest() == expected, g
    assert sum(counts.values()) == 132


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


# ---------------------------------------------------------------------------
# certification against whole-matrix binary powering

# small blocks of known finite order, as (rows, order)
FINITE_PIECES = [
    ([[1]], 1),
    ([[-1]], 2),
    ([[0, -1], [1, 0]], 4),
    ([[0, -1], [1, 1]], 6),
    ([[0, -1], [1, -1]], 3),
    ([[0, 1], [1, 0]], 2),
    ([[0, 0, 1], [-1, 0, 0], [0, 1, 0]], 6),
    (_prime_power_block(5, 1).to_rows(), 5),
    (_prime_power_block(2, 3).to_rows(), 8),
]


def permuted(rows: list[list[int]], rng: random.Random) -> IntMatrix:
    """P A P^T for a random permutation P."""
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    entries = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            entries[perm[i] * n + perm[j]] = rows[i][j]
    return IntMatrix(n, n, tuple(entries))


def finite_order_matrix(n: int, rng: random.Random) -> tuple[IntMatrix, int]:
    """A permuted direct sum of FINITE_PIECES, and its order."""
    rows = [[0] * n for _ in range(n)]
    order, at = 1, 0
    while at < n:
        piece, piece_order = rng.choice(
            [p for p in FINITE_PIECES if len(p[0]) <= n - at]
        )
        for i, row in enumerate(piece):
            rows[at + i][at : at + len(row)] = row
        order = order * piece_order // gcd(order, piece_order)
        at += len(piece)
    return permuted(rows, rng), order


def unipotent_matrix(n: int, rng: random.Random) -> IntMatrix:
    rows = [
        [int(i == j) if j <= i else rng.choice((0, 0, 0, -2, -1, 1, 2)) for j in range(n)]
        for i in range(n)
    ]
    return permuted(rows, rng)


def sparse_matrix(n: int, rng: random.Random) -> IntMatrix:
    entries = tuple(
        rng.choice((-2, -1, 1, 2)) if rng.random() < 0.3 else 0 for _ in range(n * n)
    )
    return IntMatrix(n, n, entries)


def certify_cases(seed: int):
    """(matrix, claimed order) pairs: exact, multiple and proper-divisor
    claims for finite-order matrices; small and large claims for
    unipotent and random sparse ones."""
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.choice((2, 4, 6, 8))
        a, order = finite_order_matrix(n, rng)
        claims = {order, 2 * order, 3 * order, 5 * order, order + 1, order << 20}
        claims |= {order // p for p in sympy.primefactors(order) if order // p >= 2}
        for m in sorted(c for c in claims if c >= 2):
            yield a, m
        u = unipotent_matrix(n, rng)
        for m in (2, 6, 2**30 * 3**5):
            yield u, m
        r = sparse_matrix(n, rng)
        for m in (2, 3, 4, 12, 60, 720):
            yield r, m


@pytest.mark.parametrize("seed", range(4))
def test_certify_matches_binary_powering(seed):
    outcomes = set()
    for a, m in certify_cases(seed):
        expected = oracle_certificate(a, m, a.rows // 2)
        assert _certify(a, m, a.rows // 2, tuple(sympy.primefactors(m))) == expected, (
            a.to_rows(),
            m,
        )
        outcomes.add(expected.power_identity)
        outcomes.update(f"proper-{c.identity}" for c in expected.proper_powers)
    # both answers of both kinds of check occur
    assert outcomes == {True, False, "proper-True", "proper-False"}


@pytest.fixture
def products(monkeypatch):
    """Sizes of the matrix products made while the fixture is active."""
    made = []
    matmul = IntMatrix.__matmul__

    def counted(x, y):
        made.append(x.rows)
        return matmul(x, y)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    return made


def test_certify_heavy_order_product_count(products):
    witness = build_witness(12252240, 34)
    products.clear()
    assert verify_witness(witness, 34).all_passed
    # whole-matrix binary powering, one chain per exponent, took 251
    assert len(products) < 251
    assert products.count(68) == 2  # only the symplectic check is dense


def test_trace_exit_makes_no_power_products(products):
    # tr = 3 > 2 on the first square: infinite order, no squaring needed
    a = IntMatrix.from_rows([[2, 1], [1, 1]])
    m = 2**26 * 3**10
    certificate = _certify(a, m, 1, (2, 3))
    assert len(products) == 2  # A^T J A
    assert certificate.symplectic
    assert not certificate.power_identity
    assert [c.identity for c in certificate.proper_powers] == [False, False]


def forged_document(rows: list[list[int]], m: int) -> str:
    return json.dumps(
        {
            "format": "symplectic-witness",
            "version": "1",
            "size": str(len(rows)),
            "genus": str(len(rows) // 2),
            "claimed_order": str(m),
            "entries": [str(x) for row in rows for x in row],
            "certificate": {"symplectic": True, "power_identity": True, "proper_powers": []},
        }
    )


@pytest.mark.parametrize(
    "rows, m",
    [([[2, 1], [1, 1]], 10**8), ([[0, -1], [1, 0]], 1000000007 * 1000000009)],
    ids=["forged-10^8", "two-large-primes"],
)
def test_verify_rejects_order_with_large_prime(rows, m, products, tmp_path, capsys):
    witness = witness_from_json(forged_document(rows, m))
    with pytest.raises(NotRealizableError) as exc_info:
        verify_witness(witness, 1)
    assert exc_info.value.decision.report.cofactor > 1
    path = tmp_path / "forged.json"
    path.write_text(forged_document(rows, m))
    assert cli.main(["verify", str(path)]) == 1
    assert "prime factor above 2g + 1 = 3" in capsys.readouterr().err
    assert products == []


def test_verify_factors_only_by_small_primes(products):
    w = build_witness(7, 3)
    products.clear()
    # 5^40 passes the prime bound but not the budget
    claimed = SymplecticWitness(w.matrix, 7 * 5**40, w.certificate)
    with pytest.raises(NotRealizableError, match="exceeds budget 6") as exc_info:
        verify_witness(claimed, 3)
    assert [t.prime for t in exc_info.value.decision.report.terms] == [5, 7]
    assert exc_info.value.decision.report.cofactor == 1
    with pytest.raises(NotRealizableError, match="above 2g \\+ 1 = 7") as exc_info:
        verify_witness(SymplecticWitness(w.matrix, 7 * 11, w.certificate), 3)
    assert exc_info.value.decision.report.cofactor == 11
    assert products == []
    # a claim in S(3) is certified with the primes of that one factorization
    claimed = SymplecticWitness(w.matrix, 14, w.certificate)
    assert [c.prime for c in verify_witness(claimed, 3).proper_powers] == [2, 7]


def unipotent_document(n: int, m: int) -> str:
    """The n x n matrix with ones on the diagonal and -1, 0, 1 above it."""
    rng = random.Random(n)
    rows = [
        [int(i == j) if j <= i else rng.choice((-1, 0, 1)) for j in range(n)]
        for i in range(n)
    ]
    return forged_document(rows, m)


TWO_LARGE_PRIMES = str(1000000007 * 1000000009)


@pytest.mark.parametrize(
    "argv, document, code",
    [
        (["member", TWO_LARGE_PRIMES, "-g", "1"], None, 1),
        (["member", TWO_LARGE_PRIMES, "-g", "1", "--format", "json"], None, 1),
        (["witness", TWO_LARGE_PRIMES, "-g", "1"], None, 1),
        (["witness", TWO_LARGE_PRIMES, "-g", "1", "--format", "json"], None, 1),
        (["member", "6", "-g", "1000000000000"], None, 0),
        (["verify"], unipotent_document(40, 2**1000), 1),
        (["verify", "--format", "json"], unipotent_document(40, 2**1000), 1),
    ],
    ids=[
        "member-two-large-primes",
        "member-two-large-primes-json",
        "witness-two-large-primes",
        "witness-two-large-primes-json",
        "member-huge-genus",
        "verify-unipotent-2^1000",
        "verify-unipotent-2^1000-json",
    ],
)
def test_adversarial_inputs_fail_fast(argv, document, code, products, tmp_path, capsys):
    if document is not None:
        path = tmp_path / "doc.json"
        path.write_text(document)
        argv = argv + [str(path)]
    start = time.perf_counter()
    assert cli.main(argv) == code
    assert time.perf_counter() - start < 0.1
    assert products == []
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("not realizable: ")
        if "--format" in argv:
            assert json.loads(out)["result"]["reason"] == err.removeprefix("not realizable: ").strip()
