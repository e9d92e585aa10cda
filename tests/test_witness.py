"""The closed-form prime-power blocks, witnesses and their certificates."""
from __future__ import annotations

import hashlib
import json
import random
import time
from functools import lru_cache
from math import gcd

import pytest
import sympy

from block_oracle import _block_polynomial, _lift, _trace_form_row, companion, conjugated_companion
from power_oracle import binary_power, oracle_certificate
from sptorsion import cli
from sptorsion.criterion import enumerate_orders, membership
from sptorsion.matrices import IntMatrix, identity, standard_form
from sptorsion.witness import (
    NotRealizableError,
    SymplecticWitness,
    _certify,
    _prime_power_block,
    build_witness,
    verify_witness,
    witness_from_json,
    witness_to_json,
)

def prime_powers(max_phi: int) -> list[tuple[int, int]]:
    """Every (p, alpha) with p^alpha >= 3 and phi(p^alpha) <= max_phi."""
    return [
        (p, alpha)
        for p in sympy.primerange(2, max_phi + 2)
        for alpha in range(1, max_phi.bit_length() + 1)
        if p**alpha >= 3 and sympy.totient(p**alpha) <= max_phi
    ]


PRIME_POWERS = prime_powers(130)  # 45 blocks


def poly_eval(poly: tuple[int, ...], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


# 193 blocks: every block a witness within the genus cap can use
CAPPED_PRIME_POWERS = prime_powers(1000)


@lru_cache(maxsize=None)
def sympy_cyclotomic(n: int) -> list[int]:
    """sympy's Phi_n, ascending coefficients."""
    x = sympy.Symbol("x")
    return sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()[::-1]


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def poly_divmod_monic(
    num: tuple[int, ...], den: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of num by the monic den, ascending."""
    rem = list(num)
    k = len(den) - 1
    quot = [0] * max(len(num) - k, 1)
    for i in range(len(num) - 1, k - 1, -1):
        c = rem[i]
        if c:
            quot[i - k] = c
            for j, f in enumerate(den):
                rem[i - k + j] -= c * f
    return tuple(quot), tuple(rem[:k])


def test_cyclotomic_small():
    assert _block_polynomial(2, 1) == (1, 1)
    assert _block_polynomial(3, 1) == (1, 1, 1)
    assert _block_polynomial(2, 2) == (1, 0, 1)
    assert _block_polynomial(2, 3) == (1, 0, 0, 0, 1)
    assert _block_polynomial(3, 2) == (1, 0, 0, 1, 0, 0, 1)


@pytest.mark.parametrize("n", list(range(1, 121)))
def test_cyclotomic_product_identity(n):
    # x^n - 1 is the product of Phi_d over the divisors d of n. The closed
    # forms give the factors at d = 1 and at the prime powers d = p^j: their
    # product divides x^n - 1 exactly, and is all of it when n is 1 or a
    # prime power.
    product = (-1, 1)
    for p, a in sympy.factorint(n).items():
        for j in range(1, a + 1):
            product = poly_mul(product, _block_polynomial(p, j))
    quotient, remainder = poly_divmod_monic(tuple([-1] + [0] * (n - 1) + [1]), product)
    assert remainder == (0,) * (len(product) - 1)
    assert (quotient == (1,)) == (len(sympy.factorint(n)) <= 1)


def test_cyclotomic_against_sympy():
    for p, alpha in CAPPED_PRIME_POWERS:
        assert list(_block_polynomial(p, alpha)) == sympy_cyclotomic(p**alpha), p**alpha
    assert len(CAPPED_PRIME_POWERS) == 193


PALINDROME_PRIME_POWERS = [(3, 1), (2, 2), (5, 1), (3, 2), (2, 4), (5, 2), (7, 2)]


@pytest.mark.parametrize(
    "p, alpha", PALINDROME_PRIME_POWERS, ids=[str(p**a) for p, a in PALINDROME_PRIME_POWERS]
)
def test_cyclotomic_palindrome(p, alpha):
    poly = _block_polynomial(p, alpha)
    assert poly == poly[::-1]


def test_trace_form_row_by_definition():
    # s_e is the coefficient of x^(d-1) in x^e mod Phi_n, e = d-1 .. d+h-2:
    # multiply x^(d-1) by x and reduce by sympy's Phi_n, h - 1 times
    for p, alpha in CAPPED_PRIME_POWERS:
        phi = sympy_cyclotomic(p**alpha)
        d = len(phi) - 1
        residue = [0] * (d - 1) + [1]
        row = []
        for _ in range(d // 2):
            row.append(residue[d - 1])
            top = residue[d - 1]
            residue = [0] + residue[:-1]
            if top:
                residue = [c - top * f for c, f in zip(residue, phi)]
        assert _trace_form_row(p, alpha) == row, p**alpha


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
    poly = (1, 0, -1, 0, 1)  # Phi_12, a composite index
    c = companion(poly)
    d = c.rows
    acc = [0] * (d * d)
    power = identity(d)
    for coeff in poly:
        acc = [x + coeff * y for x, y in zip(acc, power.entries)]
        power = power @ c
    assert acc == [0] * (d * d)


LATTICE_PRIME_POWERS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


@pytest.mark.parametrize(
    "p, alpha", LATTICE_PRIME_POWERS, ids=[str(p**a) for p, a in LATTICE_PRIME_POWERS]
)
def test_invariant_lattice_and_form(p, alpha):
    # the trace form on the lattice Z[zeta_n], in the power basis:
    # P^T J P = [[0, T], [-T^T, 0]] with P = diag(I, T)
    n = p**alpha
    poly = _block_polynomial(p, alpha)
    d = len(poly) - 1
    row = _trace_form_row(p, alpha)
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


FROZEN_BLOCK_POWERS = prime_powers(300)  # 80 blocks
# SHA-256 of their entries, one line of space-separated integers per block
FROZEN_BLOCKS_DIGEST = "6143e4d2de5105b6b63b6d482be8213946c13552cf9842da8d3457fcaee4b849"


def test_prime_power_blocks_frozen():
    digest = hashlib.sha256()
    for p, alpha in FROZEN_BLOCK_POWERS:
        entries = _prime_power_block(p, alpha).entries
        digest.update((" ".join(map(str, entries)) + "\n").encode())
    assert len(FROZEN_BLOCK_POWERS) == 80
    assert digest.hexdigest() == FROZEN_BLOCKS_DIGEST


def test_block_is_the_conjugated_companion():
    # the closed form equals the reference product P C P^-1
    for p, alpha in FROZEN_BLOCK_POWERS:
        assert _prime_power_block(p, alpha) == conjugated_companion(p, alpha), p**alpha


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


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
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
