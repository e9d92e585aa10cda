"""The closed-form prime-power blocks, witnesses and their certificates."""
from __future__ import annotations

import hashlib
import json
import random
import time
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest
import sympy

from block_oracle import _block_polynomial, _lift, _trace_form_row, companion, conjugated_companion
from power_oracle import (
    binary_power,
    from_rows,
    identity,
    is_identity,
    matmul,
    oracle_certificate,
    standard_form,
    transpose,
)
from sptorsion import cli
from sptorsion import witness as witness_module
from sptorsion.criterion import enumerate_orders, membership
from sptorsion.extremal import max_order_value_range
from sptorsion.matrices import IntMatrix
from sptorsion.witness import (
    NotRealizableError,
    ProperPowerCheck,
    SymplecticWitness,
    WitnessCertificate,
    _certify,
    _eigenvalue_orders,
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
        assert c.size == d
        # char poly check by evaluation: det(xI - C) agrees with the input
        # polynomial at d+1 points, which pins a degree-d monic polynomial
        for x in range(-(d + 1) // 2, d // 2 + 2):
            scaled = sympy.Matrix(
                [
                    [x * (1 if i == j else 0) - c.entries[i * d + j] for j in range(d)]
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
    d = c.size
    acc = [0] * (d * d)
    power = identity(d)
    for coeff in poly:
        acc = [x + coeff * y for x, y in zip(acc, power.entries)]
        power = matmul(power, c)
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
    form = matmul(matmul(transpose(p_matrix), standard_form(d // 2)), p_matrix)
    c = companion(poly)
    assert transpose(form) == -form
    assert matmul(matmul(transpose(c), form), c) == form
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
    j = standard_form(a.size // 2)
    assert matmul(matmul(transpose(a), j), a) == j
    assert is_identity(binary_power(a, n))
    assert not is_identity(binary_power(a, n // p))
    if a.size <= 40:
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
    assert is_identity(binary_power(w.matrix, 6))
    assert not is_identity(binary_power(w.matrix, 3))
    assert not is_identity(binary_power(w.matrix, 2))


def test_witness_not_realizable():
    with pytest.raises(NotRealizableError, match="cost 6 exceeds budget 4 by 2") as exc_info:
        build_witness(9, 2)
    decision = exc_info.value.decision
    assert not decision.member
    assert decision.deficit == 2
    with pytest.raises(NotRealizableError, match="prime factor above 2g \\+ 1 = 3") as exc_info:
        build_witness(5, 1)
    assert exc_info.value.decision.cofactor == 5


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_witness_sweep_small(g):
    j = standard_form(g)
    for m in enumerate_orders(g):
        w = build_witness(m, g)
        a = w.matrix
        assert a.size == 2 * g
        assert matmul(matmul(transpose(a), j), a) == j
        assert is_identity(binary_power(a, m))
        for term in membership(m, g).terms:
            assert not is_identity(binary_power(a, m // term.prime))


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
        matrix=from_rows(rows),
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
    return IntMatrix(n, tuple(entries))


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
    return IntMatrix(n, entries)


def certify_cases(seed: int):
    """(matrix, claimed order) pairs: exact, multiple and proper-divisor
    claims for finite-order matrices; small and large claims for
    unipotent and random sparse ones."""
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.choice((2, 4, 6, 8))
        a, order = finite_order_matrix(n, rng)
        # 11 and 13 exceed n + 1 for every size n here: no product proves
        # A^(m/p) = I for them once A^m = I
        claims = {order, order + 1, order << 20}
        claims |= {q * order for q in (2, 3, 5, 11, 13)}
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
        expected = oracle_certificate(a, m, a.size // 2)
        assert _certify(a, m, a.size // 2, tuple(sympy.primefactors(m))) == expected, (
            a.to_rows(),
            m,
        )
        outcomes.add(expected.power_identity)
        outcomes.update(f"proper-{c.identity}" for c in expected.proper_powers)
    # both answers of both kinds of check occur
    assert outcomes == {True, False, "proper-True", "proper-False"}


def transvection(v: list[int]) -> IntMatrix:
    """x -> x + (v^T J x) v, symplectic for every integer vector v."""
    n, g = len(v), len(v) // 2
    vj = [-x for x in v[g:]] + v[:g]  # the row v^T J
    return IntMatrix(n, tuple(int(i == k) + v[i] * vj[k] for i in range(n) for k in range(n)))


def test_symplectic_check_matches_the_dense_product():
    # dense symplectic matrices, each with one entry changed half the time
    rng = random.Random(0)
    outcomes = set()
    for _ in range(200):
        g = rng.randint(1, 4)
        a = identity(2 * g)
        for _ in range(3):
            a = matmul(a, transvection([rng.choice((-1, 0, 1)) for _ in range(2 * g)]))
        if rng.random() < 0.5:
            entries = list(a.entries)
            entries[rng.randrange(len(entries))] += rng.choice((-1, 1))
            a = IntMatrix(a.size, tuple(entries))
        j = standard_form(g)
        expected = matmul(matmul(transpose(a), j), a) == j
        assert witness_module._is_symplectic(a, g) == expected, a.to_rows()
        outcomes.add(expected)
    assert outcomes == {True, False}


def conjugator(g: int, rng: random.Random) -> tuple[IntMatrix, IntMatrix]:
    """P and P^-1 for P a product of three transvections T with v in
    {-1, 0, 1}^(2g). Each T - I has square 0, so T^-1 = 2I - T."""
    n = 2 * g
    p = p_inverse = identity(n)
    for _ in range(3):
        t = transvection([rng.choice((-1, 0, 1)) for _ in range(n)])
        t_inverse = IntMatrix(n, tuple(2 * e - x for e, x in zip(identity(n).entries, t.entries)))
        p, p_inverse = matmul(p, t), matmul(t_inverse, p_inverse)
    return p, p_inverse


def test_conjugated_witnesses_verify_like_the_witness(decided):
    # P W P^-1 is as valid as W but dense: valid matrices outside the
    # witness's block pattern, many of them decided from several start
    # vectors. With one entry of W changed, the conjugate is certified as
    # the dense oracle certifies it.
    rng = random.Random(0)
    orders, several, blocks, outcomes = 0, 0, 0, set()
    for g in range(1, 5):
        for m in enumerate_orders(g):
            w = build_witness(m, g)
            p, p_inverse = conjugator(g, rng)
            assert matmul(p, p_inverse) == identity(2 * g)
            conjugate = matmul(matmul(p, w.matrix), p_inverse)
            decided.clear()
            assert verify_witness(w._replace(matrix=conjugate), g) == w.certificate, (m, g)
            orders += 1
            several += sum(starts > 1 for _, starts in decided)
            blocks += len(decided)
            entries = list(w.matrix.entries)
            entries[rng.randrange(len(entries))] += rng.choice((-1, 1))
            changed = matmul(matmul(p, IntMatrix(2 * g, tuple(entries))), p_inverse)
            expected = oracle_certificate(changed, m, g)
            assert _certify(changed, m, g, tuple(sympy.primefactors(m))) == expected, (m, g)
            outcomes.add(expected.power_identity)
    assert orders == 51
    assert several > blocks // 2
    # some changed conjugates still have A^m = I, some do not
    assert outcomes == {True, False}


def test_conjugated_h_witnesses_verify(decided):
    # P W P^-1 for the witness W of h(g): one dense 2g x 2g block when
    # the conjugator joins every coordinate, certified as W is
    rng = random.Random(0)
    for g in range(5, 21):
        w = build_witness(max_order_value_range(g, g)[0], g)
        p, p_inverse = conjugator(g, rng)
        conjugate = w._replace(matrix=matmul(matmul(p, w.matrix), p_inverse))
        assert verify_witness(conjugate, g) == w.certificate, g
    assert max(size for size, _ in decided) == 40


def cyclotomic_jordan_block(e: int) -> IntMatrix:
    """[[C, I], [0, C]] for C the companion matrix of Phi_e: chi = Phi_e^2,
    but no power of it is I, since its k-th power is [[C^k, k C^(k-1)],
    [0, C^k]]."""
    c = companion(tuple(sympy_cyclotomic(e)))
    d = c.size
    rows = [[0] * (2 * d) for _ in range(2 * d)]
    for i in range(d):
        rows[i][d + i] = 1
        for j in range(d):
            rows[i][j] = rows[d + i][d + j] = c.entries[i * d + j]
    return from_rows(rows)


@pytest.mark.parametrize("e", [3, 4, 5, 6, 8, 12])
def test_non_semisimple_cyclotomic_blocks_have_infinite_order(e):
    # each of these has every eigenvalue a primitive e-th root of unity,
    # so no trace or characteristic polynomial tells it from an element
    # of order e; a start with minimal polynomial Phi_e^2 does
    a = cyclotomic_jordan_block(e)
    g = a.size // 2
    p, p_inverse = conjugator(g, random.Random(e))
    for matrix in (a, matmul(matmul(p, a), p_inverse)):
        for m in (e, e * e, 720720):
            expected = oracle_certificate(matrix, m, g)
            assert not expected.power_identity
            assert _certify(matrix, m, g, tuple(sympy.primefactors(m))) == expected, (e, m)


@pytest.mark.parametrize("seed", range(4))
def test_minimal_polynomials_of_the_starts(seed, monkeypatch):
    # every start's polynomial mu annihilates its start vector e_s (the
    # dense product), and its degree is the rank of the Krylov matrix
    # [e_s, B e_s, ..., B^d e_s] (sympy): mu is the minimal polynomial of
    # e_s. The starts are e_s in order, skipping those in the span of the
    # earlier starts' Krylov vectors, until that span is everything.
    # _cyclotomic_orders is replaced so that every start is taken
    polynomials = []
    monkeypatch.setattr(witness_module, "_cyclotomic_orders", lambda mu, *a: polynomials.append(mu) or [])
    rng = random.Random(seed)
    blocks = set()
    for _ in range(10):
        n = rng.choice((2, 4, 6, 8))
        for a in (finite_order_matrix(n, rng)[0], unipotent_matrix(n, rng), sparse_matrix(n, rng)):
            blocks.update(a.diagonal_blocks())
    for block in sorted(blocks, key=lambda b: (b.size, b.entries)):
        if abs(sum(block.entries[:: block.size + 1])) > block.size:
            continue  # refused by its trace, before any start
        polynomials.clear()
        _eigenvalue_orders(block, 2, (2,))
        d = block.size
        b = sympy.Matrix(block.to_rows())
        span = sympy.zeros(d, 0)
        starts = []
        for s in range(d):
            if span.shape[1] and span.row_join(sympy.eye(d)[:, s]).rank() == span.rank():
                continue
            krylov = [sympy.eye(d)[:, s]]
            for _ in range(d):
                krylov.append(b * krylov[-1])
            starts.append((s, sympy.Matrix.hstack(*krylov).rank()))
            span = span.row_join(sympy.Matrix.hstack(*krylov))
            if span.rank() == d:
                break
        assert len(polynomials) == len(starts), block.to_rows()
        for mu, (s, rank) in zip(polynomials, starts):
            assert len(mu) - 1 == rank and mu[-1] == 1
            image, power = [0] * d, identity(d)
            for c in mu:  # column s of B^j is B^j e_s
                image = [x + c * y for x, y in zip(image, power.entries[s::d])]
                power = matmul(block, power)
            assert image == [0] * d, (block.to_rows(), s, mu)


GOLDEN_CONJUGATED = Path(__file__).parent / "golden" / "witness_12_g3_conjugated.json"


def test_conjugated_golden_document_verifies(decided, capsys):
    # P W P^-1 for the witness W of `witness 12 -g 3`, P from conjugator
    # with seed 12: one dense block, decided from several start vectors
    text = GOLDEN_CONJUGATED.read_text()
    w = build_witness(12, 3)
    p, p_inverse = conjugator(3, random.Random(12))
    assert text == witness_to_json(w._replace(matrix=matmul(matmul(p, w.matrix), p_inverse)))
    decided.clear()
    assert verify_witness(witness_from_json(text), 3) == w.certificate
    assert len(decided) == 1 and decided[0][1] > 1
    assert cli.main(["verify", str(GOLDEN_CONJUGATED)]) == 0
    assert capsys.readouterr().out.endswith("verdict: valid\n")
    assert cli.main(["verify", str(GOLDEN_CONJUGATED), "--format", "json"]) == 0
    verified = json.loads(capsys.readouterr().out)["result"]["certificate"]
    assert cli.main(["witness", "12", "-g", "3", "--format", "json"]) == 0
    assert verified == json.loads(capsys.readouterr().out)["result"]["witness"]["certificate"]


@pytest.fixture
def decided(monkeypatch):
    """[size, starts] for each block decided while the fixture is active:
    calls of _eigenvalue_orders, and the start vectors each one took (one
    _cyclotomic_orders per start)."""
    made = []
    decide, orders_of = witness_module._eigenvalue_orders, witness_module._cyclotomic_orders

    def counted(block, m, primes):
        made.append([block.size, 0])
        return decide(block, m, primes)

    def counted_start(mu, m, primes):
        made[-1][1] += 1
        return orders_of(mu, m, primes)

    monkeypatch.setattr(witness_module, "_eigenvalue_orders", counted)
    monkeypatch.setattr(witness_module, "_cyclotomic_orders", counted_start)
    return made


def test_certify_heavy_order_product_count(decided):
    witness = build_witness(12252240, 34)
    decided.clear()
    assert verify_witness(witness, 34).all_passed
    # each distinct block (the seven prime-power blocks and the 1 x 1
    # identity) is decided from the minimal polynomial of its first start
    # vector, with no matrix product; A^T J A = J is summed by rows
    assert sorted(decided) == [[d, 1] for d in (1, 4, 6, 6, 8, 10, 12, 16)]


def test_certify_skips_primes_above_block_size(decided):
    # h(100) = 2^4 3^2 5 7 11 13 17 19 23 29 31 41, one block per prime
    # power. A prime p > d + 1 divides no eigenvalue order of a d x d
    # block; it is settled with every other prime by the order lcm(E) of
    # the block, found from one start vector
    witness = build_witness(197351522287920, 100)
    decided.clear()
    assert verify_witness(witness, 100).all_passed
    assert sorted(decided) == [[d, 1] for d in (4, 6, 6, 8, 10, 12, 16, 18, 22, 28, 30, 40)]


def test_trace_exit_makes_no_power_products(decided):
    # tr = 3 > 2 proves an eigenvalue off the unit circle: infinite order,
    # found before the first start; A^T J A is summed by rows
    a = from_rows([[2, 1], [1, 1]])
    m = 2**26 * 3**10
    certificate = _certify(a, m, 1, (2, 3))
    assert decided == [[2, 0]]
    assert certificate.symplectic
    assert not certificate.power_identity
    assert [c.identity for c in certificate.proper_powers] == [False, False]


def test_eigenvector_start_decides_the_block(decided):
    # B e_0 = 2 e_0 with tr = 1: the minimal polynomial of e_0 is x - 2,
    # so B has the eigenvalue 2 and infinite order, decided at the first
    # start
    a = from_rows([[2, 1], [0, -1]])
    certificate = _certify(a, 2**26 * 3**10, 1, (2, 3))
    assert decided == [[2, 1]]
    assert not certificate.symplectic
    assert not certificate.power_identity


def test_non_unit_pivots_are_cross_multiplied(monkeypatch):
    # B e_0 = 2 e_1 in the 2 x 2 block: the pivot 2 divides the entry it
    # meets, and an exact multiple is subtracted. The 3 x 3 block has
    # order 3 (it sits beside a 1 x 1 identity): e_0 has minimal
    # polynomial Phi_3, e_1 lies in its plane, and from e_2 the Krylov
    # vector (2, 3, 1) meets the pivot 2 of (-1, 2, 0) with the entry 3,
    # so the rows are cross-multiplied and their content divided out
    # (through gcd), giving mu = x^3 - 1. Both are certified as the dense
    # oracle certifies them.
    crossings = []
    monkeypatch.setattr(witness_module, "gcd", lambda *a: crossings.append(a) or gcd(*a))
    for rows, crossed in [
        ([[0, 1], [2, 0]], False),
        ([[-1, 1, -1, 0], [-1, 0, 2, 0], [0, 0, 1, 0], [0, 0, 0, 1]], True),
    ]:
        a = from_rows(rows)
        crossings.clear()
        for m in (2, 3, 6, 12):
            expected = oracle_certificate(a, m, a.size // 2)
            assert _certify(a, m, a.size // 2, tuple(sympy.primefactors(m))) == expected
        assert bool(crossings) == crossed


def test_witness_at_the_cap_makes_no_product(decided):
    # the largest block within the witness cap: 996 x 996, for the prime
    # 997, decided from the characteristic polynomial of e_0 with no
    # matrix product
    witness = build_witness(997, 498)
    expected = WitnessCertificate(True, True, (ProperPowerCheck(997, 1, False),))
    assert witness.certificate == expected
    assert verify_witness(witness, 498) == expected
    assert decided == [[996, 1]] * 2  # build, then verify


def h_witness_blocks() -> list[tuple[IntMatrix, int]]:
    """The distinct blocks, each with phi <= 300, of the witnesses of h(g)
    for every g within the witness cap (35 blocks, phi <= 100), and their
    negations, which the witnesses of orders m == 2 (mod 4) use; each with
    its order."""
    powers = {
        (t.prime, t.exponent)
        for g, h in enumerate(max_order_value_range(1, cli.CAPS["witness"]), start=1)
        for t in membership(h, g).terms
        if 0 < t.cost <= 300
    }
    blocks = [(_prime_power_block(p, alpha), p**alpha) for p, alpha in sorted(powers)]
    assert len(blocks) == 35
    return blocks + [(-b, 2 * n if n % 2 else n) for b, n in blocks]


def test_cyclotomic_polynomials_are_sympys():
    for e in range(1, 301):
        primes = tuple(sympy.primefactors(e))
        assert list(witness_module._cyclotomic(e, primes)) == sympy_cyclotomic(e), e


@pytest.mark.parametrize("m", [2, 12, 997, 12252240, 2**10 * 3**4 * 5**2 * 7])
def test_small_totient_divisors(m):
    primes = tuple(sympy.primefactors(m))
    for bound in (1, 6, 40, 996):
        expected = sorted(
            ((sympy.totient(e), e) for e in sympy.divisors(m) if sympy.totient(e) <= bound),
            reverse=True,
        )
        found = witness_module._small_totient_divisors(m, primes, bound)
        assert [(phi, e) for phi, e, _ in found] == expected
        assert all(ps == tuple(sympy.primefactors(e)) for _, e, ps in found)


def test_witness_block_polynomial_is_sympys(monkeypatch):
    # a witness block is decided from its first start e_0 alone, whose
    # minimal polynomial is the characteristic polynomial
    x = sympy.Symbol("x")
    polynomials = []
    orders_of = witness_module._cyclotomic_orders
    monkeypatch.setattr(
        witness_module, "_cyclotomic_orders", lambda mu, *a: polynomials.append(mu) or orders_of(mu, *a)
    )
    for block, order in h_witness_blocks():
        polynomials.clear()
        expected = sympy.Matrix(block.to_rows()).charpoly(x).all_coeffs()[::-1]
        assert _eigenvalue_orders(block, order, tuple(sympy.primefactors(order))) == {order}
        assert polynomials == [expected], block.size


@pytest.mark.parametrize("seed", range(4))
def test_certify_cases_take_both_paths(seed, decided):
    # test_certify_matches_binary_powering covers both ways of deciding a
    # block: from its trace or its first start vector alone (a cyclic
    # start, or one whose minimal polynomial already rules B^m = I out, as
    # for most unipotent blocks), and from several starts, which unipotent
    # blocks with a fixed start vector and finite-order blocks with a
    # repeated eigenvalue take
    paths = set()
    for a, m in certify_cases(seed):
        diagonal = set(a.entries[:: a.size + 1])
        kind = "unipotent" if diagonal == {1} and not is_identity(a) else "other"
        decided.clear()
        _certify(a, m, a.size // 2, tuple(sympy.primefactors(m)))
        paths.update((kind, starts > 1) for _, starts in decided)
    assert paths == {("unipotent", False), ("unipotent", True), ("other", False), ("other", True)}


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
def test_verify_rejects_order_with_large_prime(rows, m, decided, tmp_path, capsys):
    witness = witness_from_json(forged_document(rows, m))
    with pytest.raises(NotRealizableError) as exc_info:
        verify_witness(witness, 1)
    assert exc_info.value.decision.cofactor > 1
    path = tmp_path / "forged.json"
    path.write_text(forged_document(rows, m))
    assert cli.main(["verify", str(path)]) == 1
    assert "prime factor above 2g + 1 = 3" in capsys.readouterr().err
    assert decided == []


def test_verify_factors_only_by_small_primes(decided):
    w = build_witness(7, 3)
    decided.clear()
    # 5^40 passes the prime bound but not the budget
    claimed = SymplecticWitness(w.matrix, 7 * 5**40, w.certificate)
    with pytest.raises(NotRealizableError, match="exceeds budget 6") as exc_info:
        verify_witness(claimed, 3)
    assert [t.prime for t in exc_info.value.decision.terms] == [5, 7]
    assert exc_info.value.decision.cofactor == 1
    with pytest.raises(NotRealizableError, match="above 2g \\+ 1 = 7") as exc_info:
        verify_witness(SymplecticWitness(w.matrix, 7 * 11, w.certificate), 3)
    assert exc_info.value.decision.cofactor == 11
    assert decided == []
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
def test_adversarial_inputs_fail_fast(argv, document, code, decided, tmp_path, capsys):
    if document is not None:
        path = tmp_path / "doc.json"
        path.write_text(document)
        argv = argv + [str(path)]
    start = time.perf_counter()
    assert cli.main(argv) == code
    assert time.perf_counter() - start < 0.1
    assert decided == []
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("not realizable: ")
        if "--format" in argv:
            assert json.loads(out)["result"]["reason"] == err.removeprefix("not realizable: ").strip()
