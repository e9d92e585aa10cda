"""Explicit finite-order symplectic matrices and their verification.

Membership of m in S(g) is decided by the totient-cost budget in
`criterion`; this module supplies the constructive half: an actual
2g x 2g integer matrix of exact order m, symplectic for the standard
form J, plus an independent verifier.

One block per prime power n = p^alpha with positive cost. Let q =
p^(alpha-1), d = phi(n) = (p-1)q and h = d/2. The cyclotomic polynomial
is Phi_n(x) = Phi_p(x^q) = sum_{i<p} x^(iq). Its companion matrix C is
multiplication by x on Z[x]/Phi_n = Z[zeta], so it has exact order n,
and it preserves the trace form

  B(u, v) = Tr(zeta^(h-1) * conj(u) * v / Phi_n'(zeta)).

  * Alternating: Phi_n is palindromic, so zeta^(h-1)/Phi_n'(zeta) is
    purely imaginary.
  * Unimodular: 1/Phi_n'(zeta) generates the inverse different of
    Z[zeta], and zeta^(h-1) is a unit.
  * C-invariant: C multiplies u and v by zeta, and conj(zeta) zeta = 1.

By Euler's lemma, Tr(zeta^e / Phi_n'(zeta)) = s_e, the coefficient of
x^(d-1) in x^e mod Phi_n. Write e = kq + r with 0 <= r < q. Modulo
Phi_n, x^(pq) = 1 and x^((p-1)q) = -sum_{i<p-1} x^(iq), so x^(kq)
reduces to x^(jq) for j = k mod p < p - 1, and to that negated sum for
j = p - 1. Every exponent of x^e mod Phi_n is then r plus a multiple of
q, at most (p-2)q + r, and it reaches d - 1 = (p-2)q + q - 1 only when
r = q - 1: s_e = 1 when j = p - 2, s_e = -1 when j = p - 1, and s_e = 0
otherwise. Along the row e = d-1+t, t < h, this is s = 1 at t = 0,
s = -1 at t = q when q < h (that is, p > 3), and 0 everywhere else
(t = iq with i >= 2 gives j = i - 2 < p - 2, as iq < h).

In the power basis B is therefore [[0, T], [-T^T, 0]] with T = I - N^q,
N the h x h upper shift. That is B = P^T J P for P = diag(I, T), so B is
J in the basis of the columns of P^-1 = diag(I, T^-1), T^-1 = sum_k
N^(kq), a Z-basis since T^-1 is unitriangular:

  b_j = zeta^j (j < h),  b_(h+j) = f_j = sum_(k>=0, kq<=j) zeta^(h+j-kq).

The block A is multiplication by zeta in this basis. Taking f at a
negative index as 0, zeta^(h+j) = f_j - f_(j-q), and

  * zeta b_j = b_(j+1) for j < h, where b_h = f_0;
  * zeta f_j = f_(j+1) - [q | j+1] f_0 for j < h - 1;
  * zeta f_(h-1) = -sum_(iq<=h) b_(iq): expand zeta^d = -sum_(i<p-1)
    zeta^(iq), and zeta^(d-kq) for k >= 1, by that identity; both sums
    telescope.

So A is the lower shift with -1 at (iq, d-1) for iq <= h and at
(h, h+kq-1) for k >= 1 (one -1 where the two meet, at (h, d-1) when
q | h). Multiplication by zeta preserves B, so A^T J A = J; and A =
P C P^-1 has the exact order n of C.

Assembly starts from the 2g x 2g identity and overwrites each block's
coordinates: its first half takes a slice of the global first half
(e-coordinates), its second half the matching slice after index g
(f-coordinates). When m == 2 (mod 4) the 2-part is not a block at all:
the assembled odd-order matrix is negated, and -1 being central and
symplectic doubles the order at no cost. Blocks are built
independently and merged by ascending prime, so construction is
deterministic: equal inputs give identical matrices.

The assembled matrix is certified exactly before it is returned:
A^T J A = J on the whole matrix, A^m = I, and no proper power
A^(m/p) = I, with no matrix product. A^T J A = J is summed from the
nonzero entries of the rows r and g + r that J pairs. A is the direct
sum of the diagonal blocks of its nonzero pattern, and A^k = I exactly
when B^k = I for each distinct block B. B^k - I commutes with B, so
B^k = I exactly when B^k fixes start vectors e_s whose Krylov vectors
B^j e_s span Q^d, that is, when the minimal polynomial mu_s of each e_s
divides x^k - 1 = prod_(e | k) Phi_e. Integer elimination of the Krylov
vectors, sparse products with a vector, finds each mu_s; dividing it by
the Phi_e with e | m finds the set E of eigenvalue orders, and
B^(m/p) = I exactly when every e in E divides m/p. A witness block is
decided by its first start e_0: its v_k = B^k e_0 are the coordinates
of zeta^k, that is e_k for k < h and e_k - e_(k-q) for h <= k < d (the
second term only when k >= h + q), and those of a negated block are
(-1)^k times these, so each v_k, k < d, has +-1 at a new top index, and
mu_0 is the characteristic polynomial.

`build_witness` and `verify_witness` pass through the same gate first:
`criterion.membership(m, g)`, which factors m only up to 2g + 1. An
order outside S(g) raises NotRealizableError before any matrix
arithmetic, and the primes of an order inside it come from that one
factorization.
"""

from __future__ import annotations

import json
import operator
from functools import lru_cache
from itertools import compress, count
from math import gcd, lcm, prod
from typing import NamedTuple

from .criterion import MembershipDecision, NotRealizableError, membership
from .matrices import IntMatrix

__all__ = [
    "ProperPowerCheck",
    "WitnessCertificate",
    "SymplecticWitness",
    "NotRealizableError",  # from criterion, where `member` finds it without this module
    "build_witness",
    "verify_witness",
    "certificate_to_dict",
    "witness_to_dict",
    "witness_to_json",
    "witness_from_json",
]


class ProperPowerCheck(NamedTuple):
    """Result of testing A^(m/prime) against the identity."""

    prime: int
    exponent: int  # m // prime
    identity: bool

    @property
    def passed(self) -> bool:
        return not self.identity  # a proper power must not collapse


class WitnessCertificate(NamedTuple):
    """Transcript of the three exactness checks on a claimed witness."""

    symplectic: bool
    power_identity: bool
    proper_powers: tuple[ProperPowerCheck, ...]

    @property
    def all_passed(self) -> bool:
        return (
            self.symplectic
            and self.power_identity
            and all(c.passed for c in self.proper_powers)
        )

    def failing_checks(self) -> list[str]:
        names = []
        if not self.symplectic:
            names.append("symplectic")
        if not self.power_identity:
            names.append("power-identity")
        names.extend(
            f"proper-power-{c.exponent}" for c in self.proper_powers if not c.passed
        )
        return names


class SymplecticWitness(NamedTuple):
    """A 2g x 2g integer matrix claimed to have exact order claimed_order."""

    matrix: IntMatrix
    claimed_order: int
    certificate: WitnessCertificate

    @property
    def genus(self) -> int:
        return self.matrix.size // 2


# ---------------------------------------------------------------------------
# block assembly


def _prime_power_block(p: int, alpha: int) -> IntMatrix:
    """Symplectic block of exact order p^alpha, size d = phi(p^alpha): the
    lower shift, -1 at (iq, d-1) for iq <= h and at (h, h+kq-1) for k >= 1,
    multiplication by zeta where the trace form is J (module docstring)."""
    q = p ** (alpha - 1)
    d = (p - 1) * q
    h = d // 2
    entries = [0] * (d * d)
    for i in range(1, d):
        entries[i * d + i - 1] = 1
    for r in range(0, h + 1, q):
        entries[r * d + d - 1] = -1
    for c in range(h + q - 1, d, q):
        entries[h * d + c] = -1
    return IntMatrix(d, tuple(entries))


def _realizable(m: int, g: int) -> MembershipDecision:
    """The membership decision for m in S(g); NotRealizableError if not."""
    decision = membership(m, g)
    if not decision.member:
        raise NotRealizableError(decision)
    return decision


def build_witness(m: int, g: int) -> SymplecticWitness:
    """A 2g x 2g symplectic matrix of exact order m, certified.

    Raises NotRealizableError (with the cost table) when m is not in
    S(g). The construction is deterministic.
    """
    decision = _realizable(m, g)
    negate = decision.exemption_applied
    blocks = [
        _prime_power_block(t.prime, t.exponent)
        for t in decision.terms
        if t.cost > 0  # the free 2-part of m == 2 (mod 4) is the negation
    ]
    n = 2 * g
    entries = [0] * (n * n)
    entries[:: n + 1] = [1] * n
    offset = 0
    for block in blocks:
        half = block.size // 2
        coords = [*range(offset, offset + half), *range(g + offset, g + offset + half)]
        for r, row in zip(coords, block.to_rows()):
            for s, x in zip(coords, row):
                entries[r * n + s] = x
        offset += half
    matrix = IntMatrix(n, tuple(entries))
    if negate:
        matrix = -matrix
    primes = tuple(t.prime for t in decision.terms)
    witness = SymplecticWitness(matrix, m, _certify(matrix, m, g, primes))
    if not witness.certificate.all_passed:
        raise AssertionError(
            f"constructed witness failed checks: "
            f"{witness.certificate.failing_checks()}"
        )
    return witness


def _certify(
    matrix: IntMatrix, m: int, g: int, primes: tuple[int, ...]
) -> WitnessCertificate:
    """The three checks for claimed order m, given the primes of m.

    A^T J A = J is summed from the pairs of rows r and g + r
    (_is_symplectic). A^m = I and each A^(m/p) = I are decided in one pass
    over A's diagonal blocks (equal blocks once). If some block B has
    B^m != I, then A^m != I, and no A^(m/p) = I either, since that would
    give A^m = (A^(m/p))^p = I.

    Each block is decided from the minimal polynomials mu_s of start
    vectors e_s whose Krylov vectors span Q^d (_eigenvalue_orders), with
    no product. B^k - I commutes with B, so B^k = I exactly when B^k fixes
    each e_s, that is, when each mu_s divides x^k - 1 = prod_(e | k) Phi_e,
    a product of distinct irreducibles: when mu_s is the product of Phi_e
    over distinct divisors e of k. Any other factor, a repeated one (a
    non-semisimple block) included, rules B^m = I out. _cyclotomic_orders
    finds these e for k = m; with E their union over the starts,
    B^(m/p) = I exactly when every e in E divides m/p.
    """
    power_identity = True
    identities = [True] * len(primes)
    for block in dict.fromkeys(matrix.diagonal_blocks()):
        orders = _eigenvalue_orders(block, m, primes)
        if orders is None:
            power_identity, identities = False, [False] * len(primes)
            break
        order = lcm(*orders)  # the order of B
        identities = [ok and m // p % order == 0 for p, ok in zip(primes, identities)]
    proper = tuple(
        ProperPowerCheck(p, m // p, identity)
        for p, identity in zip(primes, identities)
    )
    return WitnessCertificate(_is_symplectic(matrix, g), power_identity, proper)


def _is_symplectic(matrix: IntMatrix, g: int) -> bool:
    """A^T J A = J, without a product: entry (i, j) of A^T J A is
    sum_(r<g) A[r][i] A[g+r][j] - A[g+r][i] A[r][j], summed over the
    nonzero entries of rows r and g + r only."""
    n = 2 * g
    rows = [
        [(j, row[j]) for j in compress(range(n), row)]
        for row in map(matrix.row, range(n))
    ]
    form: dict[int, int] = {}
    for top, bottom in zip(rows[:g], rows[g:]):
        for i, x in top:
            for j, y in bottom:
                form[i * n + j] = form.get(i * n + j, 0) + x * y
                form[j * n + i] = form.get(j * n + i, 0) - x * y
    standard = {r * n + g + r: 1 for r in range(g)}
    standard.update({(g + r) * n + r: -1 for r in range(g)})
    return {at: x for at, x in form.items() if x} == standard


def _eigenvalue_orders(
    block: IntMatrix, m: int, primes: tuple[int, ...]
) -> set[int] | None:
    """The set E of the orders of B's eigenvalues when B^m = I; None when
    B^m != I (see _certify).

    The start vectors e_s are taken in order, skipping those already in
    the span of the Krylov vectors found so far, until that span is
    everything. For each start, v_k = B^k e_s comes from a sparse product
    with a vector and is eliminated against the earlier v_j of that start,
    the polynomial in B that gives it carried on the negative keys (x^j
    on key -1-j). The first v_k that eliminates to zero leaves a multiple
    of mu_s, the minimal polynomial of e_s: monic and integral by Gauss's
    lemma, since it divides the characteristic polynomial. A trace above
    d in absolute value needs an eigenvalue that is no root of unity, so
    it returns None before any product.
    """
    d = block.size
    entries = block.entries
    if abs(sum(entries[:: d + 1])) > d:
        return None
    columns: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for at in compress(range(d * d), entries):
        columns[at % d].append((at // d, entries[at]))
    orders: set[int] = set()
    span: dict[int, dict[int, int]] = {}
    for start in range(d):
        if span and _eliminate({start: 1}, span) < 0:
            continue
        own: dict[int, dict[int, int]] = {}
        vector = {start: 1}
        for k in count():
            top = max(vector, default=-1)
            if top in own or top < 0:
                row = {**vector, -1 - k: 1}  # a copy: v_k gives v_(k+1) below
                top = _eliminate(row, own)
                if top < 0:
                    break
                own[top] = row
            else:
                own[top] = vector  # a new top index: independent as it is
            image: dict[int, int] = {}
            for j, x in vector.items():
                for i, b in columns[j]:
                    image[i] = image.get(i, 0) + b * x
            vector[-1 - k] = 1
            vector = {i: x for i, x in image.items() if x}
        mu, lead = [0] * (k + 1), row[-1 - k]
        for i, x in row.items():
            mu[-1 - i] = x // lead
        found = _cyclotomic_orders(mu, m, primes)
        if found is None:
            return None
        orders.update(found)
        if len(own) == d:
            break
        for row in own.values():
            row = {i: x for i, x in row.items() if i >= 0}  # the vector part
            top = _eliminate(row, span)
            if top >= 0:
                span[top] = row
        if len(span) == d:
            break
    return orders


def _eliminate(row: dict[int, int], rows: dict[int, dict[int, int]]) -> int:
    """Reduce row in place against rows, each keyed by its top index (the
    largest nonnegative key, its pivot), from the top index down; return
    the top index of what is left, or -1 when no nonnegative key is left.
    Where the pivot divides the entry an exact multiple is subtracted;
    otherwise both are cross-multiplied and the content is divided out."""
    for t in range(max(row), -1, -1):
        x = row.get(t)
        if not x:
            continue
        pivot = rows.get(t)
        if pivot is None:
            return t
        p = pivot[t]
        exact = not x % p
        if not exact:
            scale = abs(p) // gcd(p, x)
            for i in row:
                row[i] *= scale
            x *= scale
        x //= p
        for i, y in pivot.items():
            z = row.get(i, 0) - x * y
            if z:
                row[i] = z
            else:
                del row[i]
        if not exact:
            content = gcd(*row.values())
            if content > 1:
                for i in row:
                    row[i] //= content
    return -1


def _cyclotomic_orders(
    chi: list[int], m: int, primes: tuple[int, ...]
) -> list[int] | None:
    """The divisors e of m with chi the product of Phi_e over them, each
    e once; None when there are none, that is when chi does not divide
    x^m - 1. Each Phi_e with phi(e) <= the degree left is divided out
    exactly, largest phi(e) first."""
    orders = []
    left = chi
    for phi, e, ps in _small_totient_divisors(m, primes, len(chi) - 1):
        if phi < len(left):
            quotient = _exact_quotient(left, _cyclotomic(e, ps))
            if quotient is not None:
                orders.append(e)
                left = quotient
                if len(left) == 1:
                    return orders
    return None


def _small_totient_divisors(
    m: int, primes: tuple[int, ...], bound: int
) -> list[tuple[int, int, tuple[int, ...]]]:
    """(phi(e), e, the primes of e) for the divisors e of m with
    phi(e) <= bound, phi(e) descending: built prime power by prime power,
    phi being multiplicative, with no divisor factored."""
    found = [(1, 1, ())]
    for p in primes:
        powers, q = [], p
        while m % q == 0 and (p - 1) * q // p <= bound:
            powers.append(((p - 1) * q // p, q))
            q *= p
        found += [
            (phi * phi_q, e * q, (*ps, p))
            for phi, e, ps in found
            for phi_q, q in powers
            if phi * phi_q <= bound
        ]
    return sorted(found, reverse=True)


@lru_cache(maxsize=None)
def _cyclotomic(e: int, primes: tuple[int, ...]) -> tuple[int, ...]:
    """Phi_e, ascending, given the distinct primes of e: Phi_1 = x - 1,
    Phi_(np)(x) = Phi_n(x^p) / Phi_n(x) for a prime p not dividing n, and
    Phi_e(x) = Phi_r(x^(e/r)) for the radical r of e."""
    poly: tuple[int, ...] = (-1, 1)
    for p in primes:
        spread = [0] * (p * len(poly) - p + 1)
        spread[::p] = poly
        poly = tuple(_exact_quotient(spread, poly))
    step = e // prod(primes)
    spread = [0] * (step * len(poly) - step + 1)
    spread[::step] = poly
    return tuple(spread)


def _exact_quotient(num: list[int], den: tuple[int, ...]) -> list[int] | None:
    """num / den for a monic den, ascending coefficients; None unless the
    division is exact."""
    k = len(den) - 1
    rest = list(num)
    lower = [(j, c) for j, c in enumerate(den[:k]) if c]
    quotient = [0] * (len(num) - k)
    for i in reversed(range(len(quotient))):
        c = rest[i + k]
        if c:
            quotient[i] = c
            for j, f in lower:
                rest[i + j] -= c * f
    return None if any(rest[:k]) else quotient


def verify_witness(witness: SymplecticWitness, g: int) -> WitnessCertificate:
    """Re-run all checks from scratch; ignores the stored certificate.

    Raises NotRealizableError, before any matrix arithmetic, when the
    claimed order is not in S(g): no matrix can then pass.
    """
    matrix = witness.matrix
    if matrix.size != 2 * g:
        raise ValueError(
            f"witness matrix is {matrix.size}x{matrix.size}, expected "
            f"{2 * g}x{2 * g} for genus {g}"
        )
    if witness.claimed_order < 2:
        raise ValueError("claimed order must be >= 2")
    decision = _realizable(witness.claimed_order, g)
    primes = tuple(t.prime for t in decision.terms)
    return _certify(matrix, decision.m, g, primes)


# ---------------------------------------------------------------------------
# serialization (exact round-trip; all integers as decimal strings)


def certificate_to_dict(cert: WitnessCertificate) -> dict:
    """JSON-ready mapping of a certificate; integers as decimal strings."""
    return {
        "symplectic": cert.symplectic,
        "power_identity": cert.power_identity,
        "proper_powers": [
            {
                "prime": str(c.prime),
                "exponent": str(c.exponent),
                "identity": c.identity,
            }
            for c in cert.proper_powers
        ],
    }


def witness_to_dict(witness: SymplecticWitness, entries: list | None = None) -> dict:
    """The witness document as a JSON-ready mapping; integers as decimal
    strings. `entries`, when given, stands in for the list of the
    matrix's entries, for a writer that writes them one by one."""
    matrix = witness.matrix
    return {
        "format": "symplectic-witness",
        "version": "1",
        "size": str(matrix.size),
        "genus": str(matrix.size // 2),
        "claimed_order": str(witness.claimed_order),
        "entries": [str(x) for x in matrix.entries] if entries is None else entries,
        "certificate": certificate_to_dict(witness.certificate),
    }


def witness_to_json(witness: SymplecticWitness) -> str:
    return json.dumps(witness_to_dict(witness), indent=2) + "\n"


def witness_from_json(text: str) -> SymplecticWitness:
    """Parse a document only if `witness_to_dict` writes it back unchanged
    up to key order and whitespace (so every integer is a canonical decimal
    string and every flag a JSON boolean); anything else is a ValueError."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    try:
        size = int(payload["size"])
        claimed = int(payload["claimed_order"])
        written = payload["entries"]
        entries = tuple(map(int, written))
        cert_payload = payload["certificate"]
        cert = WitnessCertificate(
            bool(cert_payload["symplectic"]),
            bool(cert_payload["power_identity"]),
            tuple(
                ProperPowerCheck(int(c["prime"]), int(c["exponent"]), bool(c["identity"]))
                for c in cert_payload["proper_powers"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed witness document: {exc}") from exc
    if size < 2 or size % 2:
        raise ValueError(f"witness size must be a positive even integer, got {size}")
    matrix = IntMatrix(size, entries)  # length check inside
    witness = SymplecticWitness(matrix, claimed, cert)
    if (
        json.dumps(witness_to_dict(witness, []), sort_keys=True)
        != json.dumps({**payload, "entries": []}, sort_keys=True)
        or type(written) is not list
        or any(map(operator.ne, map(str, entries), written))
    ):
        raise ValueError("malformed witness document: not as `witness` writes it")
    return witness
