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
A^(m/p) = I. No check makes a matrix product on a witness.
A^T J A = J is summed from the nonzero entries of the rows r and g + r
that J pairs. The powers are decided per component: A is the direct sum
of the diagonal blocks of its nonzero pattern, and A^k = I exactly when
B^k = I for each distinct block B. For a block B of size d, the Krylov
vectors v_k = B^k e_0 come from sparse products with a vector. When
each v_k, k < d, has +-1 at index k and 0 above it, e_0 is a cyclic
vector, and back-substitution gives B's integer characteristic
polynomial chi, which is also its minimal polynomial. By Kronecker, an
integer matrix of finite order has only roots of unity as eigenvalues,
so B^k = I exactly when chi is a product of distinct Phi_e with e | k.
Dividing chi by the Phi_e with e | m finds that set, and it then settles
every proper power A^(m/p) = I with no further arithmetic. Every
witness block passes the cyclic test: its v_k are the coordinates of
zeta^k, that is e_k for k < h and e_k - e_(k-q) for h <= k < d (the
second term only when k >= h + q), and those of a negated block are
(-1)^k times these. A block that fails it (a repeated eigenvalue, a
pivot other than +-1, or a forged document) gets one squaring chain,
cut short by a repeated square or by a trace that proves infinite order
(_SquaringChain).

`build_witness` and `verify_witness` pass through the same gate first:
`criterion.membership(m, g)`, which factors m only up to 2g + 1. An
order outside S(g) raises NotRealizableError before any matrix
arithmetic, and the primes of an order inside it come from that one
factorization; such an order is at most h(g), which bounds the length
of every squaring chain.
"""

from __future__ import annotations

import json
import operator
from functools import lru_cache, reduce
from itertools import compress
from math import prod
from typing import Callable, NamedTuple

from .criterion import MembershipDecision, NotRealizableError, membership
from .matrices import IntMatrix, identity

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
    entries = list(identity(n).entries)
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

    A block whose Krylov vectors B^k e_0 are triangular with +-1 on the
    diagonal has e_0 as a cyclic vector, so the integer characteristic
    polynomial chi of _krylov_charpoly is its minimal polynomial. Then
    B^k = I exactly when chi divides x^k - 1 = prod_(e | k) Phi_e, a
    product of distinct irreducibles: when chi is the product of Phi_e
    over a set E of distinct divisors e of k. This is Kronecker's fact
    made exact: the eigenvalues of an integer matrix of finite order are
    roots of unity, each a root of one Phi_e, and a cyclic B of finite
    order has them simple. _cyclotomic_orders finds E for k = m, and
    B^(m/p) = I exactly when every e in E divides m/p: no product is
    made.

    Any other block takes a chain of squarings (_SquaringChain). If
    B^m = I, the order of a d x d block B divides m, and it is the lcm
    of the orders e of its eigenvalues, with phi(e) <= d, so no prime
    above d + 1 divides e. For such a prime p the order of B divides m/p,
    so B^(m/p) = I with no product; B^(m/p) is computed only for the
    primes p <= d + 1 that no earlier block has refuted.
    """
    power_identity = True
    identities = [True] * len(primes)
    for block in dict.fromkeys(matrix.diagonal_blocks()):
        divides = _power_test(block, m, primes)
        if divides is None:
            power_identity, identities = False, [False] * len(primes)
            break
        identities = [
            ok and (p > block.size + 1 or divides(m // p))
            for p, ok in zip(primes, identities)
        ]
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


def _power_test(
    block: IntMatrix, m: int, primes: tuple[int, ...]
) -> Callable[[int], bool] | None:
    """None when B^m != I; otherwise the test of B^k = I for the divisors
    k of m (see _certify)."""
    chi = _krylov_charpoly(block)
    if chi is None:
        chain = _SquaringChain(block, m.bit_length())
        if chain.infinite or not chain.power(m).is_identity():
            return None
        return lambda k: chain.power(k).is_identity()
    orders = _cyclotomic_orders(chi, m, primes)
    if orders is None:
        return None
    return lambda k: all(k % e == 0 for e in orders)


def _krylov_charpoly(block: IntMatrix) -> list[int] | None:
    """The characteristic polynomial of a d x d block B, ascending, when
    each v_k = B^k e_0, k < d, has +-1 at index k and 0 above it; None
    otherwise.

    Then V = [v_0 .. v_(d-1)] is unimodular, e_0 is a cyclic vector, and
    v_d = sum_k c_k v_k has one integer solution, found by substitution
    from the top index down. x^d - sum_k c_k x^k annihilates e_0, hence
    every v_k and B itself; its degree is d, so it is both the minimal
    and the characteristic polynomial. Each v_(k+1) = B v_k is a sparse
    product of B with a vector: no matrix product is made.
    """
    d = block.size
    entries = block.entries
    columns: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for at in compress(range(d * d), entries):
        columns[at % d].append((at // d, entries[at]))
    krylov = []
    vector = {0: 1}
    for k in range(d):
        if max(vector, default=-1) != k or vector[k] not in (1, -1):
            return None
        krylov.append(vector)
        image: dict[int, int] = {}
        for j, x in vector.items():
            for i, b in columns[j]:
                image[i] = image.get(i, 0) + b * x
        vector = {i: x for i, x in image.items() if x}
    chi = [0] * d + [1]
    for k in reversed(range(d)):
        c = vector.pop(k, 0) * krylov[k][k]
        if c:
            chi[k] = -c
            for i, x in krylov[k].items():
                if i < k:
                    vector[i] = vector.get(i, 0) - c * x
    return chi


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


class _SquaringChain:
    """The squares B^(2^t) of one block, computed once for every exponent.

    Squaring stops at t = bits - 1, or as soon as a square repeats an
    earlier one: B^(2^i) = B^(2^j) with j < i gives B^k = B^(k - T) for
    k >= 2^i, T = 2^i - 2^j, so every exponent folds into [2^j, 2^i).
    It also stops once |tr B^(2^t)| > d for the block size d: all
    eigenvalues of a finite-order integer matrix are roots of unity, so
    such a block has infinite order and no power of it is I.
    """

    def __init__(self, block: IntMatrix, bits: int):
        self.squares = [block]
        self.cycle_start: int | None = None
        self.infinite = False
        seen = {block: 0}
        while True:
            last = self.squares[-1]
            if abs(last.trace()) > block.size:
                self.infinite = True
                return
            if len(self.squares) == bits:
                return
            square = last @ last
            if square in seen:
                self.cycle_start = seen[square]
                return
            seen[square] = len(self.squares)
            self.squares.append(square)

    def power(self, k: int) -> IntMatrix:
        """B^k for 1 <= k < 2^bits, one product per set bit after the first."""
        top = len(self.squares)
        if self.cycle_start is not None and k >> top:
            low = 1 << self.cycle_start
            k = low + (k - low) % ((1 << top) - low)
        factors = [self.squares[t] for t in range(k.bit_length()) if k >> t & 1]
        return reduce(operator.matmul, factors)


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
