"""Explicit finite-order symplectic matrices and their verification.

Membership of m in S(g) is decided by the totient-cost budget in
`criterion`; this module supplies the constructive half: an actual
2g x 2g integer matrix of exact order m, symplectic for the standard
form J, plus an independent verifier.

One block per prime power. For p^alpha with positive cost, the
companion matrix C of the p^alpha-th cyclotomic polynomial has exact
order p^alpha, and the lattice of alternating integer forms B with
C^T B C = B contains a unimodular element (the symplectic realization
exists, so the search below is guaranteed a target). The pipeline per
block:

  companion -> invariant form lattice (saturated integer kernel)
            -> box search for a unimodular combination
            -> integer symplectic reduction U with U^T B U = J
            -> conjugate: U^-1 C U is symplectic for J.

Assembly interleaves the blocks: each block's first half occupies a
slice of the global first half (e-coordinates), its second half the
matching slice after index g (f-coordinates); leftover coordinates are
padded with the identity. When m == 2 (mod 4) the 2-part is not a
block at all: the assembled odd-order matrix is negated, and -1 being
central and symplectic doubles the order at no cost. Blocks are built
independently (cached per prime power) and merged by ascending prime,
so construction is deterministic: equal inputs give identical matrices.

U^-1 needs no general inversion: U^T B U = J gives U^-1 = -J U^T B.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

from .criterion import MembershipDecision, membership
from .matrices import IntMatrix, determinant, left_kernel, standard_form
from .numtheory import factor

__all__ = [
    "AlternatingForm",
    "ProperPowerCheck",
    "WitnessCertificate",
    "SymplecticWitness",
    "NotRealizableError",
    "FormSearchError",
    "DEFAULT_RADIUS_CAP",
    "cyclotomic",
    "companion",
    "invariant_alternating_lattice",
    "find_unimodular_form",
    "symplectic_basis",
    "build_witness",
    "verify_witness",
    "certificate_to_dict",
    "witness_to_json",
    "witness_from_json",
]

# Box-search shells are exhausted at this max-norm radius; in practice the
# blocks used here succeed at radius 1 or 2.
DEFAULT_RADIUS_CAP = 32


class NotRealizableError(ValueError):
    """Raised when m is not in S(g); carries the full cost decision."""

    def __init__(self, decision: MembershipDecision):
        self.decision = decision
        report = decision.report
        super().__init__(
            f"no element of order {decision.m} exists for genus {decision.g}: "
            f"cost {report.total} exceeds budget {decision.budget} "
            f"by {decision.deficit}"
        )


class FormSearchError(RuntimeError):
    """Box search exhausted without finding a unimodular form."""


@dataclass(frozen=True)
class AlternatingForm:
    """An antisymmetric integer Gram matrix with its determinant."""

    gram: IntMatrix
    determinant: int

    @property
    def unimodular(self) -> bool:
        return abs(self.determinant) == 1


@dataclass(frozen=True)
class ProperPowerCheck:
    """Result of testing A^(m/prime) against the identity."""

    prime: int
    exponent: int  # m // prime
    identity: bool

    @property
    def passed(self) -> bool:
        return not self.identity  # a proper power must not collapse


@dataclass(frozen=True)
class WitnessCertificate:
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


@dataclass(frozen=True)
class SymplecticWitness:
    """A 2g x 2g integer matrix claimed to have exact order claimed_order."""

    matrix: IntMatrix
    claimed_order: int
    certificate: WitnessCertificate

    @property
    def genus(self) -> int:
        return self.matrix.rows // 2


# ---------------------------------------------------------------------------
# cyclotomic polynomials, ascending coefficient tuples


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _poly_divexact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient of num by monic den; remainder must vanish."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for shift in range(len(q) - 1, -1, -1):
        c = rem[shift + len(den) - 1]
        q[shift] = c
        if c:
            for j, y in enumerate(den):
                rem[shift + j] -= c * y
    if any(rem):
        raise ValueError("division is not exact")
    return tuple(q)


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Exact coefficients of the n-th cyclotomic polynomial, ascending.

    x^n - 1 divided by the product of all lower cyclotomic factors; the
    division is exact at every step, so the coefficients are exact.
    """
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    num = (-1,) + (0,) * (n - 1) + (1,)  # x^n - 1
    den = (1,)
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, cyclotomic(d))
    return _poly_divexact(num, den)


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
    return IntMatrix(d, d, tuple(entries))


# ---------------------------------------------------------------------------
# invariant forms


def invariant_alternating_lattice(c_matrix: IntMatrix) -> list[AlternatingForm]:
    """Basis of the lattice {B : B^T = -B, C^T B C = B}, saturated.

    Antisymmetric matrices are coordinatized by their strict upper
    triangle; the saturated integer kernel of B -> C^T B C - B in those
    coordinates gives the basis.
    """
    if c_matrix.rows != c_matrix.cols:
        raise ValueError("square matrix required")
    d = c_matrix.rows
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    ct = c_matrix.transpose()
    rows = []
    for i, j in pairs:
        entries = [0] * (d * d)
        entries[i * d + j] = 1
        entries[j * d + i] = -1
        image = ct @ IntMatrix(d, d, tuple(entries)) @ c_matrix
        rows.append(
            [image[a, b] - (1 if (a, b) == (i, j) else 0) for a, b in pairs]
        )
    kernel = left_kernel(IntMatrix.from_rows(rows))
    if not kernel:
        raise RuntimeError(
            "invariant alternating lattice is empty; the input matrix does "
            "not preserve any alternating form"
        )
    forms = []
    for vec in kernel:
        entries = [0] * (d * d)
        for coeff, (i, j) in zip(vec, pairs):
            entries[i * d + j] = coeff
            entries[j * d + i] = -coeff
        gram = IntMatrix(d, d, tuple(entries))
        forms.append(AlternatingForm(gram, determinant(gram)))
    return forms


def _sign_normalized(gram: IntMatrix) -> IntMatrix:
    for x in gram.entries:
        if x > 0:
            return gram
        if x < 0:
            return -gram
    return gram


def find_unimodular_form(
    basis: list[AlternatingForm], radius_cap: int = DEFAULT_RADIUS_CAP
) -> AlternatingForm:
    """First unimodular integer combination of the basis forms.

    Coefficient vectors are scanned in boxes of growing max-norm radius,
    lexicographically inside each box, skipping vectors already seen at a
    smaller radius; the first hit is sign-normalized (first nonzero entry
    positive) and returned. Deterministic by construction.
    """
    if not basis:
        raise ValueError("empty form basis")
    grams = [f.gram for f in basis]
    d = grams[0].rows
    rank = len(grams)
    for radius in range(1, radius_cap + 1):
        for coeffs in itertools.product(range(-radius, radius + 1), repeat=rank):
            if max(map(abs, coeffs)) != radius:
                continue
            entries = tuple(
                sum(c * gram.entries[k] for c, gram in zip(coeffs, grams))
                for k in range(d * d)
            )
            candidate = IntMatrix(d, d, entries)
            det = determinant(candidate)
            if abs(det) == 1:
                normalized = _sign_normalized(candidate)
                return AlternatingForm(normalized, determinant(normalized))
    raise FormSearchError(
        f"no unimodular form found within search bound (radius {radius_cap}, "
        f"rank {rank})"
    )


# ---------------------------------------------------------------------------
# integer symplectic reduction


def _pairing(gram: IntMatrix, u: list[int], v: list[int]) -> int:
    n = gram.rows
    total = 0
    for i in range(n):
        ui = u[i]
        if ui:
            row = gram.row(i)
            total += ui * sum(row[j] * v[j] for j in range(n))
    return total


def symplectic_basis(form: AlternatingForm) -> IntMatrix:
    """U with U^T B U = J for a unimodular alternating B, det U = +-1.

    Classical symplectic reduction over the integers: pop a basis vector
    e, gcd-reduce the rest until some f pairs with e to exactly 1 (the
    pairing row is primitive because B is unimodular), then make every
    other vector orthogonal to the pair via v + <f,v>e - <e,v>f, and
    recurse on the rest. Columns of U are e_1..e_d, f_1..f_d.
    """
    gram = form.gram
    n = gram.rows
    if n < 2 or gram.cols != n or not gram.is_antisymmetric():
        raise ValueError("alternating (antisymmetric square) form required")
    if abs(form.determinant) != 1 or abs(determinant(gram)) != 1:
        raise ValueError("form is not unimodular")
    remaining = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    es: list[list[int]] = []
    fs: list[list[int]] = []
    while remaining:
        e = remaining.pop(0)
        f = remaining.pop(_reduce_to_unit_pairing(gram, e, remaining))
        cleared = []
        for v in remaining:
            fv = _pairing(gram, f, v)
            ev = _pairing(gram, e, v)
            cleared.append(
                [x + fv * ei - ev * fi for x, ei, fi in zip(v, e, f)]
            )
        remaining = cleared
        es.append(e)
        fs.append(f)
    cols = es + fs
    u_matrix = IntMatrix(
        n, n, tuple(cols[j][i] for i in range(n) for j in range(n))
    )
    if u_matrix.transpose() @ gram @ u_matrix != standard_form(n // 2):
        raise AssertionError("symplectic reduction failed to reach J")
    return u_matrix


def _reduce_to_unit_pairing(
    gram: IntMatrix, e: list[int], remaining: list[list[int]]
) -> int:
    """Row-reduce `remaining` until some vector pairs with e to +1;
    return its index. Mutates `remaining` by unimodular operations."""
    while True:
        a = [_pairing(gram, e, v) for v in remaining]
        nonzero = [i for i, x in enumerate(a) if x != 0]
        if not nonzero:
            raise ValueError("pairing vanishes; form is degenerate")
        j = min(nonzero, key=lambda i: (abs(a[i]), i))
        progressed = False
        for i in nonzero:
            if i == j:
                continue
            q = a[i] // a[j]
            if q:
                remaining[i] = [x - q * y for x, y in zip(remaining[i], remaining[j])]
                progressed = True
        if not progressed:
            if abs(a[j]) != 1:
                raise ValueError(
                    f"pairing row has gcd {abs(a[j])}; form is not unimodular"
                )
            if a[j] < 0:
                remaining[j] = [-x for x in remaining[j]]
            return j


# ---------------------------------------------------------------------------
# block assembly


@lru_cache(maxsize=None)
def _prime_power_block(p: int, alpha: int) -> IntMatrix:
    """Symplectic block of exact order p^alpha, size phi(p^alpha).

    Conjugates the cyclotomic companion matrix into the standard form:
    with U^T B U = J and C^T B C = B, the matrix U^-1 C U satisfies
    A^T J A = J. U^-1 is -J U^T B, no inversion needed.
    """
    c_matrix = companion(cyclotomic(p**alpha))
    form = find_unimodular_form(invariant_alternating_lattice(c_matrix))
    u_matrix = symplectic_basis(form)
    d = c_matrix.rows // 2
    u_inverse = -standard_form(d) @ u_matrix.transpose() @ form.gram
    if not (u_inverse @ u_matrix).is_identity():
        raise AssertionError("symplectic inverse identity failed")
    return u_inverse @ c_matrix @ u_matrix


def build_witness(m: int, g: int) -> SymplecticWitness:
    """A 2g x 2g symplectic matrix of exact order m, certified.

    Raises NotRealizableError (with the cost table) when m is not in
    S(g). The construction is deterministic.
    """
    decision = membership(m, g)
    if not decision.member:
        raise NotRealizableError(decision)
    negate = decision.report.exemption_applied
    blocks = [
        _prime_power_block(t.prime, t.exponent)
        for t in decision.report.terms
        if t.cost > 0  # the free 2-part of m == 2 (mod 4) is the negation
    ]
    n = 2 * g
    entries = [0] * (n * n)
    offset = 0
    covered = set()
    for block in blocks:
        half = block.rows // 2

        def embed(r: int, off: int = offset, d: int = half) -> int:
            return off + r if r < d else g + off + (r - d)

        for r in range(block.rows):
            covered.add(embed(r))
            for s in range(block.cols):
                entries[embed(r) * n + embed(s)] = block[r, s]
        offset += half
    for t in range(n):
        if t not in covered:
            entries[t * n + t] = 1
    matrix = IntMatrix(n, n, tuple(entries))
    if negate:
        matrix = -matrix
    witness = SymplecticWitness(matrix, m, _certify(matrix, m, g))
    if not witness.certificate.all_passed:
        raise AssertionError(
            f"constructed witness failed checks: "
            f"{witness.certificate.failing_checks()}"
        )
    return witness


def _certify(matrix: IntMatrix, m: int, g: int) -> WitnessCertificate:
    j = standard_form(g)
    symplectic = matrix.transpose() @ j @ matrix == j
    power_identity = (matrix**m).is_identity()
    proper = tuple(
        ProperPowerCheck(p, m // p, (matrix ** (m // p)).is_identity())
        for p in factor(m).primes()
    )
    return WitnessCertificate(symplectic, power_identity, proper)


def verify_witness(witness: SymplecticWitness, g: int) -> WitnessCertificate:
    """Re-run all checks from scratch; ignores the stored certificate."""
    matrix = witness.matrix
    if matrix.rows != 2 * g or matrix.cols != 2 * g:
        raise ValueError(
            f"witness matrix is {matrix.rows}x{matrix.cols}, expected "
            f"{2 * g}x{2 * g} for genus {g}"
        )
    if witness.claimed_order < 2:
        raise ValueError("claimed order must be >= 2")
    return _certify(matrix, witness.claimed_order, g)


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


def witness_to_json(witness: SymplecticWitness) -> str:
    matrix = witness.matrix
    payload = {
        "format": "symplectic-witness",
        "version": "1",
        "size": str(matrix.rows),
        "genus": str(matrix.rows // 2),
        "claimed_order": str(witness.claimed_order),
        "entries": [str(x) for x in matrix.entries],
        "certificate": certificate_to_dict(witness.certificate),
    }
    return json.dumps(payload, indent=2) + "\n"


def witness_from_json(text: str) -> SymplecticWitness:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    try:
        size = int(payload["size"])
        claimed = int(payload["claimed_order"])
        entries = tuple(int(x) for x in payload["entries"])
        cert_payload = payload["certificate"]
        cert = WitnessCertificate(
            bool(cert_payload["symplectic"]),
            bool(cert_payload["power_identity"]),
            tuple(
                ProperPowerCheck(
                    int(c["prime"]), int(c["exponent"]), bool(c["identity"])
                )
                for c in cert_payload["proper_powers"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed witness document: {exc}") from exc
    if size < 2 or size % 2:
        raise ValueError(f"witness size must be a positive even integer, got {size}")
    matrix = IntMatrix(size, size, entries)  # length check inside
    return SymplecticWitness(matrix, claimed, cert)
