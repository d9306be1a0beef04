"""Schnorr signatures over secp256k1 with deterministic nonces.

This is the default signature scheme for dRBAC entities: key generation is
a single scalar multiplication (fast enough to mint hundreds of simulated
entities per second in pure Python), and signatures are small (64 bytes).

Scheme (classic Schnorr, hash-commitment variant):

* keygen:  d <- [1, n),  Q = d*G
* sign:    k = H(d || m) mod n (deterministic, RFC6979-flavored),
           R = k*G,  e = H(R || Q || m) mod n,  s = k + e*d mod n,
           signature = (R.encode(), s)
* verify:  e = H(R || Q || m) mod n, accept iff s*G == R + e*Q

Deterministic nonces remove the catastrophic failure mode of repeated k
values and make the whole system reproducible under seeded entity creation.
"""

import secrets
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto import ec
from repro.crypto.hashing import hmac_sha256, sha256

SIGNATURE_SIZE = 33 + 32  # compressed R point + 32-byte scalar s


class SchnorrError(ValueError):
    """Raised on malformed Schnorr keys or signatures."""


@dataclass(frozen=True)
class SchnorrPublicKey:
    """A Schnorr verification key: a point on secp256k1."""

    point: ec.Point

    def __post_init__(self) -> None:
        if self.point.is_infinity:
            raise SchnorrError("public key may not be the identity point")

    def encode(self) -> bytes:
        return self.point.encode()

    @staticmethod
    def decode(data: bytes) -> "SchnorrPublicKey":
        return SchnorrPublicKey(ec.Point.decode(data))

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return True iff ``signature`` is valid for ``message``.

        The check ``s*G == R + e*Q`` is rearranged to
        ``s*G + (n - e)*Q == R`` so both scalar multiplications run in a
        single Strauss/Shamir joint ladder (one shared run of doublings
        instead of two, ~1.6-2x faster per cold verification than the
        textbook two-multiplication form), and the comparison against R
        happens in Jacobian coordinates
        (:func:`ec.double_scalar_mult_equals`), skipping the final
        modular inversion.
        """
        parsed = _parse_signature(signature)
        if parsed is None:
            return False
        r_point, s = parsed
        e = _challenge(r_point, self.point, message)
        return ec.double_scalar_mult_equals(
            s, ec.GENERATOR, ec.N - e, self.point, r_point)


@dataclass(frozen=True)
class SchnorrPrivateKey:
    """A Schnorr signing key: a scalar in [1, n)."""

    d: int

    def __post_init__(self) -> None:
        if not ec.is_valid_scalar(self.d):
            raise SchnorrError("private scalar out of range")

    @property
    def public_key(self) -> SchnorrPublicKey:
        return SchnorrPublicKey(ec.scalar_mult(self.d))

    def sign(self, message: bytes) -> bytes:
        """Produce a deterministic 65-byte Schnorr signature."""
        public_point = self.public_key.point
        attempt = 0
        while True:
            k = _deterministic_nonce(self.d, message, start=attempt)
            r_point = ec.scalar_mult(k)
            e = _challenge(r_point, public_point, message)
            s = (k + e * self.d) % ec.N
            if s != 0:
                return r_point.encode() + s.to_bytes(32, "big")
            # Astronomically unlikely: re-derive the nonce for the SAME
            # message from the next counter value. (Tweaking the message
            # itself, as older revisions did, produced a signature that
            # would never verify for the message actually passed in.)
            attempt += 1


def generate_schnorr_keypair(
        rng: Optional[secrets.SystemRandom] = None) -> SchnorrPrivateKey:
    """Generate a fresh Schnorr signing key."""
    rand = rng if rng is not None else secrets.SystemRandom()
    while True:
        d = rand.randrange(1, ec.N)
        if ec.is_valid_scalar(d):
            return SchnorrPrivateKey(d)


def _deterministic_nonce(d: int, message: bytes, start: int = 0) -> int:
    """Derive a per-(key, message) nonce via iterated HMAC (RFC6979 style).

    ``start`` offsets the HMAC counter: ``sign`` passes 1, 2, ... to
    retry over the *same* message when s == 0 comes out. ``start=0``
    reproduces the historical derivation bit-for-bit, so existing
    signatures are unchanged.
    """
    key = d.to_bytes(32, "big")
    counter = start
    while True:
        digest = hmac_sha256(key, sha256(message) + counter.to_bytes(4, "big"))
        k = int.from_bytes(digest, "big") % ec.N
        if k != 0:
            return k
        counter += 1


def _challenge(r_point: ec.Point, public_point: ec.Point,
               message: bytes) -> int:
    """Fiat-Shamir challenge binding nonce commitment, key, and message."""
    digest = sha256(r_point.encode() + public_point.encode() + message)
    e = int.from_bytes(digest, "big") % ec.N
    return e if e != 0 else 1


def _parse_signature(signature: bytes
                     ) -> Optional[Tuple[ec.Point, int]]:
    """Decode a 65-byte signature into (R, s), or None if malformed."""
    if len(signature) != SIGNATURE_SIZE:
        return None
    try:
        r_point = ec.Point.decode(signature[:33])
    except ec.ECError:
        return None
    if r_point.is_infinity:
        return None
    s = int.from_bytes(signature[33:], "big")
    if not ec.is_valid_scalar(s):
        return None
    return r_point, s


# -- batch verification ------------------------------------------------------

# An item to batch-verify: (public key, message, signature).
BatchItem = Tuple[SchnorrPublicKey, bytes, bytes]


def verify_batch(items: Sequence[BatchItem],
                 rng: Optional[secrets.SystemRandom] = None) -> bool:
    """All-or-nothing batch verification via a random linear combination.

    Each item i contributes the equation ``s_i*G == R_i + e_i*Q_i``.
    Summing them directly would let errors cancel, so each is weighted
    by an independent random 64-bit coefficient z_i and the combined
    check

        (sum z_i*s_i)*G - sum z_i*R_i - sum (z_i*e_i)*Q_i == O

    runs as ONE multi-scalar multiplication (:func:`ec.multi_scalar_mult`)
    sharing a single ladder across the whole batch. A forged item slips
    through with probability <= 2**-64 per attempt; the coefficients are
    fresh per call, so a failure cannot be replayed into an accept.

    Returns True iff every item would verify individually. Use
    :func:`verify_batch_bisect` to identify *which* items failed.
    ``rng`` exists so tests can force coefficient choices.
    """
    parsed = []
    for public_key, message, signature in items:
        decoded = _parse_signature(signature)
        if decoded is None:
            return False
        r_point, s = decoded
        e = _challenge(r_point, public_key.point, message)
        parsed.append((public_key.point, r_point, s, e))
    if not parsed:
        return True
    if len(parsed) == 1:
        q, r_point, s, e = parsed[0]
        return ec.double_scalar_mult_equals(
            s, ec.GENERATOR, ec.N - e, q, r_point)
    if rng is None:
        # One entropy read for the whole batch instead of one syscall
        # per item. `or 1` keeps the coefficient nonzero; the 2**-64
        # extra mass on z == 1 is immaterial to the soundness bound.
        blob = secrets.token_bytes(8 * len(parsed))
        coefficients = [
            int.from_bytes(blob[index * 8:index * 8 + 8], "big") or 1
            for index in range(len(parsed))
        ]
    else:
        coefficients = [rng.randrange(1, 1 << 64) for _ in parsed]
    terms: List[Tuple[int, ec.Point]] = []
    s_combined = 0
    for (q, r_point, s, e), z in zip(parsed, coefficients):
        s_combined = (s_combined + z * s) % ec.N
        terms.append((ec.N - z % ec.N, r_point))
        terms.append((ec.N - (z * e) % ec.N, q))
    terms.append((s_combined, ec.GENERATOR))
    return ec.multi_scalar_mult_is_infinity(terms)


def verify_batch_bisect(items: Sequence[BatchItem],
                        rng: Optional[secrets.SystemRandom] = None
                        ) -> List[bool]:
    """Per-item verification results, batch-fast when everything is good.

    Runs :func:`verify_batch` on the whole sequence first; on failure,
    bisects recursively so a single bad certificate in a large import is
    pinpointed in O(log n) batch checks instead of n individual ones.
    """
    results = [False] * len(items)

    def _check(lo: int, hi: int) -> None:
        span = items[lo:hi]
        if verify_batch(span, rng=rng):
            for index in range(lo, hi):
                results[index] = True
            return
        if hi - lo == 1:
            return
        mid = (lo + hi) // 2
        _check(lo, mid)
        _check(mid, hi)

    if items:
        _check(0, len(items))
    return results
