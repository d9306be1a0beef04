"""Elliptic-curve group arithmetic over secp256k1.

Provides the group operations needed by the Schnorr signature scheme in
:mod:`repro.crypto.schnorr`: point addition, doubling, and scalar
multiplication using Jacobian projective coordinates. Pure Python,
stdlib only.

Four layers of scalar-multiplication machinery, fastest applicable one
wins:

* **comb tables** (:class:`_CombTable`) for the hottest fixed base
  points (the generator always; entity keys after sustained reuse) --
  affine-normalized 8-bit windows, so one multiplication is at most 32
  *mixed* additions and zero doublings;
* **window tables** (:class:`_WindowTable`) for warm fixed base points --
  the same idea with 4-bit windows (~64 mixed additions), an order of
  magnitude cheaper to build;
* **Strauss/Shamir joint ladders** (:func:`double_scalar_mult`,
  :func:`multi_scalar_mult`) for the verification equation's
  ``s*G - e*P`` and for batch verification -- all scalars share one run
  of doublings, the secp256k1 GLV endomorphism
  (``lambda*(x, y) = (beta*x, y)``) halves each scalar to ~128 bits so
  the shared ladder is half as tall, and width-5 wNAF recoding keeps
  the addition density near 1/6 per bit while all precomputed
  odd-multiple rows for one call share a single Montgomery-batched
  inversion;
* **plain double-and-add** (:func:`scalar_mult_plain`) for cold points,
  and the independent reference the other layers are tested against.

The seed 4-bit joint ladder these replaced lives on as a test oracle
(``tests/oracles/seed_ec.py``); the property tests hold both to
:func:`scalar_mult_plain`.

Curve: y^2 = x^3 + 7 over F_p with the standard secp256k1 parameters.
"""

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

# secp256k1 domain parameters.
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


class ECError(ValueError):
    """Raised on invalid curve points or scalars."""


@dataclass(frozen=True)
class Point:
    """An affine point on secp256k1; ``None`` coordinates mean infinity."""

    x: Optional[int]
    y: Optional[int]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __post_init__(self) -> None:
        if (self.x is None) != (self.y is None):
            raise ECError("both coordinates must be None for infinity")
        if self.x is not None:
            if not (0 <= self.x < P and 0 <= self.y < P):
                raise ECError("coordinates out of field range")
            if (self.y * self.y - (self.x ** 3 + A * self.x + B)) % P != 0:
                raise ECError("point is not on secp256k1")

    def encode(self) -> bytes:
        """Compressed SEC1 encoding (33 bytes), or b'\\x00' for infinity."""
        if self.is_infinity:
            return b"\x00"
        prefix = b"\x03" if self.y & 1 else b"\x02"
        return prefix + self.x.to_bytes(32, "big")

    @staticmethod
    def decode(data: bytes) -> "Point":
        """Decode a compressed SEC1 point, validating curve membership.

        Strict: exactly one byte for infinity, exactly 33 bytes for a
        finite point -- trailing bytes are rejected explicitly so a
        framing bug upstream cannot smuggle data past a signature.

        Decompression costs a modular square root (~150us), and wire
        payloads repeat the same handful of issuer keys and signature
        nonce points, so successfully decoded points are interned in a
        bounded pool keyed by the exact input bytes.
        """
        if not isinstance(data, bytes):
            if not isinstance(data, (bytearray, memoryview)):
                raise ECError(
                    f"expected bytes, got {type(data).__name__}")
            data = bytes(data)
        if data[:1] == b"\x00":
            if len(data) != 1:
                raise ECError("trailing bytes after infinity encoding")
            return INFINITY
        if len(data) != 33 or data[0] not in (2, 3):
            if len(data) > 33 and data[0] in (2, 3):
                raise ECError("trailing bytes after compressed point")
            raise ECError("invalid compressed point encoding")
        cached = _point_intern.get(data)
        if cached is not None:
            return cached
        x = int.from_bytes(data[1:], "big")
        if x >= P:
            raise ECError("x coordinate out of range")
        y_squared = (pow(x, 3, P) + A * x + B) % P
        y = pow(y_squared, (P + 1) // 4, P)  # p = 3 mod 4 on secp256k1
        if (y * y) % P != y_squared:
            raise ECError("x is not on the curve")
        if (y & 1) != (data[0] & 1):
            y = P - y
        point = Point(x, y)
        if len(_point_intern) >= _POINT_INTERN_LIMIT:
            _point_intern.pop(next(iter(_point_intern)))
        _point_intern[data] = point
        return point


INFINITY = Point(None, None)
GENERATOR = Point(GX, GY)

# Jacobian coordinates: (X, Y, Z) represents affine (X/Z^2, Y/Z^3).
_Jacobian = Tuple[int, int, int]
_J_INFINITY: _Jacobian = (1, 1, 0)

# Affine table entries: (x, y) with an implicit z == 1.
_Affine = Tuple[int, int]


def _to_jacobian(point: Point) -> _Jacobian:
    if point.is_infinity:
        return _J_INFINITY
    return (point.x, point.y, 1)


def _from_jacobian(point: _Jacobian) -> Point:
    x, y, z = point
    if z == 0:
        return INFINITY
    z_inv = pow(z, -1, P)
    z_inv2 = (z_inv * z_inv) % P
    return Point((x * z_inv2) % P, (y * z_inv2 * z_inv) % P)


def _jacobian_double(point: _Jacobian) -> _Jacobian:
    x, y, z = point
    if z == 0 or y == 0:
        return _J_INFINITY
    ysq = (y * y) % P
    s = (4 * x * ysq) % P
    m = (3 * x * x) % P  # a == 0 on secp256k1
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = (2 * y * z) % P
    return (nx, ny, nz)


def _jacobian_add(p1: _Jacobian, p2: _Jacobian) -> _Jacobian:
    if p1[2] == 0:
        return p2
    if p2[2] == 0:
        return p1
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1sq = (z1 * z1) % P
    z2sq = (z2 * z2) % P
    u1 = (x1 * z2sq) % P
    u2 = (x2 * z1sq) % P
    s1 = (y1 * z2sq * z2) % P
    s2 = (y2 * z1sq * z1) % P
    if u1 == u2:
        if s1 != s2:
            return _J_INFINITY
        return _jacobian_double(p1)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    h2 = (h * h) % P
    h3 = (h * h2) % P
    u1h2 = (u1 * h2) % P
    nx = (r * r - h3 - 2 * u1h2) % P
    ny = (r * (u1h2 - nx) - s1 * h3) % P
    nz = (h * z1 * z2) % P
    return (nx, ny, nz)


def _jacobian_add_affine(p1: _Jacobian, x2: int, y2: int) -> _Jacobian:
    """Mixed addition: Jacobian ``p1`` plus affine ``(x2, y2)``.

    Saves the z2 normalization work of the general formula -- the inner
    loops of the window tables and joint ladders only ever add affine
    table entries, so this is the hottest function in the module.
    """
    x1, y1, z1 = p1
    if z1 == 0:
        return (x2, y2, 1)
    z1sq = (z1 * z1) % P
    u2 = (x2 * z1sq) % P
    s2 = (y2 * z1sq * z1) % P
    if u2 == x1:
        if s2 != y1:
            return _J_INFINITY
        return _jacobian_double(p1)
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    h2 = (h * h) % P
    h3 = (h * h2) % P
    u1h2 = (x1 * h2) % P
    nx = (r * r - h3 - 2 * u1h2) % P
    ny = (r * (u1h2 - nx) - y1 * h3) % P
    nz = (h * z1) % P
    return (nx, ny, nz)


def _batch_to_affine(points: Sequence[_Jacobian]) -> List[_Affine]:
    """Normalize many Jacobian points with ONE field inversion
    (Montgomery's trick). All inputs must be finite (z != 0)."""
    zs = [point[2] for point in points]
    prefix = [1] * (len(zs) + 1)
    acc = 1
    for index, z in enumerate(zs):
        prefix[index] = acc
        acc = (acc * z) % P
    inv = pow(acc, -1, P)
    out: List[_Affine] = [None] * len(points)  # type: ignore[list-item]
    for index in range(len(points) - 1, -1, -1):
        z_inv = (prefix[index] * inv) % P
        inv = (inv * zs[index]) % P
        x, y, _z = points[index]
        z_inv2 = (z_inv * z_inv) % P
        out[index] = ((x * z_inv2) % P, (y * z_inv2 * z_inv) % P)
    return out


def point_add(p1: Point, p2: Point) -> Point:
    """Return the group sum of two affine points."""
    return _from_jacobian(_jacobian_add(_to_jacobian(p1), _to_jacobian(p2)))


def point_neg(point: Point) -> Point:
    """Return the additive inverse of ``point``."""
    if point.is_infinity:
        return INFINITY
    return Point(point.x, (P - point.y) % P)


class _WindowTable:
    """Precomputed 4-bit-window multiples of a fixed base point.

    ``table[w][d] = d * 16**w * P`` in *affine* coordinates (normalized
    once at build time with a single batch inversion), for windows w in
    0..63 and digits d in 1..15. One multiplication then costs at most
    64 mixed point additions instead of ~256 doublings + ~128 general
    additions -- which matters because wallets verify a signature for
    every published delegation.
    """

    __slots__ = ("windows",)

    WINDOW_BITS = 4
    WINDOW_COUNT = 64  # ceil(256 / 4)

    def __init__(self, point: Point) -> None:
        base = _to_jacobian(point)
        flat: List[_Jacobian] = []
        current = base
        for _w in range(self.WINDOW_COUNT):
            accum = current
            for _digit in range(1, 16):
                flat.append(accum)
                accum = _jacobian_add(accum, current)
            current = accum  # accum == 16 * current after the loop
        affine = _batch_to_affine(flat)
        self.windows = [
            [None] + affine[w * 15:(w + 1) * 15]
            for w in range(self.WINDOW_COUNT)
        ]

    def mult_jac(self, scalar: int) -> _Jacobian:
        result: _Jacobian = _J_INFINITY
        for row in self.windows:
            digit = scalar & 0xF
            if digit:
                entry = row[digit]
                result = _jacobian_add_affine(result, entry[0], entry[1])
            scalar >>= 4
            if not scalar:
                break
        return result

    def mult(self, scalar: int) -> Point:
        return _from_jacobian(self.mult_jac(scalar))


# Tables for reused base points (entity public keys). Building a table
# costs about two plain multiplications, so it only pays off for points
# used repeatedly -- we count uses and switch over at a threshold. Both
# maps are bounded so a workload minting thousands of one-shot entities
# cannot grow memory without limit; eviction is FIFO, fine for this
# access pattern.
_TABLE_CACHE_LIMIT = 512
_TABLE_BUILD_THRESHOLD = 3
_table_cache: dict = {}
_use_counts: dict = {}

# Small per-point affine rows ([1..15] * P) used by the joint ladder
# for points that are not (yet) hot enough for a full window table.
# Bounded FIFO for the same reason as the table cache above.
_ROW_CACHE_LIMIT = 1024
_row_cache: dict = {}

# Decoded-point intern pool: wire payloads repeat the same
# issuer keys and nonce points; interning skips the ~150us square root
# on every repeat. Keyed by the exact 33 encoded bytes, so two inputs
# share an entry only when they are literally the same encoding.
_POINT_INTERN_LIMIT = 4096
_point_intern: dict = {}

# Comb tables (8-bit windows) for the hottest points. Building one
# costs ~8k point additions, so promotion needs sustained reuse; the
# build runs under a lock so concurrent verifiers cannot duplicate it.
# Eviction is FIFO, exactly like the window-table cache above.
_COMB_CACHE_LIMIT = 16
_COMB_BUILD_THRESHOLD = 24
_comb_cache: dict = {}
_comb_use_counts: dict = {}
_FAST_LOCK = threading.Lock()


def _table_for(point: Point):
    """The point's window table, or None while it is still 'cold'."""
    key = (point.x, point.y)
    table = _table_cache.get(key)
    if table is not None:
        return table
    count = _use_counts.get(key, 0) + 1
    if count < _TABLE_BUILD_THRESHOLD:
        if len(_use_counts) >= 4 * _TABLE_CACHE_LIMIT:
            _use_counts.pop(next(iter(_use_counts)))
        _use_counts[key] = count
        return None
    _use_counts.pop(key, None)
    table = _WindowTable(point)
    if len(_table_cache) >= _TABLE_CACHE_LIMIT:
        _table_cache.pop(next(iter(_table_cache)))
    _table_cache[key] = table
    return table


class _CombTable:
    """Precomputed 8-bit-window multiples of a *very* hot base point.

    ``windows[w][d] = d * 256**w * P`` in affine coordinates, for
    windows w in 0..31 and digits d in 1..255: one multiplication is at
    most 32 mixed additions, half the work of a :class:`_WindowTable`
    multiplication. The build walks each window with mixed additions
    off the window's affine base (one inversion per window to carry the
    base across, one batch inversion for the ~8k entries), which is
    ~25x the cost of a 4-bit table -- so combs sit behind a much higher
    promotion threshold and a much smaller cache.
    """

    __slots__ = ("windows",)

    WINDOW_BITS = 8
    WINDOW_COUNT = 32  # ceil(256 / 8)

    def __init__(self, point: Point) -> None:
        flat: List[_Jacobian] = []
        add_affine = _jacobian_add_affine
        base_x, base_y = point.x, point.y
        for _w in range(self.WINDOW_COUNT):
            accum: _Jacobian = (base_x, base_y, 1)
            flat.append(accum)
            for _digit in range(2, 256):
                accum = add_affine(accum, base_x, base_y)
                flat.append(accum)
            # accum == 255 * base; one more step gives the next window's
            # base, normalized on its own so the mixed adds above stay
            # mixed. (32 single inversions ~= 5% of the total build.)
            accum = add_affine(accum, base_x, base_y)
            base_x, base_y = _batch_to_affine([accum])[0]
        affine = _batch_to_affine(flat)
        self.windows = [
            [None] + affine[w * 255:(w + 1) * 255]
            for w in range(self.WINDOW_COUNT)
        ]

    def mult_jac(self, scalar: int) -> _Jacobian:
        result: _Jacobian = _J_INFINITY
        add_affine = _jacobian_add_affine
        for row in self.windows:
            digit = scalar & 0xFF
            if digit:
                entry = row[digit]
                result = add_affine(result, entry[0], entry[1])
            scalar >>= 8
            if not scalar:
                break
        return result

    def mult(self, scalar: int) -> Point:
        return _from_jacobian(self.mult_jac(scalar))


def _comb_for(point: Point):
    """The point's comb table, or None while it is not hot enough.

    Counted promotion like :func:`_table_for`, but promotion FREEZES
    once the cache is full instead of evicting: a comb build is ~1000x
    a window-table build, so evicting the generator's comb for a
    merely-recurring point (a signature's R seen a few dozen times)
    would thrash the cache with rebuilds. The truly hot points -- the
    generator and the issuer keys, used once per verification across
    *all* certificates -- cross the threshold first and keep their
    slots; everything else still gets the window-table path. The
    expensive build itself runs under ``_FAST_LOCK`` so two threads
    racing on the same point build it once.
    """
    key = (point.x, point.y)
    comb = _comb_cache.get(key)
    if comb is not None:
        return comb
    if len(_comb_cache) >= _COMB_CACHE_LIMIT:
        return None
    count = _comb_use_counts.get(key, 0) + 1
    if count < _COMB_BUILD_THRESHOLD:
        if len(_comb_use_counts) >= 4 * _COMB_CACHE_LIMIT:
            _comb_use_counts.pop(next(iter(_comb_use_counts)))
        _comb_use_counts[key] = count
        return None
    with _FAST_LOCK:
        comb = _comb_cache.get(key)
        if comb is None and len(_comb_cache) < _COMB_CACHE_LIMIT:
            comb = _CombTable(point)
            _comb_cache[key] = comb
        _comb_use_counts.pop(key, None)
    return comb


def scalar_mult(scalar: int, point: Point = GENERATOR) -> Point:
    """Return ``scalar * point``; hot points use a precomputed comb or
    window table, cold points plain double-and-add."""
    scalar %= N
    if scalar == 0 or point.is_infinity:
        return INFINITY
    comb = _comb_for(point)
    if comb is not None:
        return comb.mult(scalar)
    table = _table_for(point)
    if table is None:
        return scalar_mult_plain(scalar, point)
    return table.mult(scalar)


def scalar_mult_plain(scalar: int, point: Point = GENERATOR) -> Point:
    """Table-free double-and-add: the cold-point path of
    :func:`scalar_mult`, and the reference the other layers are tested
    against."""
    scalar %= N
    if scalar == 0 or point.is_infinity:
        return INFINITY
    result: _Jacobian = _J_INFINITY
    addend = _to_jacobian(point)
    while scalar:
        if scalar & 1:
            result = _jacobian_add(result, addend)
        addend = _jacobian_double(addend)
        scalar >>= 1
    return _from_jacobian(result)


# -- GLV endomorphism (secp256k1) --------------------------------------------
#
# secp256k1 has an efficiently computable endomorphism
# ``lambda * (x, y) = (beta * x, y)`` with lambda^3 = 1 mod N and
# beta^3 = 1 mod P. Decomposing a 256-bit scalar k into k1 + k2*lambda
# with |k1|, |k2| ~ 2^128 halves the height of every joint ladder.
# Constants are the standard published secp256k1 GLV parameters.

GLV_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
GLV_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_GLV_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_GLV_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_GLV_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_GLV_B2 = _GLV_A1


def _glv_split(scalar: int) -> Tuple[int, int]:
    """Split ``scalar`` (mod N) into (k1, k2) with k1 + k2*lambda == scalar
    and |k1|, |k2| roughly sqrt(N)."""
    c1 = (_GLV_B2 * scalar + N // 2) // N
    c2 = (-_GLV_B1 * scalar + N // 2) // N
    k1 = scalar - c1 * _GLV_A1 - c2 * _GLV_A2
    k2 = -c1 * _GLV_B1 - c2 * _GLV_B2
    return k1, k2


def _beta_row(row: List[_Affine]) -> List[_Affine]:
    """The affine row of ``lambda * P`` derived from P's row -- 15 cheap
    field multiplications instead of 14 point additions."""
    return [None] + [((x * GLV_BETA) % P, y) for x, y in row[1:]]


def _negate_row(row: List[_Affine]) -> List[_Affine]:
    return [None] + [(x, P - y) for x, y in row[1:]]


def _signed_pair(scalar: int, row: List[_Affine]
                 ) -> Optional[Tuple[int, List[_Affine]]]:
    """(abs(scalar), row-or-negated-row), or None for a zero scalar."""
    if scalar == 0:
        return None
    if scalar < 0:
        return -scalar, _negate_row(row)
    return scalar, row


# -- wNAF joint ladder -------------------------------------------------------
#
# Width-5 non-adjacent form: every scalar is recoded into signed odd
# digits in {+-1, +-3, ..., +-15} with at least 4 zeros between nonzero
# digits, so a 128-bit GLV half costs ~21 additions instead of a 4-bit
# window ladder's ~30, using [1..15]*P affine rows (negative digits
# negate the entry inline -- a field subtraction, not a new row). All
# rows a call needs are normalized together with ONE Montgomery-batched
# inversion (:func:`_rows_for_batch`), so an entire batch-verification
# equation shares a single ``pow(x, -1, P)``.


def _wnaf_digits(scalar: int, width: int = 5) -> List[int]:
    """Signed-digit recoding of ``scalar > 0``, least significant first."""
    digits: List[int] = []
    append = digits.append
    mask = (1 << width) - 1
    sign_bound = 1 << (width - 1)
    modulus = 1 << width
    while scalar:
        if scalar & 1:
            digit = scalar & mask
            if digit > sign_bound:
                digit -= modulus
            scalar -= digit
            append(digit)
        else:
            append(0)
        scalar >>= 1
    return digits


def _rows_for_batch(points: Sequence[Point]) -> List[List[_Affine]]:
    """Affine ``[1..15]*P`` rows for many points, one shared inversion.

    Cached rows (and window-table rows, which subsume them) are reused;
    the remaining points' 14 chain additions each are normalized in a
    single :func:`_batch_to_affine` call, then cached in the bounded
    FIFO ``_row_cache``.
    """
    rows: List[Optional[List[_Affine]]] = [None] * len(points)
    missing: List[int] = []
    jacobians: List[_Jacobian] = []
    for index, point in enumerate(points):
        key = (point.x, point.y)
        table = _table_cache.get(key)
        if table is not None:
            rows[index] = table.windows[0]
            continue
        row = _row_cache.get(key)
        if row is not None:
            rows[index] = row
            continue
        missing.append(index)
        base = _to_jacobian(point)
        accum = base
        for _digit in range(1, 16):
            jacobians.append(accum)
            accum = _jacobian_add(accum, base)
    if missing:
        affine = _batch_to_affine(jacobians)
        for slot, index in enumerate(missing):
            row = [None] + affine[slot * 15:(slot + 1) * 15]
            rows[index] = row
            point = points[index]
            if len(_row_cache) >= _ROW_CACHE_LIMIT:
                _row_cache.pop(next(iter(_row_cache)))
            _row_cache[(point.x, point.y)] = row
    return rows  # type: ignore[return-value]


def _wnaf_pairs(scalar: int, row: List[_Affine]
                ) -> List[Tuple[int, List[_Affine]]]:
    """GLV-decomposed (positive scalar, row) pairs for the wNAF ladder."""
    if scalar.bit_length() <= 130:
        return [(scalar, row)]
    k1, k2 = _glv_split(scalar)
    pairs = []
    first = _signed_pair(k1, row)
    if first is not None:
        pairs.append(first)
    second = _signed_pair(k2, _beta_row(row))
    if second is not None:
        pairs.append(second)
    return pairs


def _joint_wnaf(pairs: List[Tuple[int, List[_Affine]]]) -> _Jacobian:
    """Strauss/Shamir interleaving over width-5 wNAF digits: one shared
    run of doublings, mixed additions from the shared affine rows."""
    if not pairs:
        return _J_INFINITY
    recoded = [(_wnaf_digits(scalar), row) for scalar, row in pairs]
    height = max(len(digits) for digits, _row in recoded)
    result: _Jacobian = _J_INFINITY
    double = _jacobian_double
    add_affine = _jacobian_add_affine
    for index in range(height - 1, -1, -1):
        if result[2] != 0:
            result = double(result)
        for digits, row in recoded:
            if index < len(digits):
                digit = digits[index]
                if digit:
                    if digit > 0:
                        entry = row[digit]
                        result = add_affine(result, entry[0], entry[1])
                    else:
                        entry = row[-digit]
                        result = add_affine(result, entry[0],
                                            P - entry[1])
    return result


def _multi_scalar_mult_jac(scaled: List[Tuple[int, Point]]) -> _Jacobian:
    """Core of :func:`multi_scalar_mult`: comb and window tables where
    available, one shared wNAF ladder (and one shared row inversion)
    for everything still cold."""
    result: _Jacobian = _J_INFINITY
    cold: List[Tuple[int, Point]] = []
    for scalar, point in scaled:
        comb = _comb_for(point)
        if comb is not None:
            result = _jacobian_add(result, comb.mult_jac(scalar))
            continue
        table = _table_for(point)
        if table is not None:
            result = _jacobian_add(result, table.mult_jac(scalar))
            continue
        cold.append((scalar, point))
    if cold:
        rows = _rows_for_batch([point for _scalar, point in cold])
        pairs: List[Tuple[int, List[_Affine]]] = []
        for (scalar, _point), row in zip(cold, rows):
            pairs.extend(_wnaf_pairs(scalar, row))
        result = _jacobian_add(result, _joint_wnaf(pairs))
    return result


def double_scalar_mult(a: int, p: Point, b: int, q: Point) -> Point:
    """Return ``a*p + b*q`` via one Strauss/Shamir joint ladder.

    This is the verification-equation workhorse (``s*G + (N-e)*P``):
    both scalar multiplications share a single run of doublings, and the
    GLV decomposition halves the ladder height, for ~1.6-2x over two
    independent multiplications. Points that already have comb or window
    tables (the generator always; any entity key after a few uses) skip
    the ladder entirely -- two table multiplications and one addition,
    with no doublings at all.
    """
    a %= N
    b %= N
    if a == 0 or p.is_infinity:
        return scalar_mult(b, q)
    if b == 0 or q.is_infinity:
        return scalar_mult(a, p)
    return _from_jacobian(_multi_scalar_mult_jac([(a, p), (b, q)]))


def _jacobian_equals_affine(point: _Jacobian, expected: Point) -> bool:
    """Compare a Jacobian point to an affine one WITHOUT an inversion:
    ``(X, Y, Z)`` equals ``(x, y)`` iff ``X == x*Z^2`` and
    ``Y == y*Z^3`` (mod P). Two multiplications replace the ~20us
    modular inversion of a full affine conversion."""
    x, y, z = point
    if z == 0:
        return expected.is_infinity
    if expected.is_infinity:
        return False
    zz = (z * z) % P
    return (x - expected.x * zz) % P == 0 \
        and (y - expected.y * zz * z) % P == 0


def double_scalar_mult_equals(a: int, p: Point, b: int, q: Point,
                              expected: Point) -> bool:
    """Return ``a*p + b*q == expected`` without materializing the sum.

    The Schnorr verification equation only needs equality against the
    signature's R point, so the comparison happens in Jacobian
    coordinates and the final modular inversion of
    :func:`_from_jacobian` is skipped entirely.
    """
    a %= N
    b %= N
    if a == 0 or p.is_infinity:
        return scalar_mult(b, q) == expected
    if b == 0 or q.is_infinity:
        return scalar_mult(a, p) == expected
    return _jacobian_equals_affine(
        _multi_scalar_mult_jac([(a, p), (b, q)]), expected)


def _merged_terms(terms: Sequence[Tuple[int, Point]]
                  ) -> List[Tuple[int, Point]]:
    """Reduce scalars mod N and merge coefficients of repeated points
    (one wallet-load batch typically re-uses a handful of issuer keys),
    dropping zero scalars and points at infinity."""
    merged: dict = {}
    order: List[Point] = []
    for scalar, point in terms:
        scalar %= N
        if scalar == 0 or point.is_infinity:
            continue
        key = (point.x, point.y)
        if key in merged:
            merged[key] = (merged[key] + scalar) % N
            continue
        merged[key] = scalar
        order.append(point)
    return [(merged[(point.x, point.y)], point) for point in order
            if merged[(point.x, point.y)] != 0]


def multi_scalar_mult_is_infinity(
        terms: Sequence[Tuple[int, Point]]) -> bool:
    """Return ``sum(scalar_i * point_i) == O`` without an inversion.

    Batch verification only needs to know whether the combined check
    sums to the identity; in Jacobian coordinates that is ``Z == 0``,
    so :func:`_from_jacobian` is skipped for the whole batch.
    """
    return _multi_scalar_mult_jac(_merged_terms(terms))[2] == 0


def multi_scalar_mult(terms: Sequence[Tuple[int, Point]]) -> Point:
    """Return ``sum(scalar_i * point_i)`` with one shared joint ladder.

    Used by batch signature verification: coefficients for repeated
    points are merged first (one wallet-load batch typically re-uses a
    handful of issuer keys), points with comb or window tables are
    handled by table multiplication, and everything else shares a
    single GLV-halved width-5 wNAF ladder with one batched row
    inversion.
    """
    return _from_jacobian(_multi_scalar_mult_jac(_merged_terms(terms)))


def is_valid_scalar(scalar: int) -> bool:
    """Return True iff ``scalar`` is a valid non-zero group scalar."""
    return 1 <= scalar < N


# The generator is hot in every signing and verification path; build its
# table eagerly at import (~10 ms, once per process).
_table_cache[(GX, GY)] = _WindowTable(GENERATOR)
