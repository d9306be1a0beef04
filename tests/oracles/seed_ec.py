"""The seed elliptic-curve arms: 4-bit Strauss/Shamir joint ladder.

Before width-5 wNAF and comb tables, the verification equation
``s*G + (N-e)*P`` and batch verification ran every cold point through
one joint ladder over 4-bit windows, GLV-split like the production
ladder, with each point's ``[1..15]*P`` affine row normalized on its
own. Warm points used the same 4-bit window tables production still
uses (:func:`repro.crypto.ec._table_for`); there were no combs and no
decoded-point intern pool.

Every function here returns the same group element (or the same
predicate) as its namesake in :mod:`repro.crypto.ec`; the property
tests in ``tests/crypto/test_fastcore.py`` hold both to
:func:`repro.crypto.ec.scalar_mult_plain`.
"""

from typing import List, Sequence, Tuple

from repro.crypto import ec
from repro.crypto.ec import (
    A,
    B,
    GENERATOR,
    INFINITY,
    N,
    P,
    ECError,
    Point,
)


def scalar_mult(scalar: int, point: Point = GENERATOR) -> Point:
    """``scalar * point`` through a window table, else double-and-add."""
    scalar %= N
    if scalar == 0 or point.is_infinity:
        return INFINITY
    table = ec._table_for(point)
    if table is None:
        return ec.scalar_mult_plain(scalar, point)
    return table.mult(scalar)


def affine_row(point: Point) -> list:
    """``[None, 1*P, 2*P, ..., 15*P]`` as affine entries (one inversion)."""
    key = (point.x, point.y)
    table = ec._table_cache.get(key)
    if table is not None:
        return table.windows[0]
    row = ec._row_cache.get(key)
    if row is not None:
        return row
    base = ec._to_jacobian(point)
    jacobians = []
    accum = base
    for _digit in range(1, 16):
        jacobians.append(accum)
        accum = ec._jacobian_add(accum, base)
    row = [None] + ec._batch_to_affine(jacobians)
    if len(ec._row_cache) >= ec._ROW_CACHE_LIMIT:
        ec._row_cache.pop(next(iter(ec._row_cache)))
    ec._row_cache[key] = row
    return row


def _ladder_pairs(scalar: int, point: Point) -> List[Tuple[int, list]]:
    """Decompose ``scalar * point`` into joint-ladder (scalar, row) pairs.

    Scalars short enough already (<= ~130 bits: batch-verification
    random coefficients) skip the GLV split.
    """
    scalar %= N
    if scalar == 0 or point.is_infinity:
        return []
    row = affine_row(point)
    if scalar.bit_length() <= 130:
        return [(scalar, row)]
    k1, k2 = ec._glv_split(scalar)
    pairs = []
    first = ec._signed_pair(k1, row)
    if first is not None:
        pairs.append(first)
    second = ec._signed_pair(k2, ec._beta_row(row))
    if second is not None:
        pairs.append(second)
    return pairs


def _joint_ladder(pairs: List[Tuple[int, list]]):
    """Strauss/Shamir interleaving: one shared run of doublings, 4-bit
    windows per scalar, mixed additions from affine rows."""
    if not pairs:
        return ec._J_INFINITY
    windows = (max(scalar.bit_length() for scalar, _row in pairs) + 3) // 4
    result = ec._J_INFINITY
    double = ec._jacobian_double
    add_affine = ec._jacobian_add_affine
    for index in range(windows - 1, -1, -1):
        if result[2] != 0:
            result = double(double(double(double(result))))
        shift = index << 2
        for scalar, row in pairs:
            digit = (scalar >> shift) & 0xF
            if digit:
                entry = row[digit]
                result = add_affine(result, entry[0], entry[1])
    return result


def double_scalar_mult(a: int, p: Point, b: int, q: Point) -> Point:
    """``a*p + b*q``: two table products, else one 4-bit joint ladder."""
    a %= N
    b %= N
    if a == 0 or p.is_infinity:
        return scalar_mult(b, q)
    if b == 0 or q.is_infinity:
        return scalar_mult(a, p)
    table_p = ec._table_for(p)
    table_q = ec._table_for(q)
    if table_p is not None and table_q is not None:
        return ec._from_jacobian(ec._jacobian_add(table_p.mult_jac(a),
                                                  table_q.mult_jac(b)))
    pairs = _ladder_pairs(a, p) + _ladder_pairs(b, q)
    return ec._from_jacobian(_joint_ladder(pairs))


def double_scalar_mult_equals(a: int, p: Point, b: int, q: Point,
                              expected: Point) -> bool:
    """``a*p + b*q == expected``, comparing the affine sum."""
    return double_scalar_mult(a, p, b, q) == expected


def multi_scalar_mult(terms: Sequence[Tuple[int, Point]]) -> Point:
    """``sum(scalar_i * point_i)``: table products for warm points, one
    shared 4-bit joint ladder for the rest."""
    pairs = []
    result = ec._J_INFINITY
    for scalar, point in ec._merged_terms(terms):
        table = ec._table_for(point)
        if table is not None:
            result = ec._jacobian_add(result, table.mult_jac(scalar))
        else:
            pairs.extend(_ladder_pairs(scalar, point))
    if pairs:
        result = ec._jacobian_add(result, _joint_ladder(pairs))
    return ec._from_jacobian(result)


def multi_scalar_mult_is_infinity(
        terms: Sequence[Tuple[int, Point]]) -> bool:
    """``sum(scalar_i * point_i) == O``, comparing the affine sum."""
    return multi_scalar_mult(terms) == INFINITY


def point_decode(data) -> Point:
    """Strict compressed SEC1 decode with no intern pool: every call
    pays the modular square root."""
    if not isinstance(data, bytes):
        if not isinstance(data, (bytearray, memoryview)):
            raise ECError(f"expected bytes, got {type(data).__name__}")
        data = bytes(data)
    if data[:1] == b"\x00":
        if len(data) != 1:
            raise ECError("trailing bytes after infinity encoding")
        return INFINITY
    if len(data) != 33 or data[0] not in (2, 3):
        if len(data) > 33 and data[0] in (2, 3):
            raise ECError("trailing bytes after compressed point")
        raise ECError("invalid compressed point encoding")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise ECError("x coordinate out of range")
    y_squared = (pow(x, 3, P) + A * x + B) % P
    y = pow(y_squared, (P + 1) // 4, P)  # p = 3 mod 4 on secp256k1
    if (y * y) % P != y_squared:
        raise ECError("x is not on the curve")
    if (y & 1) != (data[0] & 1):
        y = P - y
    return Point(x, y)
