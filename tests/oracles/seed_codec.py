"""The seed canonical codec: same grammar, simplest implementation.

Encode appends chunks to a list and joins once; decode copies the
whole input to ``bytes`` and walks it with one small function per
type tag. :func:`encode` and :func:`decode` must agree with
:func:`repro.crypto.encoding.canonical_encode` and
:func:`repro.crypto.encoding.canonical_decode` byte for byte and error
for error (the same :class:`EncodingError` message) on every value the
oracle accepts.

The oracle has no nesting bound; the production codec refuses values
nested deeper than :data:`repro.crypto.encoding.MAX_NESTING`.
"""

import math
import struct
from typing import Any, List, Tuple

from repro.crypto.encoding import MAX_ENCODED_SIZE, EncodingError

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


def encode(value: Any) -> bytes:
    """The canonical encoding of ``value``."""
    out: List[bytes] = []
    _encode_into(value, out)
    encoded = b"".join(out)
    if len(encoded) > MAX_ENCODED_SIZE:
        raise EncodingError(
            f"encoded payload too large: {len(encoded)} bytes")
    return encoded


def decode(data) -> Any:
    """Decode one canonical value; trailing bytes are an error."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise EncodingError(f"expected bytes, got {type(data).__name__}")
    buf = bytes(data)
    if len(buf) > MAX_ENCODED_SIZE:
        raise EncodingError(f"payload too large: {len(buf)} bytes")
    value, offset = _decode_at(buf, 0)
    if offset != len(buf):
        raise EncodingError(f"trailing bytes after value at offset {offset}")
    return value


def _encode_into(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        _encode_int(value, out)
    elif isinstance(value, float):
        _encode_float(value, out)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"S")
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(b"B")
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, (list, tuple)):
        out.append(b"L")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        _encode_dict(value, out)
    else:
        raise EncodingError(
            f"type {type(value).__name__} has no canonical encoding"
        )


def _encode_int(value: int, out: List[bytes]) -> None:
    # Zig-zag: one minimal-length magnitude per signed integer.
    zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
    length = max(1, (zigzag.bit_length() + 7) // 8)
    out.append(b"I")
    out.append(_U32.pack(length))
    out.append(zigzag.to_bytes(length, "big"))


def _encode_float(value: float, out: List[bytes]) -> None:
    if math.isnan(value):
        raise EncodingError("NaN has no canonical encoding")
    # Normalize -0.0 to 0.0 so equal values share one encoding.
    if value == 0.0:
        value = 0.0
    out.append(b"D")
    out.append(_F64.pack(value))


def _encode_dict(value: dict, out: List[bytes]) -> None:
    items: List[Tuple[bytes, Any]] = []
    for key, item in value.items():
        if not isinstance(key, str):
            raise EncodingError("canonical maps require string keys")
        items.append((key.encode("utf-8"), item))
    items.sort(key=lambda pair: pair[0])
    for index in range(1, len(items)):
        if items[index][0] == items[index - 1][0]:
            raise EncodingError("duplicate map key after UTF-8 encoding")
    out.append(b"M")
    out.append(_U32.pack(len(items)))
    for raw_key, item in items:
        out.append(b"S")
        out.append(_U32.pack(len(raw_key)))
        out.append(raw_key)
        _encode_into(item, out)


def _decode_at(buf: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(buf):
        raise EncodingError("truncated payload")
    tag = buf[offset:offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"I":
        return _decode_int(buf, offset)
    if tag == b"D":
        return _decode_float(buf, offset)
    if tag == b"S":
        raw, offset = _decode_blob(buf, offset)
        try:
            return raw.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise EncodingError(f"invalid UTF-8 in string: {exc}") from exc
    if tag == b"B":
        return _decode_blob(buf, offset)
    if tag == b"L":
        return _decode_list(buf, offset)
    if tag == b"M":
        return _decode_map(buf, offset)
    raise EncodingError(f"unknown type tag {tag!r} at offset {offset - 1}")


def _read_u32(buf: bytes, offset: int) -> Tuple[int, int]:
    if offset + 4 > len(buf):
        raise EncodingError("truncated length field")
    (value,) = _U32.unpack_from(buf, offset)
    return value, offset + 4


def _decode_blob(buf: bytes, offset: int) -> Tuple[bytes, int]:
    length, offset = _read_u32(buf, offset)
    if offset + length > len(buf):
        raise EncodingError("truncated blob")
    return buf[offset:offset + length], offset + length


def _decode_int(buf: bytes, offset: int) -> Tuple[int, int]:
    length, offset = _read_u32(buf, offset)
    if length == 0:
        raise EncodingError("zero-length integer")
    if offset + length > len(buf):
        raise EncodingError("truncated integer")
    raw = buf[offset:offset + length]
    if length > 1 and raw[0] == 0:
        raise EncodingError("non-minimal integer encoding")
    zigzag = int.from_bytes(raw, "big")
    value = (zigzag >> 1) if (zigzag & 1) == 0 else -((zigzag + 1) >> 1)
    return value, offset + length


def _decode_float(buf: bytes, offset: int) -> Tuple[float, int]:
    if offset + 8 > len(buf):
        raise EncodingError("truncated float")
    (value,) = _F64.unpack_from(buf, offset)
    if math.isnan(value):
        raise EncodingError("NaN has no canonical encoding")
    if value == 0.0 and buf[offset:offset + 8] != _F64.pack(0.0):
        raise EncodingError("non-canonical zero")
    return value, offset + 8


def _decode_list(buf: bytes, offset: int) -> Tuple[list, int]:
    count, offset = _read_u32(buf, offset)
    items = []
    for _ in range(count):
        item, offset = _decode_at(buf, offset)
        items.append(item)
    return items, offset


def _decode_map(buf: bytes, offset: int) -> Tuple[dict, int]:
    count, offset = _read_u32(buf, offset)
    result = {}
    previous_key = None
    for _ in range(count):
        if offset >= len(buf) or buf[offset:offset + 1] != b"S":
            raise EncodingError("map key must be a string")
        raw_key, offset = _decode_blob(buf, offset + 1)
        if previous_key is not None and raw_key <= previous_key:
            raise EncodingError("map keys not in canonical order")
        previous_key = raw_key
        try:
            key = raw_key.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"invalid UTF-8 in map key: {exc}") from exc
        value, offset = _decode_at(buf, offset)
        result[key] = value
    return result, offset
