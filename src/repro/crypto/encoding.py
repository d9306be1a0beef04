"""Canonical deterministic encoding for signed payloads.

Digital signatures are computed over a byte serialization of a delegation.
For verification to be stable across processes and machines the
serialization must be *canonical*: a given value has exactly one encoding.
This module implements a small canonical binary format (a deterministic
subset in the spirit of bencode / canonical CBOR) supporting the value types
dRBAC needs:

* ``None``
* ``bool``
* ``int`` (arbitrary precision, signed)
* ``float`` (encoded via IEEE-754 big-endian; used for attribute values)
* ``str`` (UTF-8)
* ``bytes``
* ``list`` / ``tuple`` (encoded identically)
* ``dict`` with string keys, encoded with keys sorted lexicographically by
  their UTF-8 bytes

Wire grammar (one leading type byte each)::

    N                           -> None
    T / F                       -> True / False
    I <len:u32> <big-endian signed magnitude>  -> int
    D <8 bytes IEEE-754>        -> float
    S <len:u32> <utf-8 bytes>   -> str
    B <len:u32> <bytes>         -> bytes
    L <count:u32> <items...>    -> list
    M <count:u32> (<key str item> <value item>)... -> dict

All lengths and counts are unsigned 32-bit big-endian. Lists and maps
nest at most :data:`MAX_NESTING` deep, so a hostile payload is refused
with :class:`EncodingError` rather than exhausting the interpreter
stack.

The encoder writes into one growing ``bytearray`` (no chunk list, no
final join-of-hundreds). The decoder reads straight off the caller's
buffer (a ``memoryview`` when the input is not already ``bytes``, so
network buffers are never copied wholesale) and interns short string
atoms (role names, namespaces, map keys) in a bounded pool, so the same
``"delegations"`` key is one shared object across every credential a
wallet ever decodes. The simpler seed codec lives on as a test oracle
(``tests/oracles/seed_codec.py``); the property tests hold this one to
it byte for byte and error for error.

Call/byte tallies and the intern hit rate live in the process-wide
:mod:`repro.obs` registry (``drbac_codec_*_total``); see
:func:`codec_info`.
"""

import math
import struct
from typing import Any, Tuple

from repro import obs

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

# Encoded payloads are bounded to keep a malicious/corrupt buffer from
# driving allocation; dRBAC delegations are small (a few KB).
MAX_ENCODED_SIZE = 16 * 1024 * 1024

# Deepest list/map nesting either direction accepts. The deepest value
# the system produces is a proof wire dict inside an RPC envelope: a
# proof nests 7 deep plus 3 per support level, and validation stops at
# MAX_SUPPORT_DEPTH (16) levels, so about 60 with the envelope. The
# bound keeps recursion well inside the interpreter's default limit.
MAX_NESTING = 128

# String-atom intern pool (decode side): role names, namespaces,
# and map keys repeat across every credential on the wire, so short
# strings are pooled keyed by their UTF-8 bytes. Bounded FIFO like the
# EC point caches; atoms longer than the cap are decoded directly.
_ATOM_MAX_LEN = 64
_ATOM_LIMIT = 4096
_atoms: dict = {}

# The encode-side mirror: complete ``S``-tagged encodings of short
# strings, and ``(utf-8 key, encoding)`` pairs for map keys (the raw
# bytes drive canonical sorting). Same bound, same FIFO eviction.
_enc_strs: dict = {}
_enc_keys: dict = {}

# Complete encodings of small integers (digit counts, versions, enum
# ordinals saturate this range; timestamps fall through to the general
# arm). Built once at import.


def _int_encoding(value: int) -> bytes:
    zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
    length = max(1, (zigzag.bit_length() + 7) // 8)
    return b"I" + _U32.pack(length) + zigzag.to_bytes(length, "big")


_SMALL_INT_ENC = {value: _int_encoding(value)
                  for value in range(-128, 257)}

_reg = obs.registry()
_codec_instance = obs.next_instance()
_c_encodes = _reg.counter("drbac_codec_encodes_total",
                          instance=_codec_instance)
_c_encoded_bytes = _reg.counter("drbac_codec_encoded_bytes_total",
                                instance=_codec_instance)
_c_decodes = _reg.counter("drbac_codec_decodes_total",
                          instance=_codec_instance)
_c_decoded_bytes = _reg.counter("drbac_codec_decoded_bytes_total",
                                instance=_codec_instance)
_c_intern_hits = _reg.counter("drbac_codec_intern_hits_total",
                              instance=_codec_instance)
_c_intern_misses = _reg.counter("drbac_codec_intern_misses_total",
                                instance=_codec_instance)


class EncodingError(ValueError):
    """Raised when a value cannot be canonically encoded or decoded."""


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` into its unique canonical byte representation."""
    buf = bytearray()
    _fast_encode(value, buf)
    if len(buf) > MAX_ENCODED_SIZE:
        raise EncodingError(f"encoded payload too large: {len(buf)} bytes")
    encoded = bytes(buf)
    _c_encodes.inc()
    _c_encoded_bytes.inc(len(encoded))
    return encoded


def canonical_decode(data: bytes) -> Any:
    """Decode a canonical byte string produced by :func:`canonical_encode`.

    Rejects trailing bytes and non-canonical encodings (e.g. unsorted map
    keys), so ``canonical_encode(canonical_decode(b)) == b`` for every
    accepted input ``b``.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise EncodingError(f"expected bytes, got {type(data).__name__}")
    if type(data) is bytes:
        buf = data
    else:
        try:
            buf = memoryview(data).cast("B")
        except (ValueError, TypeError):
            buf = bytes(data)
    size = len(buf)
    if size > MAX_ENCODED_SIZE:
        raise EncodingError(f"payload too large: {size} bytes")
    _c_decodes.inc()
    _c_decoded_bytes.inc(size)
    value, offset = _fast_decode_at(buf, 0, size)
    if offset != size:
        raise EncodingError(f"trailing bytes after value at offset {offset}")
    return value


def codec_info() -> dict:
    """``cache_info()``-style snapshot of the codec counters."""
    hits = _c_intern_hits.value
    misses = _c_intern_misses.value
    lookups = hits + misses
    return {
        "fast": True,
        "encodes": _c_encodes.value,
        "encoded_bytes": _c_encoded_bytes.value,
        "decodes": _c_decodes.value,
        "decoded_bytes": _c_decoded_bytes.value,
        "intern_hits": hits,
        "intern_misses": misses,
        "intern_hit_rate": (hits / lookups) if lookups else 0.0,
        "atoms": len(_atoms),
    }


# -- codec (single-buffer encode, zero-copy decode) --------------------------


def _fast_encode(value: Any, out: bytearray, depth: int = 0) -> None:
    """Append ``value``'s canonical encoding to ``out``.

    Exact-type dispatch ordered by measured frequency in delegation
    payloads (str > dict > int > bytes > ...); subclasses and buffer
    look-alikes (``bytearray``, ``memoryview``) take the ``isinstance``
    arms at the end. ``depth`` counts the enclosing lists and maps.
    """
    kind = value.__class__
    if kind is str:
        enc = _enc_strs.get(value)
        if enc is None:
            raw = value.encode("utf-8")
            enc = b"S" + _U32.pack(len(raw)) + raw
            if len(raw) <= _ATOM_MAX_LEN:
                if len(_enc_strs) >= _ATOM_LIMIT:
                    _enc_strs.pop(next(iter(_enc_strs)))
                _enc_strs[value] = enc
        out += enc
    elif kind is dict:
        if depth >= MAX_NESTING:
            raise EncodingError(f"nesting deeper than {MAX_NESTING}")
        items = []
        append = items.append
        for key, item in value.items():
            cached = _enc_keys.get(key)
            if cached is None:
                if key.__class__ is not str and not isinstance(key, str):
                    raise EncodingError(
                        "canonical maps require string keys")
                raw = key.encode("utf-8")
                cached = (raw, b"S" + _U32.pack(len(raw)) + raw)
                if len(raw) <= _ATOM_MAX_LEN:
                    if len(_enc_keys) >= _ATOM_LIMIT:
                        _enc_keys.pop(next(iter(_enc_keys)))
                    _enc_keys[key] = cached
            append((cached[0], cached[1], item))
        items.sort(key=_pair_key)
        for index in range(1, len(items)):
            if items[index][0] == items[index - 1][0]:
                raise EncodingError(
                    "duplicate map key after UTF-8 encoding")
        out += b"M"
        out += _U32.pack(len(items))
        depth += 1
        for _raw_key, key_enc, item in items:
            out += key_enc
            _fast_encode(item, out, depth)
    elif kind is int:
        enc = _SMALL_INT_ENC.get(value)
        if enc is not None:
            out += enc
        else:
            zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
            length = max(1, (zigzag.bit_length() + 7) // 8)
            out += b"I"
            out += _U32.pack(length)
            out += zigzag.to_bytes(length, "big")
    elif kind is bytes:
        out += b"B"
        out += _U32.pack(len(value))
        out += value
    elif kind is bool:
        out += b"T" if value else b"F"
    elif value is None:
        out += b"N"
    elif kind is list or kind is tuple:
        if depth >= MAX_NESTING:
            raise EncodingError(f"nesting deeper than {MAX_NESTING}")
        out += b"L"
        out += _U32.pack(len(value))
        depth += 1
        for item in value:
            _fast_encode(item, out, depth)
    elif kind is float:
        if math.isnan(value):
            raise EncodingError("NaN has no canonical encoding")
        if value == 0.0:
            value = 0.0
        out += b"D"
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"S"
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, int):
        out += _int_encoding(value)
    elif isinstance(value, float):
        _fast_encode(float(value), out, depth)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _fast_encode(bytes(value), out, depth)
    elif isinstance(value, (list, tuple)):
        _fast_encode(list(value), out, depth)
    elif isinstance(value, dict):
        _fast_encode(dict(value.items()), out, depth)
    else:
        raise EncodingError(
            f"type {type(value).__name__} has no canonical encoding")


def _pair_key(pair: Tuple[bytes, ...]) -> bytes:
    return pair[0]


# Bound-method aliases keep the per-atom accounting to one call each in
# the decoder's innermost loop.
_intern_hit = _c_intern_hits.inc
_intern_miss = _c_intern_misses.inc
_atoms_get = _atoms.get


def _fast_decode_at(buf, offset: int, end: int,
                    depth: int = 0) -> Tuple[Any, int]:
    """Decode one value from ``buf`` (bytes or a flat memoryview).

    Indexing yields ints for both input types, slices are zero-copy for
    memoryviews, and every ``bytes`` object materialized is one the
    caller keeps (blob values, intern-pool keys): there is no up-front
    whole-buffer copy. ``depth`` counts the enclosing lists and maps.
    """
    if offset >= end:
        raise EncodingError("truncated payload")
    tag = buf[offset]
    offset += 1
    if tag == 83:  # S
        if offset + 4 > end:
            raise EncodingError("truncated length field")
        (length,) = _U32.unpack_from(buf, offset)
        offset += 4
        stop = offset + length
        if stop > end:
            raise EncodingError("truncated blob")
        if length <= _ATOM_MAX_LEN:
            raw = buf[offset:stop]
            if raw.__class__ is not bytes:
                raw = bytes(raw)
            cached = _atoms_get(raw)
            if cached is not None:
                _intern_hit()
                return cached, stop
            try:
                text = str(raw, "utf-8")
            except UnicodeDecodeError as exc:
                raise EncodingError(
                    f"invalid UTF-8 in string: {exc}") from exc
            _intern_miss()
            if len(_atoms) >= _ATOM_LIMIT:
                _atoms.pop(next(iter(_atoms)))
            _atoms[raw] = text
            return text, stop
        try:
            return str(buf[offset:stop], "utf-8"), stop
        except UnicodeDecodeError as exc:
            raise EncodingError(f"invalid UTF-8 in string: {exc}") from exc
    if tag == 77:  # M
        if depth >= MAX_NESTING:
            raise EncodingError(f"nesting deeper than {MAX_NESTING}")
        if offset + 4 > end:
            raise EncodingError("truncated length field")
        (count,) = _U32.unpack_from(buf, offset)
        offset += 4
        result = {}
        previous_key = None
        depth += 1
        for _ in range(count):
            if offset >= end or buf[offset] != 83:
                raise EncodingError("map key must be a string")
            if offset + 5 > end:
                raise EncodingError("truncated length field")
            (length,) = _U32.unpack_from(buf, offset + 1)
            offset += 5
            stop = offset + length
            if stop > end:
                raise EncodingError("truncated blob")
            raw_key = buf[offset:stop]
            if raw_key.__class__ is not bytes:
                raw_key = bytes(raw_key)
            if previous_key is not None and raw_key <= previous_key:
                raise EncodingError("map keys not in canonical order")
            previous_key = raw_key
            key = _atoms_get(raw_key) if length <= _ATOM_MAX_LEN else None
            if key is not None:
                _intern_hit()
            else:
                try:
                    key = str(raw_key, "utf-8")
                except UnicodeDecodeError as exc:
                    raise EncodingError(
                        f"invalid UTF-8 in map key: {exc}") from exc
                if length <= _ATOM_MAX_LEN:
                    _intern_miss()
                    if len(_atoms) >= _ATOM_LIMIT:
                        _atoms.pop(next(iter(_atoms)))
                    _atoms[raw_key] = key
            value, offset = _fast_decode_at(buf, stop, end, depth)
            result[key] = value
        return result, offset
    if tag == 73:  # I
        if offset + 4 > end:
            raise EncodingError("truncated length field")
        (length,) = _U32.unpack_from(buf, offset)
        offset += 4
        if length == 0:
            raise EncodingError("zero-length integer")
        stop = offset + length
        if stop > end:
            raise EncodingError("truncated integer")
        if length > 1 and buf[offset] == 0:
            raise EncodingError("non-minimal integer encoding")
        zigzag = int.from_bytes(buf[offset:stop], "big")
        value = (zigzag >> 1) if (zigzag & 1) == 0 else -((zigzag + 1) >> 1)
        return value, stop
    if tag == 66:  # B
        if offset + 4 > end:
            raise EncodingError("truncated length field")
        (length,) = _U32.unpack_from(buf, offset)
        offset += 4
        stop = offset + length
        if stop > end:
            raise EncodingError("truncated blob")
        raw = buf[offset:stop]
        return (raw if raw.__class__ is bytes else bytes(raw)), stop
    if tag == 76:  # L
        if depth >= MAX_NESTING:
            raise EncodingError(f"nesting deeper than {MAX_NESTING}")
        if offset + 4 > end:
            raise EncodingError("truncated length field")
        (count,) = _U32.unpack_from(buf, offset)
        offset += 4
        items = []
        append = items.append
        depth += 1
        for _ in range(count):
            item, offset = _fast_decode_at(buf, offset, end, depth)
            append(item)
        return items, offset
    if tag == 78:  # N
        return None, offset
    if tag == 84:  # T
        return True, offset
    if tag == 70:  # F
        return False, offset
    if tag == 68:  # D
        if offset + 8 > end:
            raise EncodingError("truncated float")
        (value,) = _F64.unpack_from(buf, offset)
        if math.isnan(value):
            raise EncodingError("NaN has no canonical encoding")
        if value == 0.0 and bytes(buf[offset:offset + 8]) != _F64.pack(0.0):
            raise EncodingError("non-canonical zero")
        return value, offset + 8
    raise EncodingError(
        f"unknown type tag {bytes((tag,))!r} at offset {offset - 1}")
