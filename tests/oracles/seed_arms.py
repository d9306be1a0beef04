"""Run the process on the seed crypto and codec arms for a while.

:func:`seed_arms` swaps the oracles of :mod:`tests.oracles.seed_ec` and
:mod:`tests.oracles.seed_codec` into the production modules and puts
the originals back on exit. Benchmarks use it to time an honest
"before" arm on the same workload in the same process: inside the
block, cold signature checks run the 4-bit joint ladder without combs,
points and public keys are decoded without intern pools, and every
canonical encode/decode goes through the seed codec. Outcomes are the
same either way; only latency changes. One seed difference is left
out: batch verification keeps production's single entropy read for
its coefficients (the seed read once per item, ~14 us per 8-item
batch).

Not thread-safe, and not for tests that need production behaviour:
the swap is process-wide for the duration of the block.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.crypto import ec, encoding, keys

from tests.oracles import seed_codec, seed_ec


def _encode_seed(value, out: bytearray, depth: int = 0) -> None:
    parts = []
    seed_codec._encode_into(value, parts)
    out += b"".join(parts)


def _decode_seed(buf, offset: int, end: int, depth: int = 0):
    # The seed decoder copied its whole input before walking it.
    return seed_codec._decode_at(bytes(buf), offset)


def _public_key_from_dict(data: dict) -> keys.PublicKey:
    try:
        algorithm = data["algorithm"]
        key_bytes = bytes(data["key"])
    except (KeyError, TypeError) as exc:
        raise keys.SignatureError(
            f"malformed public key record: {exc}") from exc
    return keys.PublicKey(algorithm=algorithm, key_bytes=key_bytes)


@contextmanager
def seed_arms():
    """Swap the seed EC, codec and key-decode arms in for the block."""
    swaps = [
        (ec, "scalar_mult", seed_ec.scalar_mult),
        (ec, "double_scalar_mult", seed_ec.double_scalar_mult),
        (ec, "double_scalar_mult_equals",
         seed_ec.double_scalar_mult_equals),
        (ec, "multi_scalar_mult", seed_ec.multi_scalar_mult),
        (ec, "multi_scalar_mult_is_infinity",
         seed_ec.multi_scalar_mult_is_infinity),
        (ec.Point, "decode", staticmethod(seed_ec.point_decode)),
        (encoding, "_fast_encode", _encode_seed),
        (encoding, "_fast_decode_at", _decode_seed),
        (keys.PublicKey, "from_dict",
         staticmethod(_public_key_from_dict)),
    ]
    with ExitStack() as stack:
        for target, name, replacement in swaps:
            stack.enter_context(mock.patch.object(target, name,
                                                  replacement))
        yield
