"""Property-based guarantees for the length-prefixed frame transport.

The shard side of a connection must never crash on network input:
well-formed frames round-trip exactly (under any chunking the kernel
hands us), and every malformed stream -- truncated, zero-length,
oversized, or garbage payload -- surfaces as :class:`FrameError` and
nothing else, after which the decoder stays poisoned (no resync inside
a corrupt length-prefixed stream).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import canonical_encode
from repro.service.transport import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    FrameError,
    HEADER,
    encode_frame,
)

# Values the canonical codec round-trips exactly (floats excluded on
# purpose: the codec handles them, but equality-based round-trip
# assertions want discrete values).
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.text(max_size=20), st.binary(max_size=20))
messages = st.dictionaries(
    st.text(max_size=10),
    st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=8), inner, max_size=4)),
        max_leaves=8),
    max_size=6)


def _chunks(data, boundaries):
    """Split ``data`` at the (sorted, deduplicated) boundary offsets."""
    cuts = sorted({min(b, len(data)) for b in boundaries})
    out, last = [], 0
    for cut in cuts:
        out.append(data[last:cut])
        last = cut
    out.append(data[last:])
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(messages, min_size=1, max_size=5),
       st.lists(st.integers(min_value=0, max_value=10_000), max_size=8))
def test_frames_round_trip_under_any_chunking(msgs, boundaries):
    stream = b"".join(encode_frame(m) for m in msgs)
    decoder = FrameDecoder()
    decoded = []
    for chunk in _chunks(stream, boundaries):
        decoded.extend(decoder.feed(chunk))
    assert decoded == msgs
    assert decoder.pending_bytes() == 0


@settings(max_examples=60, deadline=None)
@given(messages, st.integers(min_value=0, max_value=200))
def test_truncated_frame_waits_without_error(msg, keep):
    frame = encode_frame(msg)
    prefix = frame[:min(keep, len(frame) - 1)]
    decoder = FrameDecoder()
    assert decoder.feed(prefix) == []
    assert decoder.pending_bytes() == len(prefix)
    # Delivering the remainder completes the message.
    assert decoder.feed(frame[len(prefix):]) == [msg]


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=4096),
       st.lists(st.integers(min_value=0, max_value=4096), max_size=6))
def test_arbitrary_bytes_never_raise_anything_but_frameerror(data, cuts):
    decoder = FrameDecoder()
    try:
        for chunk in _chunks(data, cuts):
            for message in decoder.feed(chunk):
                assert isinstance(message, dict)
    except FrameError:
        # Poisoned decoders refuse further input rather than resyncing.
        with pytest.raises(FrameError):
            decoder.feed(b"")


def test_zero_length_frame_is_rejected():
    decoder = FrameDecoder()
    with pytest.raises(FrameError, match="zero-length"):
        decoder.feed(HEADER.pack(0))


def test_oversized_declared_length_is_rejected_before_buffering():
    decoder = FrameDecoder(max_frame=1024)
    with pytest.raises(FrameError, match="exceeds"):
        decoder.feed(HEADER.pack(1025))


def test_garbage_payload_poisons_the_decoder():
    decoder = FrameDecoder()
    junk = b"\xff\xfe\xfd\xfc"
    with pytest.raises(FrameError, match="garbage"):
        decoder.feed(HEADER.pack(len(junk)) + junk)
    with pytest.raises(FrameError):
        decoder.feed(encode_frame({"op": "ping"}))


def test_non_dict_payload_is_rejected():
    payload = canonical_encode(["not", "a", "dict"])
    decoder = FrameDecoder()
    with pytest.raises(FrameError, match="dict"):
        decoder.feed(HEADER.pack(len(payload)) + payload)


def test_encode_frame_refuses_oversized_payloads():
    with pytest.raises(FrameError):
        encode_frame({"blob": b"x" * DEFAULT_MAX_FRAME})


def test_poison_mid_feed_drops_the_batch():
    # A FrameError aborts the whole feed() call -- callers drop the
    # connection, so frames decoded just before the poison are not
    # delivered (and must not be, once the stream is untrusted).
    good = encode_frame({"seq": 1})
    decoder = FrameDecoder()
    with pytest.raises(FrameError):
        decoder.feed(good + HEADER.pack(0))
    with pytest.raises(FrameError):
        decoder.feed(good)


def test_deeply_nested_payload_is_a_frame_error():
    """3000 nested one-item lists fit in one 15 KB frame, far under the
    frame bound; the codec's nesting bound turns them into a typed
    FrameError instead of a RecursionError escaping the server loop."""
    payload = b"L\x00\x00\x00\x01" * 3000 + b"N"
    assert len(payload) < DEFAULT_MAX_FRAME
    decoder = FrameDecoder()
    with pytest.raises(FrameError, match="nesting"):
        decoder.feed(HEADER.pack(len(payload)) + payload)
    with pytest.raises(FrameError):
        decoder.feed(encode_frame({"op": "ping"}))
