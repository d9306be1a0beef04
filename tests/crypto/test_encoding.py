import enum
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import (
    MAX_NESTING,
    EncodingError,
    canonical_decode,
    canonical_encode,
)

from tests.oracles import seed_codec


class TestScalars:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 255, 256, -256, 10**30, -(10**30),
        0.0, 1.5, -2.25, 1e300, "", "hello", "üñïçødé", b"", b"\x00\xff",
    ])
    def test_round_trip(self, value):
        assert canonical_decode(canonical_encode(value)) == value

    def test_int_float_distinct(self):
        # 1 and 1.0 are different canonical values.
        assert canonical_encode(1) != canonical_encode(1.0)

    def test_bool_int_distinct(self):
        assert canonical_encode(True) != canonical_encode(1)

    def test_negative_zero_normalized(self):
        assert canonical_encode(-0.0) == canonical_encode(0.0)

    def test_nan_rejected(self):
        with pytest.raises(EncodingError):
            canonical_encode(float("nan"))

    def test_infinity_round_trips(self):
        assert canonical_decode(canonical_encode(math.inf)) == math.inf


class TestContainers:
    def test_nested_round_trip(self):
        value = {"z": [1, {"a": b"bytes"}], "a": None,
                 "m": {"k": [True, 2.5]}}
        assert canonical_decode(canonical_encode(value)) == value

    def test_tuple_encodes_as_list(self):
        assert canonical_encode((1, 2)) == canonical_encode([1, 2])

    def test_key_order_irrelevant(self):
        assert canonical_encode({"a": 1, "b": 2}) == \
            canonical_encode({"b": 2, "a": 1})

    def test_non_string_keys_rejected(self):
        with pytest.raises(EncodingError):
            canonical_encode({1: "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(EncodingError):
            canonical_encode(object())

    def test_set_rejected(self):
        with pytest.raises(EncodingError):
            canonical_encode({1, 2})


class TestStrictDecoding:
    def test_trailing_bytes_rejected(self):
        with pytest.raises(EncodingError):
            canonical_decode(canonical_encode(1) + b"x")

    def test_truncated_rejected(self):
        encoded = canonical_encode("hello")
        with pytest.raises(EncodingError):
            canonical_decode(encoded[:-1])

    def test_empty_rejected(self):
        with pytest.raises(EncodingError):
            canonical_decode(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(EncodingError):
            canonical_decode(b"Z")

    def test_unsorted_map_keys_rejected(self):
        # Hand-build a map with keys out of order: M, count=2, "b", "a".
        good = canonical_encode({"a": 1, "b": 2})
        # Swap the two key-value segments by re-encoding manually.
        import struct
        parts = [b"M", struct.pack(">I", 2)]
        for key, val in (("b", 2), ("a", 1)):
            raw = key.encode()
            parts += [b"S", struct.pack(">I", len(raw)), raw,
                      canonical_encode(val)]
        bad = b"".join(parts)
        assert bad != good
        with pytest.raises(EncodingError):
            canonical_decode(bad)

    def test_non_minimal_int_rejected(self):
        import struct
        # Integer 1 (zigzag 2) padded to two bytes.
        bad = b"I" + struct.pack(">I", 2) + b"\x00\x02"
        with pytest.raises(EncodingError):
            canonical_decode(bad)

    def test_non_bytes_input_rejected(self):
        with pytest.raises(EncodingError):
            canonical_decode("text")


# Strategy for arbitrary canonically encodable values.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _List(list):
    pass


class _Tuple(tuple):
    pass


class _Dict(dict):
    pass


class _Kind(str, enum.Enum):
    ROLE = "role"
    ENTITY = "entity"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 300


# Values outside the exact-type dispatch: subclasses, enums, buffer
# look-alikes, NaN, and types with no encoding at all.
_odd_scalars = st.one_of(
    _scalars,
    st.text(max_size=20).map(_Str),
    st.integers().map(_Int),
    st.floats().map(_Float),
    st.binary(max_size=20).map(bytearray),
    st.binary(max_size=20).map(memoryview),
    st.sampled_from(list(_Kind) + list(_Level)),
    st.sampled_from([frozenset({1}), 1j, object()]),
)
_odd_values = st.recursive(
    _odd_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(_List),
        st.lists(children, max_size=4).map(_Tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.dictionaries(st.text(max_size=8).map(_Str), children,
                        max_size=4).map(_Dict),
        st.dictionaries(st.integers(), children, min_size=1, max_size=2),
    ),
    max_leaves=20,
)


class TestProperties:
    @given(_values)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, value):
        decoded = canonical_decode(canonical_encode(value))
        assert decoded == value

    @given(_values)
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_canonical(self, value):
        # decode(encode(v)) re-encodes to the identical bytes.
        encoded = canonical_encode(value)
        assert canonical_encode(canonical_decode(encoded)) == encoded

    @given(_values, _values)
    @settings(max_examples=100, deadline=None)
    def test_injective_on_distinct_values(self, left, right):
        if canonical_encode(left) == canonical_encode(right):
            # Encodings are equal only for equal values (up to the
            # list/tuple identification, which the strategy never emits).
            assert left == right

    @given(_values)
    @settings(max_examples=150, deadline=None)
    def test_fast_arm_matches_seed_arm(self, value):
        """The zero-copy codec is byte-identical to the seed oracle
        (the canonical bytes feed signatures), and the decoder accepts
        memoryviews without changing the result."""
        seed_encoded = seed_codec.encode(value)
        assert canonical_encode(value) == seed_encoded
        fast_decoded = canonical_decode(seed_encoded)
        view_decoded = canonical_decode(memoryview(seed_encoded))
        seed_decoded = seed_codec.decode(seed_encoded)
        assert fast_decoded == seed_decoded == view_decoded == value

    @given(_odd_values)
    @settings(max_examples=200, deadline=None)
    def test_subclasses_and_buffers_match_seed_arm(self, value):
        """Subclasses, enums, ``bytearray``/``memoryview`` and
        unencodable values give the oracle's bytes, or its exact
        EncodingError message."""
        try:
            expected = seed_codec.encode(value)
        except EncodingError as exc:
            with pytest.raises(EncodingError) as caught:
                canonical_encode(value)
            assert str(caught.value) == str(exc)
        else:
            assert canonical_encode(value) == expected


def _nested(depth: int):
    value = None
    for _ in range(depth):
        value = [value]
    return value


class TestNestingBound:
    def test_bound_admits_max_depth_exactly(self):
        value = _nested(MAX_NESTING)
        assert canonical_decode(canonical_encode(value)) == value
        too_deep = _nested(MAX_NESTING + 1)
        with pytest.raises(EncodingError, match="nesting"):
            canonical_encode(too_deep)
        with pytest.raises(EncodingError, match="nesting"):
            canonical_decode(seed_codec.encode(too_deep))

    def test_deep_list_decode_refused(self):
        with pytest.raises(EncodingError, match="nesting"):
            canonical_decode(b"L\x00\x00\x00\x01" * 10_000 + b"N")

    def test_deep_map_decode_refused(self):
        with pytest.raises(EncodingError, match="nesting"):
            canonical_decode(
                b"M\x00\x00\x00\x01S\x00\x00\x00\x01k" * 10_000 + b"N")

    def test_deep_encode_refused(self):
        with pytest.raises(EncodingError, match="nesting"):
            canonical_encode(_nested(10_000))
        deep_map = None
        for _ in range(10_000):
            deep_map = {"k": deep_map}
        with pytest.raises(EncodingError, match="nesting"):
            canonical_encode(deep_map)

    def test_cyclic_value_refused(self):
        cycle = []
        cycle.append(cycle)
        with pytest.raises(EncodingError, match="nesting"):
            canonical_encode(cycle)
