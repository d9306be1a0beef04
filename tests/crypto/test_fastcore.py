"""Tests for the hardware-speed core: comb/wNAF scalar multiplication,
the zero-copy codec and the interning pools.

Everything the production core computes must equal the seed
implementation it replaced, which lives on in ``tests/oracles/``:
points match ``scalar_mult_plain`` and the seed 4-bit joint ladder,
and canonical bytes match the seed encoder byte for byte.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delegation import Delegation
from repro.crypto import ec, encoding
from repro.workloads import build_case_study

from tests.oracles import seed_codec, seed_ec

# Scalars at the edges the recodings are most likely to get wrong:
# zero, tiny, window boundaries, the group order's neighbors (n reduces
# to 0, n+1 to 1), and all-ones patterns.
EDGE_SCALARS = [
    0, 1, 2, 3, 15, 16, 17, 255, 256, 257,
    2**128 - 1, 2**128, 2**128 + 1,
    ec.N - 2, ec.N - 1, ec.N, ec.N + 1,
    2**256 - 1,
]


@pytest.fixture()
def hot_point():
    """A non-generator point with its comb table already built."""
    point = ec.scalar_mult(0xC0FFEE)
    key = (point.x, point.y)
    if key not in ec._comb_cache:
        with ec._FAST_LOCK:
            if key not in ec._comb_cache:
                ec._comb_cache[key] = ec._CombTable(point)
    return point


class TestCombAndWnafCorrectness:
    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_generator_comb_matches_plain_on_edges(self, scalar):
        assert ec.scalar_mult(scalar) == ec.scalar_mult_plain(scalar % ec.N)

    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_variable_base_matches_plain_on_edges(self, scalar,
                                                  hot_point):
        fast = ec.scalar_mult(scalar, hot_point)
        assert fast == ec.scalar_mult_plain(scalar % ec.N, hot_point)

    @given(st.integers(min_value=1, max_value=ec.N - 1))
    @settings(max_examples=20, deadline=None)
    def test_generator_comb_matches_plain(self, scalar):
        assert ec.scalar_mult(scalar) == ec.scalar_mult_plain(scalar)

    @given(st.integers(min_value=1, max_value=ec.N - 1),
           st.integers(min_value=1, max_value=ec.N - 1))
    @settings(max_examples=15, deadline=None)
    def test_double_scalar_mult_arms_agree(self, a, b):
        q = ec.scalar_mult(0xBEEF)
        fast = ec.double_scalar_mult(a, ec.GENERATOR, b, q)
        seed = seed_ec.double_scalar_mult(a, ec.GENERATOR, b, q)
        assert fast == seed == ec.point_add(
            ec.scalar_mult_plain(a), ec.scalar_mult_plain(b, q))

    @given(st.lists(st.integers(min_value=1, max_value=ec.N - 1),
                    min_size=1, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_multi_scalar_mult_arms_agree(self, scalars):
        terms = [(scalar, ec.scalar_mult(index + 2))
                 for index, scalar in enumerate(scalars)]
        fast = ec.multi_scalar_mult(terms)
        seed = seed_ec.multi_scalar_mult(terms)
        expected = ec.INFINITY
        for scalar, point in terms:
            expected = ec.point_add(expected,
                                    ec.scalar_mult_plain(scalar, point))
        assert fast == seed == expected

    @given(st.integers(min_value=1, max_value=ec.N - 1))
    @settings(max_examples=10, deadline=None)
    def test_equals_agrees_with_materialized_sum(self, a):
        q = ec.scalar_mult(0xF00D)
        expected = ec.point_add(ec.scalar_mult_plain(a),
                                ec.scalar_mult_plain(a + 1, q))
        for equals in (ec.double_scalar_mult_equals,
                       seed_ec.double_scalar_mult_equals):
            assert equals(a, ec.GENERATOR, a + 1, q, expected)
            assert not equals(a, ec.GENERATOR, a + 1, q, ec.GENERATOR)

    def test_is_infinity_both_arms(self):
        terms = [(5, ec.GENERATOR), (ec.N - 5, ec.GENERATOR)]
        for is_infinity in (ec.multi_scalar_mult_is_infinity,
                            seed_ec.multi_scalar_mult_is_infinity):
            assert is_infinity(terms)
            assert not is_infinity(terms[:1])

    def test_wnaf_digits_reconstruct_scalar(self):
        for scalar in EDGE_SCALARS:
            digits = ec._wnaf_digits(scalar, 5)
            value = 0
            for position, digit in enumerate(digits):
                value += digit << position
            assert value == scalar
            assert all(d == 0 or (d % 2 == 1 and abs(d) <= 15)
                       for d in digits)


class TestCodecArms:
    def test_credential_tree_byte_identical(self):
        """Real delegation wire dicts encode identically in production
        and in the seed oracle, and survive a cross-arm round trip."""
        case = build_case_study()
        for delegation, _supports in case.all_delegations():
            wire = delegation.to_dict()
            seed_bytes = seed_codec.encode(wire)
            fast_bytes = encoding.canonical_encode(wire)
            decoded = encoding.canonical_decode(seed_bytes)
            assert fast_bytes == seed_bytes
            assert decoded == seed_codec.decode(fast_bytes) == wire
            assert Delegation.from_dict(decoded).id == delegation.id

    def test_strict_errors_match_in_both_arms(self):
        import struct
        unsorted = b"M" + struct.pack(">I", 2) \
            + b"S" + struct.pack(">I", 1) + b"b" \
            + encoding.canonical_encode(1) \
            + b"S" + struct.pack(">I", 1) + b"a" \
            + encoding.canonical_encode(2)
        bad_inputs = [
            encoding.canonical_encode(1) + b"x",   # trailing bytes
            encoding.canonical_encode("hey")[:-1],  # truncated
            b"",                                    # empty
            b"Z",                                   # unknown tag
            b"I" + struct.pack(">I", 2) + b"\x00\x02",  # non-minimal int
            unsorted,                               # unsorted map keys
        ]
        for data in bad_inputs:
            with pytest.raises(encoding.EncodingError) as fast:
                encoding.canonical_decode(data)
            with pytest.raises(encoding.EncodingError) as seed:
                seed_codec.decode(data)
            assert str(fast.value) == str(seed.value)

    def test_memoryview_decode_matches_bytes(self):
        wire = {"roles": ["admin", "member"], "depth": 3,
                "blob": b"\x00" * 16}
        blob = encoding.canonical_encode(wire)
        assert encoding.canonical_decode(memoryview(blob)) == wire
        assert encoding.canonical_decode(bytearray(blob)) == wire


class TestInternPools:
    def test_point_intern_returns_same_object(self):
        encoded = ec.scalar_mult(0xABCDEF).encode()
        first = ec.Point.decode(encoded)
        second = ec.Point.decode(encoded)
        assert first is second
        assert seed_ec.point_decode(encoded) == first

    def test_point_intern_bounded(self):
        for scalar in range(2, 60):
            ec.Point.decode(ec.scalar_mult(scalar).encode())
        assert len(ec._point_intern) <= ec._POINT_INTERN_LIMIT

    def test_atom_pool_bounded(self):
        for index in range(encoding._ATOM_LIMIT + 50):
            encoding.canonical_decode(
                encoding.canonical_encode(f"atom-{index}"))
        assert len(encoding._atoms) <= encoding._ATOM_LIMIT

    def test_oversized_strings_not_interned(self):
        long_string = "x" * (encoding._ATOM_MAX_LEN + 1)
        decoded = encoding.canonical_decode(
            encoding.canonical_encode(long_string))
        assert decoded == long_string
        assert long_string not in encoding._atoms

    def test_comb_cache_bounded_with_promotion_freeze(self, monkeypatch):
        """The comb cache never exceeds its limit, and once full it
        stops promoting (no eviction: a comb build is far too expensive
        to thrash; later points fall back to window tables)."""
        monkeypatch.setattr(ec, "_COMB_BUILD_THRESHOLD", 1)
        monkeypatch.setattr(ec, "_COMB_CACHE_LIMIT", 2)
        points = [ec.scalar_mult(0x1111 * (index + 1))
                  for index in range(4)]
        saved = dict(ec._comb_cache)
        ec._comb_cache.clear()
        try:
            promoted = [ec._comb_for(point) is not None
                        for point in points]
            assert promoted == [True, True, False, False]
            assert len(ec._comb_cache) == 2
            early = {(p.x, p.y) for p in points[:2]}
            assert set(ec._comb_cache) == early
            # The frozen-out point still multiplies correctly.
            assert ec.scalar_mult(7, points[-1]) == \
                ec.scalar_mult_plain(7, points[-1])
        finally:
            ec._comb_cache.clear()
            ec._comb_cache.update(saved)


class TestConcurrency:
    def test_thread_safety_smoke(self):
        """Concurrent multiplications racing on cold points (table and
        comb builds included) all agree with the plain ladder."""
        base = ec.scalar_mult(0xDEADBEEF)
        expected = ec.scalar_mult_plain(0x12345, base)
        errors = []

        def worker():
            try:
                for _ in range(30):
                    if ec.scalar_mult(0x12345, base) != expected:
                        raise AssertionError("wrong product")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
