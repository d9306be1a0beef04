import random

import pytest

from repro.crypto.keys import (
    ALGORITHMS,
    DEFAULT_ALGORITHM,
    KeyPair,
    PublicKey,
    SignatureError,
    generate_keypair,
)


@pytest.fixture(scope="module", params=ALGORITHMS)
def keypair(request):
    return generate_keypair(request.param, rng=random.Random(31),
                            rsa_bits=512)


class TestGeneration:
    def test_default_algorithm(self):
        kp = generate_keypair()
        assert kp.algorithm == DEFAULT_ALGORITHM

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SignatureError):
            generate_keypair("rot13")

    def test_fingerprint_is_hex64(self, keypair):
        fp = keypair.fingerprint
        assert len(fp) == 64
        int(fp, 16)  # parses as hex

    def test_fingerprints_unique(self):
        fps = {generate_keypair().fingerprint for _ in range(5)}
        assert len(fps) == 5


class TestSignVerify:
    def test_round_trip(self, keypair):
        sig = keypair.sign(b"payload")
        assert keypair.public.verify(b"payload", sig)

    def test_tamper_rejected(self, keypair):
        sig = bytearray(keypair.sign(b"payload"))
        sig[-1] ^= 0xFF
        assert not keypair.public.verify(b"payload", bytes(sig))

    def test_non_bytes_message_rejected(self, keypair):
        with pytest.raises(SignatureError):
            keypair.sign("string")

    def test_non_bytes_signature_returns_false(self, keypair):
        assert not keypair.public.verify(b"payload", "sig")


class TestSerialization:
    def test_public_key_round_trip(self, keypair):
        restored = PublicKey.from_dict(keypair.public.to_dict())
        assert restored == keypair.public
        assert restored.fingerprint == keypair.fingerprint

    def test_malformed_record_rejected(self):
        with pytest.raises(SignatureError):
            PublicKey.from_dict({"algorithm": DEFAULT_ALGORITHM})

    @pytest.mark.parametrize("material", [
        "list", "bytearray", "int", "str", "memoryview"])
    def test_key_material_must_be_bytes(self, keypair, material):
        """Only the ``bytes`` the canonical decoder yields is key
        material; convertible look-alikes are refused, and an int is
        refused before ``bytes(n)`` could allocate n zero bytes."""
        raw = keypair.public.key_bytes
        forms = {
            "list": list(raw),
            "bytearray": bytearray(raw),
            "int": 33,
            "str": raw.hex(),
            "memoryview": memoryview(raw),
        }
        record = {"algorithm": keypair.algorithm, "key": forms[material]}
        with pytest.raises(SignatureError, match="must be bytes"):
            PublicKey.from_dict(record)

    def test_non_string_algorithm_rejected(self, keypair):
        with pytest.raises(SignatureError, match="unknown algorithm"):
            PublicKey.from_dict({"algorithm": ["schnorr-secp256k1"],
                                 "key": keypair.public.key_bytes})

    def test_garbage_key_bytes_rejected(self):
        with pytest.raises(SignatureError):
            PublicKey(algorithm=DEFAULT_ALGORITHM, key_bytes=b"junk")

    def test_garbage_rsa_blob_rejected(self):
        with pytest.raises(SignatureError):
            PublicKey(algorithm="rsa-fdh-sha256", key_bytes=b"\x00" * 6)

    def test_fingerprint_binds_algorithm(self, keypair):
        # Same bytes under a different algorithm label must not collide
        # (the label is hashed into the fingerprint).
        other_alg = [a for a in ALGORITHMS if a != keypair.algorithm][0]
        try:
            other = PublicKey(algorithm=other_alg,
                              key_bytes=keypair.public.key_bytes)
        except SignatureError:
            return  # bytes not even parseable under the other algorithm
        assert other.fingerprint != keypair.fingerprint


class TestKeyPairIntegrity:
    def test_signatures_cross_algorithm_rejected(self):
        schnorr_kp = generate_keypair("schnorr-secp256k1",
                                      rng=random.Random(1))
        rsa_kp = generate_keypair("rsa-fdh-sha256", rng=random.Random(1),
                                  rsa_bits=512)
        sig = schnorr_kp.sign(b"m")
        assert not rsa_kp.public.verify(b"m", sig)
