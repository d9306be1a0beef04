"""Benchmark the crypto fast path: memo, double-scalar verify, batching.

Five measurements (see docs/PERFORMANCE.md, "The crypto fast path" and
"Hardware-speed core"):

* **warm vs cold validate_proof** on the Table 3 case-study proof
  (Maria => AirNet.access, 3 links + support proofs, 8 distinct
  certificates). A cold pass re-decodes the proof from its wire form
  and clears the verification memo, paying every signature check; warm
  passes revalidate the same objects and ride the per-object flags.
  Required: >= 5x.
* **cold Schnorr verify** against the pre-change two-multiplication
  baseline (``s*G`` via the generator table plus ``e*P`` via plain
  double-and-add, exactly what ``SchnorrPublicKey.verify`` computed
  before the Strauss/GLV joint ladder). Fresh keys every sample so no
  window table exists for P on either side. Required: >= 1.5x.
* **batch verification throughput** (report-only): ``verify_batch``
  vs. one-at-a-time verifies at the Schnorr layer (no memo), once on a
  bundle signed by distinct keys and once on a bundle whose issuer
  keys repeat, as they do inside a proof.
* **cold validate_proof, production vs seed**: the same cold pass with
  the seed arms swapped in (``tests/oracles/seed_arms.py``: 4-bit joint
  ladder without combs, no point or key interning, seed codec) against
  the production core. Both arms clear the verification memo every
  pass; the production arm is warmed until its comb tables exist
  (table construction is a one-time cost, not per-validation work).
  Required: >= 2x.
* **wire codec, production vs seed**: ``canonical_encode``/
  ``canonical_decode`` on the case-study proof's wire dict against the
  seed codec oracle (``tests/oracles/seed_codec.py``), with the
  production encoding asserted BYTE-IDENTICAL to the oracle's in-bench
  (the canonical bytes are signature-bearing, so any divergence is a
  correctness bug, not a regression). Required: >= 1.3x each way.

Emits ``BENCH_crypto_fastpath.json`` with the headline ratios and times
at the top level, and exits nonzero if a required speedup is missed.
Run standalone (``python benchmarks/bench_crypto_fastpath.py
[--quick]``) or under pytest
(``pytest benchmarks/bench_crypto_fastpath.py``).
"""

import argparse
import os
import random
import statistics
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

import _emit                                          # noqa: E402

from repro.core import SimClock                          # noqa: E402
from repro.core.proof import Proof, validate_proof       # noqa: E402
from repro.crypto import (                               # noqa: E402
    ec,
    encoding,
    schnorr,
    verify_cache,
)
from repro.crypto.schnorr import (                       # noqa: E402
    SchnorrPrivateKey,
    _challenge,
    _parse_signature,
)
from repro.wallet.wallet import Wallet                   # noqa: E402
from repro.workloads import build_case_study             # noqa: E402
from tests.oracles import seed_codec                     # noqa: E402
from tests.oracles.seed_arms import seed_arms            # noqa: E402

OUTPUT = "BENCH_crypto_fastpath.json"
REQUIRED_WARM_SPEEDUP = 5.0
REQUIRED_VERIFY_SPEEDUP = 1.5
REQUIRED_COLD_SPEEDUP = 2.0
REQUIRED_CODEC_SPEEDUP = 1.3


def _median(samples):
    return statistics.median(samples)


def _case_study_proof() -> Proof:
    case = build_case_study()
    wallet = Wallet(owner=None, address="bench", clock=SimClock())
    for delegation, supports in case.all_delegations():
        wallet.publish(delegation, supports)
    proof = wallet.query_direct(case.maria.entity, case.airnet_access)
    assert proof is not None, "case study must yield Maria => access"
    return proof


def bench_validate_proof(repeat: int) -> dict:
    """Cold (fresh objects + cleared memo) vs warm revalidation."""
    proof = _case_study_proof()
    wire = proof.to_dict()
    certificates = len(list(proof.all_delegations()))

    cold_samples = []
    for _ in range(repeat):
        fresh = Proof.from_dict(wire)  # new objects: no per-object flags
        verify_cache.cache_clear()     # and no process-memo entries
        started = time.perf_counter()
        validate_proof(fresh, at=0.0)
        cold_samples.append(time.perf_counter() - started)

    warm_proof = Proof.from_dict(wire)
    validate_proof(warm_proof, at=0.0)  # prime the flags
    warm_samples = []
    for _ in range(repeat * 5):
        started = time.perf_counter()
        validate_proof(warm_proof, at=0.0)
        warm_samples.append(time.perf_counter() - started)

    # Honesty baseline: the memo disabled entirely, every pass cold.
    with verify_cache.disabled():
        disabled_samples = []
        for _ in range(max(3, repeat // 2)):
            fresh = Proof.from_dict(wire)
            started = time.perf_counter()
            validate_proof(fresh, at=0.0)
            disabled_samples.append(time.perf_counter() - started)

    cold = _median(cold_samples)
    warm = _median(warm_samples)
    return {
        "proof_links": proof.depth(),
        "distinct_certificates": certificates,
        "cold_ms": cold * 1e3,
        "warm_ms": warm * 1e3,
        "memo_disabled_ms": _median(disabled_samples) * 1e3,
        "warm_speedup_vs_cold": cold / warm if warm > 0 else float("inf"),
        "memo": verify_cache.cache_info(),
    }


def _baseline_verify(public_point, message: bytes, signature: bytes) -> bool:
    """The pre-change two-multiplication verify, reproduced verbatim:
    ``s*G`` through the generator window table, ``e*P`` as an
    independent multiplication (plain double-and-add for a cold P), and
    a general point addition."""
    parsed = _parse_signature(signature)
    if parsed is None:
        return False
    r_point, s = parsed
    e = _challenge(r_point, public_point, message)
    lhs = ec.scalar_mult(s)
    rhs = ec.point_add(r_point, ec.scalar_mult_plain(e, public_point))
    return lhs == rhs


def bench_schnorr_verify(repeat: int) -> dict:
    """Cold single verify: joint ladder vs two-multiplication baseline."""
    rng = random.Random(4242)
    baseline_samples = []
    fastpath_samples = []
    for index in range(repeat):
        key = SchnorrPrivateKey(rng.randrange(1, ec.N))
        public = key.public_key
        message = b"fastpath sample %d" % index
        signature = key.sign(message)

        started = time.perf_counter()
        ok_base = _baseline_verify(public.point, message, signature)
        baseline_samples.append(time.perf_counter() - started)

        started = time.perf_counter()
        ok_fast = public.verify(message, signature)
        fastpath_samples.append(time.perf_counter() - started)
        assert ok_base and ok_fast

    baseline = _median(baseline_samples)
    fastpath = _median(fastpath_samples)
    return {
        "baseline_two_mult_ms": baseline * 1e3,
        "joint_ladder_ms": fastpath * 1e3,
        "cold_verify_speedup":
            baseline / fastpath if fastpath > 0 else float("inf"),
    }


def bench_batch_verify(batch_size: int, repeat: int,
                       signers: int = 0) -> dict:
    """Report-only: RLC batch vs one-at-a-time at the Schnorr layer.

    ``signers`` keys sign the bundle round-robin (0: one key per item).
    Repeated issuer keys are the proof case: batching merges their
    coefficients, and one-at-a-time verifies warm their tables too.
    """
    rng = random.Random(77)
    keys = [SchnorrPrivateKey(rng.randrange(1, ec.N))
            for _ in range(signers or batch_size)]
    items = []
    for index in range(batch_size):
        key = keys[index % len(keys)]
        message = b"batch sample %d" % index
        items.append((key.public_key, message, key.sign(message)))

    individual_samples = []
    batch_samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        assert all(public.verify(message, signature)
                   for public, message, signature in items)
        individual_samples.append(time.perf_counter() - started)

        started = time.perf_counter()
        assert schnorr.verify_batch(items)
        batch_samples.append(time.perf_counter() - started)

    individual = _median(individual_samples)
    batch = _median(batch_samples)
    return {
        "batch_size": batch_size,
        "signers": len(keys),
        "individual_ms": individual * 1e3,
        "batch_ms": batch * 1e3,
        "batch_speedup": individual / batch if batch > 0 else float("inf"),
    }


def bench_cold_fastcore(repeat: int) -> dict:
    """Cold validate_proof: production core vs the seed arms.

    Every pass decodes fresh objects and clears the verification memo,
    so both arms pay full signature checks; only the underlying EC,
    codec, and decode-interning machinery differs. The fast arm is
    warmed past the comb-build threshold first -- the tables are a
    one-time per-process cost, and a cold *validation* should not be
    charged for them (the seed arm's generator window table was likewise
    built at import, before anyone measured).
    """
    proof = _case_study_proof()
    wire = proof.to_dict()

    def cold_pass():
        fresh = Proof.from_dict(wire)
        verify_cache.cache_clear()
        started = time.perf_counter()
        validate_proof(fresh, at=0.0)
        return time.perf_counter() - started

    samples = max(10, repeat * 2)
    with seed_arms():
        for _ in range(3):
            cold_pass()
        seed_samples = [cold_pass() for _ in range(samples)]

    for _ in range(30):  # past _COMB_BUILD_THRESHOLD for the hot points
        cold_pass()
    fast_samples = [cold_pass() for _ in range(samples)]

    # Best-of, not median: a cold validation has a well-defined floor
    # and only upward noise (GC, scheduler), so min is the stable
    # estimator for both arms and the ratio is noise-resistant.
    seed = min(seed_samples)
    fast = min(fast_samples)
    return {
        "seed_cold_ms": seed * 1e3,
        "fastcore_cold_ms": fast * 1e3,
        "cold_speedup": seed / fast if fast > 0 else float("inf"),
    }


def bench_wire_codec(repeat: int) -> dict:
    """canonical_encode/decode vs the seed codec, byte-identity gated.

    The value under test is the case-study proof's wire dict -- the
    exact shape every publish/import/discovery RPC serializes. The
    production encoding MUST equal the seed oracle's byte for byte
    (canonical bytes feed signatures and fingerprints); the bench
    asserts that before it trusts any timing.
    """
    wire = _case_study_proof().to_dict()
    inner = 20  # encodes/decodes per timed sample

    seed_bytes = seed_codec.encode(wire)
    fast_bytes = encoding.canonical_encode(wire)
    assert fast_bytes == seed_bytes, \
        "fast encoder diverged from canonical bytes"
    assert encoding.canonical_decode(fast_bytes) == \
        encoding.canonical_decode(memoryview(fast_bytes)), \
        "fast decoder diverged between bytes and memoryview inputs"
    seed_value = seed_codec.decode(seed_bytes)
    assert encoding.canonical_decode(fast_bytes) == seed_value, \
        "fast decoder diverged from seed decoder"

    def time_arm(function, argument):
        samples = []
        for _ in range(repeat):
            started = time.perf_counter()
            for _ in range(inner):
                function(argument)
            samples.append((time.perf_counter() - started) / inner)
        return _median(samples)

    seed_encode = time_arm(seed_codec.encode, wire)
    seed_decode = time_arm(seed_codec.decode, seed_bytes)
    fast_encode = time_arm(encoding.canonical_encode, wire)
    fast_decode = time_arm(encoding.canonical_decode, seed_bytes)

    return {
        "wire_bytes": len(seed_bytes),
        "byte_identical": fast_bytes == seed_bytes,
        "seed_encode_us": seed_encode * 1e6,
        "fast_encode_us": fast_encode * 1e6,
        "encode_speedup":
            seed_encode / fast_encode if fast_encode > 0 else float("inf"),
        "seed_decode_us": seed_decode * 1e6,
        "fast_decode_us": fast_decode * 1e6,
        "decode_speedup":
            seed_decode / fast_decode if fast_decode > 0 else float("inf"),
        "codec": encoding.codec_info(),
    }


def run(quick: bool, output: str, metrics_out=None) -> int:
    started = time.perf_counter()
    repeat = 5 if quick else 15

    validate = bench_validate_proof(repeat)
    print(f"validate_proof   cold={validate['cold_ms']:.2f}ms "
          f"warm={validate['warm_ms']:.4f}ms "
          f"disabled={validate['memo_disabled_ms']:.2f}ms "
          f"speedup={validate['warm_speedup_vs_cold']:.0f}x "
          f"(required {REQUIRED_WARM_SPEEDUP:.0f}x)")

    verify = bench_schnorr_verify(repeat * 2)
    print(f"schnorr verify   baseline={verify['baseline_two_mult_ms']:.2f}ms "
          f"joint={verify['joint_ladder_ms']:.2f}ms "
          f"speedup={verify['cold_verify_speedup']:.2f}x "
          f"(required {REQUIRED_VERIFY_SPEEDUP:.1f}x)")

    batch_size = 8 if quick else 16
    batch = bench_batch_verify(batch_size, max(3, repeat // 2))
    repeated = bench_batch_verify(batch_size, max(3, repeat // 2),
                                  signers=4)
    for case in (batch, repeated):
        print(f"batch verify     n={case['batch_size']} "
              f"signers={case['signers']} "
              f"individual={case['individual_ms']:.2f}ms "
              f"batch={case['batch_ms']:.2f}ms "
              f"speedup={case['batch_speedup']:.2f}x (report-only)")

    cold = bench_cold_fastcore(repeat)
    print(f"cold validate    seed={cold['seed_cold_ms']:.2f}ms "
          f"fast={cold['fastcore_cold_ms']:.2f}ms "
          f"speedup={cold['cold_speedup']:.2f}x "
          f"(required {REQUIRED_COLD_SPEEDUP:.1f}x)")

    codec = bench_wire_codec(repeat)
    print(f"wire codec       encode {codec['seed_encode_us']:.1f}us->"
          f"{codec['fast_encode_us']:.1f}us "
          f"({codec['encode_speedup']:.2f}x)  "
          f"decode {codec['seed_decode_us']:.1f}us->"
          f"{codec['fast_decode_us']:.1f}us "
          f"({codec['decode_speedup']:.2f}x) "
          f"(required {REQUIRED_CODEC_SPEEDUP:.1f}x, byte-identity "
          f"{'OK' if codec['byte_identical'] else 'BROKEN'})")

    ok = (validate["warm_speedup_vs_cold"] >= REQUIRED_WARM_SPEEDUP
          and verify["cold_verify_speedup"] >= REQUIRED_VERIFY_SPEEDUP
          and cold["cold_speedup"] >= REQUIRED_COLD_SPEEDUP
          and codec["byte_identical"]
          and codec["encode_speedup"] >= REQUIRED_CODEC_SPEEDUP
          and codec["decode_speedup"] >= REQUIRED_CODEC_SPEEDUP)

    _emit.emit(output, "crypto_fastpath", {
        "required_warm_speedup": REQUIRED_WARM_SPEEDUP,
        "required_verify_speedup": REQUIRED_VERIFY_SPEEDUP,
        "required_cold_speedup": REQUIRED_COLD_SPEEDUP,
        "required_codec_speedup": REQUIRED_CODEC_SPEEDUP,
        "pass": ok,
        "cold_speedup": cold["cold_speedup"],
        "fastcore_cold_ms": cold["fastcore_cold_ms"],
        "encode_speedup": codec["encode_speedup"],
        "decode_speedup": codec["decode_speedup"],
        "batch_speedup": batch["batch_speedup"],
        "batch_repeated_keys_speedup": repeated["batch_speedup"],
        "validate_proof": validate,
        "schnorr_verify": verify,
        "batch_verify": batch,
        "batch_verify_repeated_keys": repeated,
        "cold_fastcore": cold,
        "wire_codec": codec,
    }, quick=quick, started=started, metrics_out=metrics_out)
    print(f"wrote {output} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# -- pytest entry points -----------------------------------------------------

def test_crypto_fastpath_speedups(tmp_path):
    """Shape claim: warm validation 5x+, joint-ladder verify 1.5x+,
    cold validation 2x+ over the seed arms, codec 1.3x+
    byte-identical."""
    assert run(quick=True, output=str(tmp_path / OUTPUT)) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    _emit.add_common_args(parser, OUTPUT)
    args = parser.parse_args(argv)
    return run(quick=args.quick, output=args.output,
               metrics_out=args.metrics_out)


if __name__ == "__main__":
    raise SystemExit(main())
