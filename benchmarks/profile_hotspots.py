"""Profile the federation workload and gate the hardware-speed core.

This is the profile-first half of the "hardware-speed core" change
(docs/PERFORMANCE.md): run a representative federation workload --
cross-domain discovery over the simulated network plus explicit wire
round-trips and cold proof validations -- under ``cProfile``, once with
the seed implementation swapped in (``tests/oracles/seed_arms.py``) and
once with the production core, and emit the top-20 functions of each
arm (by cumulative and by internal time) as a schema-v1 trajectory
file.

The seed profile is what motivated the rewrite: its top of the table
is the 4-bit window ladder, the per-verification batch inversions, the
square root in ``Point.decode``, and the recursive canonical encoder.
The gate here is that those rewritten seed functions have *left the
fast arm's top 5* -- i.e. the profile demonstrably moved, rather than
the same hotspots getting uniformly faster.

Emits ``PROFILE_hotspots.json`` and exits nonzero if a rewritten
function is still in the fast arm's top 5 by internal time. Run
standalone (``python benchmarks/profile_hotspots.py [--quick]``) or
under pytest (``pytest benchmarks/profile_hotspots.py``).
"""

import argparse
import cProfile
import os
import pstats
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

import _emit                                             # noqa: E402

from repro.core.proof import Proof, validate_proof       # noqa: E402
from repro.crypto import encoding, verify_cache          # noqa: E402
from repro.workloads import build_distributed_federation  # noqa: E402
from tests.oracles.seed_arms import seed_arms            # noqa: E402

OUTPUT = "PROFILE_hotspots.json"
TOP_N = 20

# Seed-path functions this change rewrote or bypassed. The fast arm
# must not have any of them in its top-5 by internal time:
#
# * _joint_ladder / _signed_pair -- the 4-bit Strauss ladder, replaced
#   by width-5 wNAF recoding over shared affine rows;
# * builtins.pow -- the modular square root in Point.decode, bypassed
#   by the interned-decode pool (and batch inversions elsewhere);
# * _encode_dict / _encode_into / _decode_at -- the recursive seed
#   codec, replaced by the zero-copy single-buffer fast codec.
REWRITTEN = (
    "_joint_ladder",
    "_signed_pair",
    "builtins.pow",
    "_encode_dict",
    "_encode_into",
    "_decode_at",
)


def _workload(federation, rounds: int) -> dict:
    """Cross-domain discovery + wire round-trips + cold validations.

    The serve loop of a federation resource server: every round, each
    user reaches for the neighboring domain's resource (discovery over
    the simulated network), and the resulting proof makes a full wire
    round-trip and a cold validation (memo cleared, fresh objects).
    """
    domains = len(federation.domains)
    proofs = 0
    wire_bytes = 0
    for _ in range(rounds):
        for user_domain in range(domains):
            resource_domain = (user_domain + 1) % domains
            proof = federation.authorize(user_domain, 0, resource_domain)
            if proof is None:
                continue
            proofs += 1
            blob = encoding.canonical_encode(proof.to_dict())
            wire_bytes += len(blob)
            fresh = Proof.from_dict(encoding.canonical_decode(blob))
            verify_cache.cache_clear()
            validate_proof(fresh, at=federation.clock.now())
    return {"domains": domains, "rounds": rounds, "proofs": proofs,
            "wire_bytes": wire_bytes}


def _function_label(key) -> str:
    filename, line, name = key
    if filename == "~":
        return name.strip("<>").replace("built-in method ", "")
    return f"{os.path.basename(filename)}:{line}({name})"


def _top_functions(profile: cProfile.Profile, sort_key: str) -> list:
    """Top-N entries as dicts; ``sort_key`` is 'tottime' or 'cumtime'."""
    stats = pstats.Stats(profile)
    index = {"tottime": 2, "cumtime": 3}[sort_key]
    entries = sorted(stats.stats.items(),
                     key=lambda item: item[1][index], reverse=True)
    return [
        {
            "function": _function_label(key),
            "ncalls": nc,
            "tottime_ms": tt * 1e3,
            "cumtime_ms": ct * 1e3,
        }
        for key, (cc, nc, tt, ct, callers) in entries[:TOP_N]
    ]


def _profile_arm(domains: int, rounds: int) -> dict:
    # Build the federation and warm the caches OUTSIDE the profile: the
    # measurement is the steady-state serve loop, not one-time setup
    # (credential signing at build, session handshakes, comb-table
    # construction past its use threshold). Profiling those would bill
    # per-process costs to a per-request measurement.
    federation = build_distributed_federation(domains=domains,
                                              users_per_domain=1,
                                              seed=11)
    from repro.crypto import ec
    history = [-1, -2]
    for _ in range(12):
        _workload(federation, rounds)
        current = len(ec._comb_cache)
        # Done warming once the comb cache is full (promotion freezes
        # there) or no table was promoted for two whole iterations.
        if current >= ec._COMB_CACHE_LIMIT or current == history[-2]:
            break
        history.append(current)
    profile = cProfile.Profile()
    profile.enable()
    stats = _workload(federation, rounds)
    profile.disable()
    return {
        "workload": stats,
        "top_tottime": _top_functions(profile, "tottime"),
        "top_cumtime": _top_functions(profile, "cumtime"),
    }


def _entry_name(entry) -> str:
    """The bare function name of a profile entry: ``ec.py:200(_f)`` ->
    ``_f``; builtins keep their dotted label (``builtins.pow``)."""
    label = entry["function"]
    if label.endswith(")") and "(" in label:
        return label[label.rindex("(") + 1:-1]
    return label


def _rewritten_in(entries) -> list:
    names = {_entry_name(entry) for entry in entries}
    return sorted(name for name in REWRITTEN if name in names)


def run(quick: bool, output: str, metrics_out=None) -> int:
    started = time.perf_counter()
    domains = 3 if quick else 4
    rounds = 2 if quick else 6

    with seed_arms():
        seed_arm = _profile_arm(domains, rounds)
    fast_arm = _profile_arm(domains, rounds)

    seed_hot = _rewritten_in(seed_arm["top_tottime"][:5])
    fast_hot = _rewritten_in(fast_arm["top_tottime"][:5])
    ok = not fast_hot

    for arm_name, arm in (("seed", seed_arm), ("fast", fast_arm)):
        print(f"-- {arm_name} arm, top 5 by internal time --")
        for entry in arm["top_tottime"][:5]:
            print(f"  {entry['tottime_ms']:8.2f}ms  "
                  f"{entry['ncalls']:>7}  {entry['function']}")
    print(f"rewritten fns in seed top-5: {seed_hot or 'none'}")
    print(f"rewritten fns in fast top-5: {fast_hot or 'none'} "
          f"(must be empty)")

    _emit.emit(output, "profile_hotspots", {
        "top_n": TOP_N,
        "rewritten_functions": list(REWRITTEN),
        "rewritten_in_seed_top5": seed_hot,
        "rewritten_in_fast_top5": fast_hot,
        "pass": ok,
        "seed_arm": seed_arm,
        "fast_arm": fast_arm,
    }, quick=quick, started=started, metrics_out=metrics_out)
    print(f"wrote {output} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# -- pytest entry points -----------------------------------------------------

def test_profile_hotspots(tmp_path):
    """Shape claim: the rewritten seed hotspots left the fast top 5."""
    assert run(quick=True, output=str(tmp_path / OUTPUT)) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    _emit.add_common_args(parser, OUTPUT)
    args = parser.parse_args(argv)
    return run(quick=args.quick, output=args.output,
               metrics_out=args.metrics_out)


if __name__ == "__main__":
    raise SystemExit(main())
