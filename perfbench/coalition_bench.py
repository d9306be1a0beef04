"""The ``coalition-discovery`` workload: cross-home discovery in-process.

Each deployment is one coalition family at one generation seed, built
on the simulated ``net.Network``. It is measured in three steps, all
inside a fresh ``verify_cache.scoped(VerificationMemo())``:

1. one cold ``authorize`` at the resource server (discovery crosses the
   homes the tags name);
2. ``WARM_SLICES`` x ``WARM_SLICE`` warm repeats of the same
   ``authorize``;
3. a revocation of the proof's mid-chain credential, published at every
   home wallet holding it, then a re-authorize.

The cold proof and the re-authorize outcome must match digests pinned
per (family, seed) in ``pinned.json``; the proof must validate, every
warm repeat must return the cold proof's bytes, and the re-authorize
must never return a proof that uses the revoked credential.

    python3 perfbench/coalition_bench.py --pin   # rewrite pinned.json
"""

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "pinned.json")

FAMILIES = ("case-study", "federation:5", "ring:8", "mesh:8", "scc:6x6",
            "deep:8")
# Generation seeds a run draws from; pinned.json holds a digest for each.
SEED_POOL = tuple(range(24))
# Warm repeats are timed one by one and summarised per slice: each
# slice is a few milliseconds of the run, short enough to fall inside
# one of the host's fast phases, and long enough that its p90 has ten
# samples beyond it.
WARM_SLICE = 100
WARM_SLICES = 10
WARM_REPEATS = WARM_SLICE * WARM_SLICES
# At --seconds 20 a run covers the whole pool, so runs differ in the
# order of their deployments, not in which topologies they time.
SECONDS_PER_SEED = 20.0 / len(SEED_POOL)

# Network topics named in BENCHMARK.json; anything else counts as "other".
TOPICS = ("sb:hello", "sb:finish", "rpc:discover_batch",
          "rpc-reply:discover_batch", "rpc:subscribe", "rpc-reply:subscribe")


@dataclass
class Deployment:
    network: object
    clock: object
    server: object
    engine: object
    homes: list
    subject: object
    obj: object
    principals: list


def deploy(family: str, seed: int) -> Deployment:
    """Generate the topology, place it, and present the user credential."""
    from repro.workloads import topology
    from repro.workloads.scenarios import (
        build_distributed_case_study, build_distributed_federation,
        deploy_coalition,
    )
    kind, _, size = family.partition(":")
    if kind == "case-study":
        d = build_distributed_case_study(seed=seed)
        case = d.case
        d.server.wallet.publish(case.d1_maria_member)
        return Deployment(d.network, d.clock, d.server, d.engine,
                          [d.bigisp_home, d.airnet_home], case.maria.entity,
                          case.airnet_access,
                          [case.big_isp, case.air_net, case.maria,
                           case.sheila])
    if kind == "federation":
        fed = build_distributed_federation(domains=int(size), seed=seed)
        target, source = fed.domains[0], fed.domains[1]
        target.server.wallet.publish(source.credentials[0])
        return Deployment(fed.network, fed.clock, target.server,
                          target.engine, [x.home for x in fed.domains],
                          source.users[0].entity, target.access,
                          [x.principal for x in fed.domains])
    if kind == "ring":
        workload = topology.make_ring_coalition(int(size), seed=seed)
    elif kind == "mesh":
        workload = topology.make_mesh_coalition(int(size), seed=seed)
    elif kind == "scc":
        domains, roles = size.split("x")
        workload = topology.make_scc_heavy(int(domains), int(roles),
                                           seed=seed)
    elif kind == "deep":
        workload = topology.make_deep_mutual_trust(int(size), seed=seed)
    else:
        raise ValueError(f"unknown family {family!r}")
    dep = deploy_coalition(workload)
    dep.server.wallet.publish(dep.entry)
    return Deployment(dep.network, dep.clock, dep.server, dep.engine,
                      list(dep.homes.values()), workload.subject,
                      workload.obj, list(workload.principals.values()))


def proof_ids(proof) -> set:
    """Every delegation id a proof rests on, supports included."""
    ids = set()
    pending = [proof]
    while pending:
        current = pending.pop()
        ids.update(d.id for d in current.chain)
        for supports in current.supports.values():
            pending.extend(supports)
    return ids


def digest(proof) -> str:
    from repro.crypto.encoding import canonical_encode
    if proof is None:
        return "denied"
    return hashlib.sha256(canonical_encode(proof.to_dict())).hexdigest()


def coalition_seeds(seed: int, seconds: float) -> List[int]:
    count = max(1, min(len(SEED_POOL), round(seconds / SECONDS_PER_SEED)))
    return random.Random(f"coalition:{seed}").sample(SEED_POOL, count)


def measure(family: str, seed: int, recorder=None) -> dict:
    """Set up, authorize cold, repeat warm, revoke and re-authorize."""
    from repro.core.delegation import revoke
    from repro.core.proof import validate_proof
    from repro.crypto import verify_cache
    from repro.crypto.verify_cache import VerificationMemo

    def span(tag):
        if recorder is None:
            return nullcontext()
        return recorder.span("bench.authorize", rid=f"{family}/{seed}/{tag}")

    started = perf_counter()
    dep = deploy(family, seed)
    setup_s = perf_counter() - started
    wallet, network = dep.server.wallet, dep.network
    memo = VerificationMemo()
    with verify_cache.scoped(memo):
        network.reset_counters()
        before = dep.engine.stats.to_dict()
        with span("cold"):
            started = perf_counter()
            monitor = wallet.authorize(dep.subject, dep.obj)
            cold_s = perf_counter() - started
        after = dep.engine.stats.to_dict()
        topics = {topic: (t.messages, t.bytes)
                  for topic, t in network.by_topic.items()}
        messages, wire_bytes = network.totals.messages, network.totals.bytes
        proof = monitor.proof if monitor is not None else None
        if monitor is not None:
            monitor.cancel()

        warm, warm_proofs = [], []
        for repeat in range(WARM_REPEATS):
            with span(f"warm{repeat}"):
                started = perf_counter()
                again = wallet.authorize(dep.subject, dep.obj)
                warm.append(perf_counter() - started)
            warm_proofs.append(again.proof if again is not None else None)
            if again is not None:
                again.cancel()

        cold_ok = proof is not None
        reauth_ok, reauth_s, revoke_messages, reauth = False, 0.0, 0, None
        if cold_ok:
            validate_proof(proof, at=dep.clock.now())
            mid = proof.chain[len(proof.chain) // 2]
            issuer = next(p for p in dep.principals
                          if p.entity == mid.issuer)
            revocation = revoke(issuer, mid, revoked_at=dep.clock.now())
            holders = [home for home in dep.homes
                       if home.wallet.store.get_delegation(mid.id)
                       is not None]
            network.reset_counters()
            with span("reauth"):
                started = perf_counter()
                for home in holders:
                    home.wallet.publish_revocation(revocation)
                monitor = wallet.authorize(dep.subject, dep.obj)
                reauth_s = perf_counter() - started
            revoke_messages = network.totals.messages
            reauth = monitor.proof if monitor is not None else None
            if monitor is not None:
                monitor.cancel()
            reauth_ok = (bool(holders) and wallet.is_revoked(mid.id)
                         and (reauth is None
                              or mid.id not in proof_ids(reauth)))
        end = dep.engine.stats.to_dict()
    # Proofs are immutable, so one digest per distinct object suffices;
    # the cold proof's own digest is checked against the pinned one.
    digests = {}
    for p in [proof, *warm_proofs]:
        if id(p) not in digests:
            digests[id(p)] = digest(p)
    return {
        "family": family, "seed": seed, "cold_ok": cold_ok,
        "reauth_ok": reauth_ok, "proof": digests[id(proof)],
        "warm": [digests[id(p)] for p in warm_proofs],
        "reauth": digest(reauth),
        "setup_s": setup_s, "cold_s": cold_s, "warm_s": warm,
        "reauth_s": reauth_s, "revoke_messages": revoke_messages,
        "messages": messages, "bytes": wire_bytes,
        "rounds": after["rounds"] - before["rounds"],
        "remote_queries": sum(after[k] - before[k] for k in (
            "remote_direct_queries", "remote_subject_queries",
            "remote_object_queries")),
        "batch_rpcs": after["batch_rpcs"] - before["batch_rpcs"],
        "cache_hits": sum(end[k] - before[k] for k in (
            "cache_hits", "cache_negative_hits")),
        "cache_misses": end["cache_misses"] - before["cache_misses"],
        "topics": topics,
        "memo": memo.info(),
        "proof_cache": wallet.cache_info() or {},
    }


def load_pinned() -> Dict[str, dict]:
    with open(PINNED) as handle:
        return json.load(handle)


def failures(record: dict, pinned: Dict[str, dict]) -> int:
    """Failed operations of one deployment: the cold authorize, each
    warm repeat whose proof differs from the cold one, and the
    re-authorize after revocation."""
    expected = pinned.get(f"{record['family']}@{record['seed']}") or {}
    cold_ok = record["cold_ok"] and expected.get("proof") == record["proof"]
    reauth_ok = (record["reauth_ok"]
                 and expected.get("reauth") == record["reauth"])
    warm_failed = sum(w != record["proof"] or w == "denied"
                      for w in record["warm"])
    return (not cold_ok) + (not reauth_ok) + warm_failed


def run_pass(seed: int, seconds: float, traced: bool) -> dict:
    recorder = None
    if traced:
        from tracing import SpanRecorder, install_discovery_layers
        recorder = SpanRecorder()
        install_discovery_layers(recorder)
    pinned = load_pinned()
    records = []
    for generation_seed in coalition_seeds(seed, seconds):
        for family in FAMILIES:
            records.append(measure(family, generation_seed, recorder))
    failed = sum(failures(r, pinned) for r in records)

    by_family = defaultdict(list)
    for r in records:
        by_family[r["family"]].append(r)

    def per_family(fn) -> float:
        return stats.geomean(fn(rs) for rs in by_family.values())

    def quiet(field, scale=1.0, higher_is_better=False):
        # Each deployment, and each warm slice, is a short slice of the run.
        return per_family(lambda rs: stats.quiet(
            [v * scale for r in rs for v in field(r)], higher_is_better))

    def warm_slices(r):
        warm = r["warm_s"]
        return [warm[i:i + WARM_SLICE]
                for i in range(0, len(warm), WARM_SLICE)]

    metrics = {
        # Set-up is the median over deployments, as the contract asks.
        "setup_s": per_family(lambda rs: stats.median(
            [r["setup_s"] for r in rs])),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cold_ms": quiet(lambda r: [r["cold_s"]], 1000.0),
        "authorize_p50_ms": quiet(lambda r: [
            stats.percentile(w, 50.0) for w in warm_slices(r)], 1000.0),
        "authorize_p90_ms": quiet(lambda r: [
            stats.percentile(w, 90.0) for w in warm_slices(r)], 1000.0),
        "capacity_rps": quiet(lambda r: [
            len(w) / sum(w) for w in warm_slices(r)], higher_is_better=True),
        "write_p50_ms": quiet(lambda r: [r["reauth_s"]], 1000.0),
        "messages_per_auth": per_family(
            lambda rs: statistics.fmean(r["messages"] for r in rs)),
        "bytes_per_auth": per_family(
            lambda rs: statistics.fmean(r["bytes"] for r in rs)),
        "rounds_per_auth": per_family(
            lambda rs: statistics.fmean(r["rounds"] for r in rs)),
    }
    result = {
        "attempted": len(records) * (WARM_REPEATS + 2),
        "failed": failed,
        "valid": True,
        "closed_loop_s": sum(r["cold_s"] + sum(r["warm_s"]) + r["reauth_s"]
                             for r in records),
        "samples": {"deployments": len(records),
                    "warm_per_slice": WARM_SLICE,
                    "warm_highest_trusted_percentile":
                        stats.highest_trusted_level(WARM_SLICE)},
        "metrics": metrics,
        "send_lag_p99_ms": 0.0,
    }
    if recorder is not None:
        result["layers"] = discovery_layers(recorder, records, by_family)
    return result


def topic_metric(topic: str) -> str:
    return topic.replace(":", ".")


def discovery_layers(recorder, records: List[dict],
                     by_family: Dict[str, List[dict]]) -> dict:
    spans = recorder.spans
    own = stats.per_request_self(spans)
    cold = {f"{r['family']}/{r['seed']}/cold" for r in records}
    reauth = {f"{r['family']}/{r['seed']}/reauth" for r in records}

    def layer(name: str) -> float:
        values = [v for rid, v in own.get(name, {}).items() if rid in cold]
        return stats.percentile(values, 50.0) * 1e6 if values else 0.0

    def total(name: str, rids=cold) -> float:
        sums: Dict[object, float] = defaultdict(float)
        for _sid, span_name, start, end, _parent, rid in spans:
            if span_name == name and rid in rids:
                sums[rid] += end - start
        values = list(sums.values())
        return stats.percentile(values, 50.0) * 1e6 if values else 0.0

    count = len(records)
    handshakes = sum(1 for s in spans
                     if s[1] == "net.handshake" and s[5] in cold)
    memo_hits = sum(r["memo"]["hits"] for r in records)
    memo_misses = sum(r["memo"]["misses"] for r in records)
    cache_hits = sum(r["proof_cache"].get("hits", 0) for r in records)
    cache_misses = sum(r["proof_cache"].get("misses", 0) for r in records)
    disco_hits = sum(r["cache_hits"] for r in records)
    disco_total = disco_hits + sum(r["cache_misses"] for r in records)
    layers = {
        "delegation.decode_us": layer("delegation.decode"),
        "proof.encode_us": layer("proof.encode"),
        "codec.encode_us": layer("codec.encode"),
        "codec.decode_us": layer("codec.decode"),
        "crypto.verify_us": layer("crypto.verify"),
        "crypto.verify_calls": float(
            recorder.counts.get("crypto.verify_calls", 0)),
        "crypto.memo_hit_rate": memo_hits / max(1, memo_hits + memo_misses),
        "wallet.publish_self_us": layer("wallet.publish"),
        "wallet.authorize_us": total("wallet.authorize"),
        "wallet.revoke_us": total("wallet.revoke", reauth),
        "wallet.proof_cache_hit_rate": cache_hits / max(
            1, cache_hits + cache_misses),
        "discovery.discover_self_us": layer("discovery.discover"),
        "discovery.remote_queries": sum(
            r["remote_queries"] for r in records) / count,
        "discovery.batch_rpcs": sum(r["batch_rpcs"] for r in records) / count,
        "discovery.cache_hit_rate": disco_hits / max(1, disco_total),
        "discovery.revoke_messages": sum(
            r["revoke_messages"] for r in records) / count,
        "net.rpc_us": layer("net.rpc"),
        "net.handshake_us": layer("net.handshake"),
        "net.handshakes": handshakes / count,
    }
    for kind, slot in (("messages", 0), ("bytes", 1)):
        other = 0.0
        for topic in TOPICS:
            layers[f"net.{kind}.{topic_metric(topic)}"] = 0.0
        for r in records:
            for topic, pair in r["topics"].items():
                key = f"net.{kind}.{topic_metric(topic)}"
                if topic in TOPICS:
                    layers[key] += pair[slot] / count
                else:
                    other += pair[slot] / count
        layers[f"net.{kind}.other"] = other
        for family, rs in by_family.items():
            layers[f"discovery.{kind}.{family_metric(family)}"] = sum(
                r[kind] for r in rs) / len(rs)
    return layers


def family_metric(family: str) -> str:
    return family.replace(":", "-")


def pin() -> None:
    """Recompute pinned.json for every (family, seed) in the pool."""
    pinned = {}
    for seed in SEED_POOL:
        for family in FAMILIES:
            record = measure(family, seed)
            if not (record["cold_ok"] and record["reauth_ok"]
                    and set(record["warm"]) == {record["proof"]}):
                raise SystemExit(f"{family}@{seed}: oracle failed")
            pinned[f"{family}@{seed}"] = {"proof": record["proof"],
                                          "reauth": record["reauth"]}
    with open(PINNED, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--pin", action="store_true", required=True)
    parser.parse_args()
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    pin()
