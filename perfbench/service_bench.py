"""The ``authz-hot`` and ``authz-churn`` workloads: the wallet service
driven over its socket from one client process.

One pass replays a prebuilt, seeded request stream against ``drbac
serve`` (default shards, mode, queue and memo sizes), on one connection,
in ``ROUNDS`` rounds. Each round starts a fresh server and replays the
whole stream on it:

1. set-up -- time the spawn up to the first ``ping`` answer;
2. cold   -- serve the stream's first ``COLD_REQUESTS``, one in flight.
             The prefix is long enough for lazy per-key work (the
             verifier's comb tables for the hot issuer keys) to finish
             inside it rather than stall the warm phases;
3. then, once per ``SECONDS_PER_SEGMENT`` of the round's share of
   ``--seconds``:
   open   -- a segment at a fixed offered rate, one sender and one
             receiver thread;
   window -- a chunk of saturating closed loop with ``WINDOW`` requests
             in flight.
   Alternating them spreads both kinds of sample over the whole run.

Set-up time, cold time and the authorize percentiles are medians over
the rounds, which are spread over the run, so a slow host phase owns a
figure only if it covers most of the run.

Every response is then checked against the stream's expectations and,
for a fixed sample of principals, against proof bytes from a
single-process reference wallet computed before the server starts.
"""

import json
import os
import random
import signal
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter, sleep
from typing import Dict, List, Optional, Tuple

from repro.core.clock import SimClock
from repro.core.delegation import Delegation
from repro.crypto.encoding import canonical_encode
from repro.service.loadgen import LoadGenerator, LoadgenConfig
from repro.wallet.wallet import Wallet
from repro.workloads.scenarios import SERVICE_EPOCH, ServicePopulation

from client import Connection, Timings, closed_loop, open_loop, windowed_loop
import stats

HERE = os.path.dirname(os.path.abspath(__file__))

POPULATION = {"population": 20_000, "domains": 16, "hot_size": 1_200}
ROUNDS = 3
# The comb builds finish within the first ~550 requests of every stream
# probed; the rest of the prefix pays first-seen principals' checks.
COLD_REQUESTS = 1_000
WINDOW = 4
WINDOW_SHARE = 0.3      # of --seconds, at the workload's window_rate
ORACLE_SAMPLE = 24
# Authorize percentiles are taken per round, over all of its segments,
# and reported as the median over the rounds; a slow host phase that
# covers one round then moves the figure little, where in a pooled
# percentile it would own the tail. Writes are too few per round on
# authz-hot, so write_p50_ms pools every round's. Capacity is the median
# of the window chunks' rates. Early segments and chunks run slower than
# late ones while the shards warm up, so every figure covers whole
# rounds. On a small shared host, stalls of
# 40-70 ms (a collector pause, hypervisor steal) recur every ~10 s and
# delay every request queued behind them, so p99 reads the stall, not
# the service. About 5% of authorizes present a principal the service has
# not seen (the population's Zipf tail) and pay a full signature check,
# so p95 sits on that cliff and jumps with each run's share of them.
# The tail reported is therefore p90, with p99 printed alongside. The
# offered rate is about a quarter of capacity because at half capacity
# queueing doubles the host's speed swings in the tail.
# Each round has one segment per SECONDS_PER_SEGMENT of its share of
# --seconds, and each segment holds SEGMENT_AUTHORIZES authorizes.
SECONDS_PER_SEGMENT = 3.0
SEGMENT_AUTHORIZES = 150
# A sender running this late no longer offers the scheduled load, so
# the run is invalid.
MAX_SEND_LAG_P99_MS = 50.0


@dataclass(frozen=True)
class ServiceWorkload:
    authorize: float
    publish: float
    revoke: float
    revoked_probe: float   # share of authorizes presenting a revoked credential
    open_rate: float       # offered requests/s: about a quarter of capacity
    window_rate: float     # sizes the saturating phase (requests/s)


WORKLOADS = {
    "authz-hot": ServiceWorkload(0.96, 0.03, 0.01, 0.0,
                                 open_rate=150.0, window_rate=700.0),
    "authz-churn": ServiceWorkload(0.55, 0.33, 0.12, 0.02,
                                   open_rate=100.0, window_rate=600.0),
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


class Stream:
    """The service load generator's seeded stream plus revoked probes.

    Requests come from ``LoadGenerator.build_request`` with the
    workload's mix. A ``revoked_probe`` share of authorizes is replaced
    by one that re-presents a credential revoked earlier in the stream;
    the service must deny it. ``expect`` holds one kind per request:
    ``grant``, ``deny`` or ``write``.
    """

    def __init__(self, population: ServicePopulation,
                 workload: ServiceWorkload, seed: int) -> None:
        self.workload = workload
        self.loadgen = LoadGenerator(population, submit=None,
                                     config=LoadgenConfig(
                                         authorize_weight=workload.authorize,
                                         publish_weight=workload.publish,
                                         revoke_weight=workload.revoke))
        self.rng = random.Random(f"perfbench:{seed}")
        # Probes draw from their own generator, so the stream around
        # them is exactly the load generator's.
        self.probe_rng = random.Random(f"perfbench-probe:{seed}")
        self.requests: List[dict] = []
        self.expect: List[str] = []
        self._published: Dict[str, Tuple[str, dict]] = {}
        self._revoked: List[Tuple[str, dict]] = []

    def extend(self, count: int) -> None:
        probe = self.probe_rng
        for _ in range(count):
            request = self.loadgen.build_request(self.rng)
            op, kind = request["op"], "write"
            if op == "authorize":
                kind = "grant"
                if (self._revoked
                        and probe.random() < self.workload.revoked_probe):
                    ns, credential = probe.choice(self._revoked)
                    request = {"op": "authorize", "ns": ns,
                               "credential": credential}
                    kind = "deny"
            elif op == "publish":
                credential = request["credential"]
                self._published[Delegation.from_dict(credential).id] = (
                    request["ns"], credential)
            else:
                self._revoked.append(self._published.pop(
                    request["revocation"]["delegation"]))
            request["id"] = len(self.requests)
            self.requests.append(request)
            self.expect.append(kind)


def reference_proofs(population: ServicePopulation,
                     requests: List[dict]) -> Dict[bytes, bytes]:
    """Proof bytes a lone home wallet returns for each request's
    credential, keyed by the credential's canonical bytes."""
    domains = {population.namespace(d): d for d in range(population.domains)}
    refs = {}
    for request in requests:
        domain = population.domain(domains[request["ns"]])
        wallet = Wallet(owner=domain.authority,
                        address=f"wallet.{domain.namespace}",
                        clock=SimClock(SERVICE_EPOCH))
        wallet.publish(domain.grant)
        credential = Delegation.from_dict(request["credential"])
        wallet.publish(credential)
        monitor = wallet.authorize(credential.subject, domain.access)
        refs[canonical_encode(request["credential"])] = canonical_encode(
            monitor.proof.to_dict())
        monitor.cancel()
    return refs


def response_ok(kind: str, request: dict, response: Optional[dict],
                reference: Optional[bytes] = None) -> bool:
    """Did the service answer this request correctly?

    Errors, shed (``retry-later``) and missing answers fail; a valid
    member must be granted a proof that starts with the presented
    credential (and, for sampled principals, is byte-identical to the
    reference); a revoked probe must be denied; writes must succeed.
    """
    if response is None:
        return False
    status = response.get("status")
    if kind == "deny":
        return status == "denied" and not response.get("granted")
    if status != "ok":
        return False
    if kind == "write":
        return True
    proof = response.get("proof")
    if not response.get("granted") or not isinstance(proof, dict):
        return False
    chain = proof.get("chain") or [None]
    if canonical_encode(chain[0]) != canonical_encode(request["credential"]):
        return False
    return reference is None or canonical_encode(proof) == reference


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


class Server:
    """One ``drbac serve`` child process (started via server.py)."""

    def __init__(self, seed: int, traced: bool, env: dict) -> None:
        args = [sys.executable, os.path.join(HERE, "server.py"),
                "--trace", str(int(traced)), "--",
                "--host", "127.0.0.1", "--port", "0", "--seed", str(seed),
                "--population", str(POPULATION["population"]),
                "--domains", str(POPULATION["domains"]),
                "--hot-size", str(POPULATION["hot_size"])]
        self.report: dict = {}
        self.process = subprocess.Popen(args, stdout=subprocess.PIPE,
                                        text=True, env=env)
        self.banner = self.process.stdout.readline().strip()
        if not self.banner.startswith("drbac service on "):
            self.stop()
            raise RuntimeError(f"server failed to start: {self.banner!r}")
        address = self.banner.split()[3]
        self.port = int(address.rsplit(":", 1)[1])

    def stop(self) -> dict:
        # Let the server finish closing our connection first, so its
        # shutdown does not cancel a handler mid-close.
        sleep(0.1)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            out, _ = self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            out, _ = self.process.communicate()
        lines = [line for line in (out or "").splitlines() if line.strip()]
        if lines and lines[-1].startswith("{"):
            self.report = json.loads(lines[-1])
        return self.report


def start_server(seed: int, traced: bool, env: dict, timings: Timings,
                 namespace: str) -> Tuple[Server, Connection, float]:
    """Spawn a server and wait for its first ``ping`` answer."""
    started = perf_counter()
    server = Server(seed, traced, env)
    try:
        conn = Connection(server.port, timings)
        response = conn.request({"op": "ping", "ns": namespace,
                                 "id": "ping"})
    except BaseException:
        server.stop()
        raise
    if response.get("status") != "ok":
        conn.close()
        server.stop()
        raise RuntimeError(f"ping failed: {response}")
    return server, conn, perf_counter() - started


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


def run_pass(name: str, seed: int, seconds: float, traced: bool,
             env: dict) -> dict:
    workload = WORKLOADS[name]
    population = ServicePopulation(seed=seed, **POPULATION)
    stream = Stream(population, workload, seed)
    requests = stream.requests
    stream.extend(COLD_REQUESTS)
    cold = stream.requests[:COLD_REQUESTS]
    # Each open-loop segment runs until it holds at least
    # SEGMENT_AUTHORIZES authorizes, and is followed by one window chunk.
    count = max(1, round(seconds / ROUNDS / SECONDS_PER_SEGMENT))
    chunk = max(WINDOW, round(workload.window_rate * seconds * WINDOW_SHARE
                              / (ROUNDS * count)))
    segments, chunks = [], []
    for _ in range(count):
        first = len(stream.requests)
        authorizes = 0
        while authorizes < SEGMENT_AUTHORIZES:
            stream.extend(1)
            authorizes += stream.requests[-1]["op"] == "authorize"
        segments.append(stream.requests[first:])
        first = len(stream.requests)
        stream.extend(chunk)
        chunks.append(stream.requests[first:])
    granted = {canonical_encode(r["credential"]): r
               for r, kind in zip(requests, stream.expect) if kind == "grant"}
    sample = random.Random(f"oracle:{seed}").sample(
        sorted(granted), min(ORACLE_SAMPLE, len(granted)))
    references = reference_proofs(population, [granted[k] for k in sample])

    # Client timings are keyed by request id, so each round overwrites
    # the last; a traced pass reads the last round's, as it does that
    # round's server spans.
    timings = Timings()
    namespace = population.namespace(0)
    setups: List[float] = []
    colds: List[float] = []
    latencies: List[Dict[object, float]] = []
    rates: List[float] = []
    lag: List[float] = []
    peak_rss_kb: List[int] = []
    failed = 0
    for _ in range(ROUNDS):
        server, conn, elapsed = start_server(seed, traced, env, timings,
                                             namespace)
        setups.append(elapsed)
        responses: Dict[object, dict] = {}
        shard_stats: Dict[str, dict] = {}
        try:
            colds.append(closed_loop(conn, cold, responses))
            for batch, windowed in zip(segments, chunks):
                latency, late = open_loop(conn, batch, workload.open_rate,
                                          responses)
                latencies.append(latency)
                lag.extend(late)
                rates.append(windowed_loop(conn, windowed, responses,
                                           WINDOW))
            for d in range(population.domains):
                reply = conn.request({"op": "stats",
                                      "ns": population.namespace(d),
                                      "id": f"stats-{d}"})
                shard_stats[reply.get("shard", "?")] = reply
        finally:
            conn.close()
            report = server.stop()
        peak_rss_kb.append(report.get("peak_rss_kb", 0))
        failed += sum(
            not response_ok(kind, request, responses.get(request["id"]),
                            references.get(
                                canonical_encode(request["credential"]))
                            if kind == "grant" else None)
            for request, kind in zip(requests, stream.expect))
    send_lag_p99_ms = stats.percentile(lag, 99.0) * 1000.0

    def open_ms(authorize, rounds=range(ROUNDS)):
        return [latency[r["id"]] * 1000.0 for i in rounds
                for batch, latency in zip(
                    segments, latencies[i * count:(i + 1) * count])
                for r in batch if (r["op"] == "authorize") == authorize]

    authorize_ms = open_ms(True)
    per_round_ms = [open_ms(True, [i]) for i in range(ROUNDS)]
    write_ms = open_ms(False)

    def authorize_at(q):
        return stats.median([stats.percentile(ms, q) for ms in per_round_ms])
    authorize_ids = [r["id"] for b in segments for r in b
                     if r["op"] == "authorize"]
    wire_bytes = [timings.request_bytes[i] + timings.response_bytes[i]
                  for i in authorize_ids]
    frames = sum((i in timings.request_bytes) + (i in timings.response_bytes)
                 for i in authorize_ids)
    cold_authorizes = [r["id"] for r in cold if r["op"] == "authorize"]
    round_trips = sum(i in timings.round_trip for i in cold_authorizes)
    result = {
        "attempted": len(requests) * ROUNDS,
        "failed": failed,
        "valid": send_lag_p99_ms <= MAX_SEND_LAG_P99_MS,
        "banner": server.banner,
        "closed_loop_s": sum(colds) + sum(len(c) / r for c, r in zip(
            chunks * ROUNDS, rates)),
        "samples": {"open_authorize": len(authorize_ms),
                    "open_highest_trusted_percentile":
                        stats.highest_trusted_level(len(authorize_ms)),
                    "open_p99_ms": round(
                        stats.percentile(authorize_ms, 99.0), 3),
                    "open_p90_ms": [round(stats.percentile(ms, 90.0), 3)
                                    for ms in per_round_ms],
                    "cold_ms": [round(c / len(cold) * 1000.0, 3)
                                for c in colds],
                    "setup_s": [round(s, 3) for s in setups],
                    "window_chunk_rps": [round(r, 1) for r in rates],
                    "open_segments": len(latencies),
                    "open_write": len(write_ms),
                    "rounds": ROUNDS,
                    "oracle_principals": len(references)},
        "metrics": {
            "setup_s": stats.median(setups),
            "peak_rss_mb": max(peak_rss_kb) / 1024.0,
            "cold_ms": stats.median(colds) / len(cold) * 1000.0,
            "authorize_p50_ms": authorize_at(50.0),
            "authorize_p90_ms": authorize_at(90.0),
            "capacity_rps": stats.median(rates),
            "write_p50_ms": stats.percentile(write_ms, 50.0),
            "messages_per_auth": frames / len(authorize_ids),
            "bytes_per_auth": sum(wire_bytes) / len(wire_bytes),
            "rounds_per_auth": round_trips / len(cold_authorizes),
        },
        "send_lag_p99_ms": send_lag_p99_ms,
    }
    if traced:
        result["layers"] = service_layers(report, timings, requests,
                                          responses, shard_stats,
                                          set(authorize_ids))
    return result


# ---------------------------------------------------------------------------
# Per-layer breakdown of a traced pass
# ---------------------------------------------------------------------------


def _p50_us(values) -> float:
    values = list(values)
    return stats.percentile(values, 50.0) * 1e6 if values else 0.0


def service_layers(report: dict, timings: Timings, requests: List[dict],
                   responses: Dict[object, dict],
                   shard_stats: Dict[str, dict], open_authorizes: set) -> dict:
    """Per-layer p50s, counts and ratios of a traced pass.

    ``transport.unaccounted_us`` is each open-loop authorize's round
    trip minus the server layers timed for that same request.
    """
    spans = [tuple(s) for s in report.get("spans", [])]
    by_sid = {s[0]: s for s in spans}
    queue_wait: Dict[object, float] = {}
    extra = []
    for sid, name, start, _end, parent, rid in spans:
        if name == "shard.handle" and parent in by_sid:
            submit_start = by_sid[parent][2]
            queue_wait[rid] = start - submit_start
            extra.append((-sid, "router.queue_wait", submit_start, start,
                          parent, rid))
    spans = spans + extra
    own = stats.per_request_self(spans)
    stream_ids = {r["id"] for r in requests}

    def layer(name: str) -> float:
        return _p50_us(v for rid, v in own.get(name, {}).items()
                       if rid in stream_ids)

    def total(name: str) -> float:
        sums: Dict[object, float] = defaultdict(float)
        for _sid, span_name, start, end, _parent, rid in spans:
            if span_name == name and rid in stream_ids:
                sums[rid] += end - start
        return _p50_us(sums.values())

    submit_total: Dict[object, float] = {}
    submit_start: Dict[object, float] = {}
    frame_encode: Dict[object, float] = {}
    for _sid, name, start, end, _parent, rid in spans:
        if name == "router.submit":
            submit_total[rid] = end - start
            submit_start[rid] = start
        elif name == "transport.frame_encode":
            frame_encode[rid] = end - start
    decoded = {rid: at for rid, at in report.get("decoded", [])}
    hop = {rid: submit_start[rid] - decoded[rid] for rid in submit_start
           if rid in decoded and rid in stream_ids}
    frame_decode = own.get("transport.frame_decode", {})
    unaccounted = []
    for rid in open_authorizes:
        rtt = timings.round_trip.get(rid)
        if rtt is None or rid not in hop:
            continue
        accounted = (frame_decode.get(rid, 0.0) + hop[rid]
                     + submit_total.get(rid, 0.0)
                     + frame_encode.get(rid, 0.0))
        unaccounted.append(rtt - accounted)

    memo_hits = memo_misses = cache_hits = cache_misses = 0
    for reply in shard_stats.values():
        memo = reply.get("memo", {})
        memo_hits += memo.get("hits", 0)
        memo_misses += memo.get("misses", 0)
        for info in (reply.get("wallets") or {}).values():
            if info:
                cache_hits += info.get("hits", 0)
                cache_misses += info.get("misses", 0)
    authorize_ids = [r["id"] for r in requests if r["op"] == "authorize"]
    counts = report.get("counts", {})
    return {
        "client.encode_us": _p50_us(timings.encode[i] for i in stream_ids),
        "client.decode_us": _p50_us(timings.decode[i] for i in stream_ids
                                    if i in timings.decode),
        "transport.frame_decode_us": layer("transport.frame_decode"),
        "transport.frame_encode_us": layer("transport.frame_encode"),
        "transport.hop_wait_us": _p50_us(hop.values()),
        "transport.request_bytes": stats.percentile(
            [timings.request_bytes[i] for i in authorize_ids], 50.0),
        "transport.response_bytes": stats.percentile(
            [timings.response_bytes[i] for i in authorize_ids
             if i in timings.response_bytes], 50.0),
        "transport.unaccounted_us": _p50_us(unaccounted),
        "router.submit_self_us": layer("router.submit"),
        "router.queue_wait_us": _p50_us(queue_wait[rid] for rid in queue_wait
                                        if rid in stream_ids),
        "router.queue_depth_max": float(
            report.get("maxima", {}).get("router.queue_depth_max", 0)),
        "router.shed": float(sum(
            1 for r in responses.values()
            if r.get("status") == "retry-later")),
        "shard.handle_self_us": layer("shard.handle"),
        "delegation.decode_us": layer("delegation.decode"),
        "proof.encode_us": layer("proof.encode"),
        "codec.encode_us": layer("codec.encode"),
        "codec.decode_us": layer("codec.decode"),
        "crypto.verify_us": layer("crypto.verify"),
        "crypto.verify_calls": float(counts.get("crypto.verify_calls", 0)),
        "crypto.memo_hit_rate": (memo_hits / (memo_hits + memo_misses)
                                 if memo_hits + memo_misses else 0.0),
        "wallet.publish_self_us": layer("wallet.publish"),
        "wallet.authorize_us": total("wallet.authorize"),
        "wallet.revoke_us": total("wallet.revoke"),
        "wallet.proof_cache_hit_rate": (
            cache_hits / (cache_hits + cache_misses)
            if cache_hits + cache_misses else 0.0),
    }
