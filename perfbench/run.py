"""The repository benchmark: one command, one named workload, one seed.

    python3 perfbench/run.py --workload authz-hot --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``authz-hot``           the wallet service over its socket, 96/3/1 mix;
* ``authz-churn``         the same service, 55/33/12 write-heavy mix with
                          revoked probes;
* ``coalition-discovery`` cross-home discovery on the simulated network.

Every measured pass runs in a fresh child process with ``DRBAC_*``
scrubbed from its environment, because the verify memo, the comb cache
and the intern pools are process-global. ``--trace 0`` runs one
untraced pass and reports the end-to-end metrics. ``--trace 1`` runs an
untraced pass and then a traced one, and reports the per-layer metrics
plus ``trace.overhead_share``. The last line of standard output is one
JSON object; the exit code is 0 only when every output was correct.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("authz-hot", "authz-churn", "coalition-discovery")
RUN_TIMEOUT_S = 170.0
# A trace run makes two passes (untraced, traced); each measures this
# share of --seconds so the pair costs about half an end-to-end run.
TRACE_SHARE = 0.25

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_ms": "ms",
    "authorize_p50_ms": "ms",
    "authorize_p90_ms": "ms",
    "capacity_rps": "1/s",
    "write_p50_ms": "ms",
    "messages_per_auth": "count",
    "bytes_per_auth": "B",
    "rounds_per_auth": "count",
}

_TOPICS = ("sb.hello", "sb.finish", "rpc.discover_batch",
           "rpc-reply.discover_batch", "rpc.subscribe", "rpc-reply.subscribe",
           "other")
_FAMILIES = ("case-study", "federation-5", "ring-8", "mesh-8", "scc-6x6",
             "deep-8")

PER_LAYER = {
    "client.encode_us": "us",
    "client.decode_us": "us",
    "transport.frame_decode_us": "us",
    "transport.frame_encode_us": "us",
    "transport.hop_wait_us": "us",
    "transport.request_bytes": "B",
    "transport.response_bytes": "B",
    "transport.unaccounted_us": "us",
    "router.submit_self_us": "us",
    "router.queue_wait_us": "us",
    "router.queue_depth_max": "count",
    "router.shed": "count",
    "shard.handle_self_us": "us",
    "delegation.decode_us": "us",
    "proof.encode_us": "us",
    "codec.encode_us": "us",
    "codec.decode_us": "us",
    "crypto.verify_us": "us",
    "crypto.verify_calls": "count",
    "crypto.memo_hit_rate": "ratio",
    "wallet.publish_self_us": "us",
    "wallet.authorize_us": "us",
    "wallet.revoke_us": "us",
    "wallet.proof_cache_hit_rate": "ratio",
    "discovery.discover_self_us": "us",
    "discovery.remote_queries": "count",
    "discovery.batch_rpcs": "count",
    "discovery.cache_hit_rate": "ratio",
    "discovery.revoke_messages": "count",
    "net.rpc_us": "us",
    "net.handshake_us": "us",
    "net.handshakes": "count",
    **{f"net.messages.{topic}": "count" for topic in _TOPICS},
    **{f"net.bytes.{topic}": "B" for topic in _TOPICS},
    **{f"discovery.messages.{family}": "count" for family in _FAMILIES},
    **{f"discovery.bytes.{family}": "B" for family in _FAMILIES},
    "bench.send_lag_p99_ms": "ms",
    "trace.overhead_share": "ratio",
}


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("DRBAC_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_one_pass(workload: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    """Child-process body: measure one pass and return its raw result."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    if workload == "coalition-discovery":
        import coalition_bench
        return coalition_bench.run_pass(seed, seconds, traced)
    import service_bench
    return service_bench.run_pass(workload, seed, seconds, traced,
                                  child_env())


def spawn_pass(workload: str, seed: int, seconds: float, traced: bool,
               deadline: float) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--pass", str(int(traced))]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               env=child_env(),
                               timeout=max(1.0, deadline - time.monotonic()))
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} pass exited with "
                           f"{completed.returncode}")
    return json.loads(lines[-1])


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        seconds *= TRACE_SHARE
    untraced = spawn_pass(workload, seed, seconds, False, deadline)
    passes = [untraced]
    if trace:
        traced = spawn_pass(workload, seed, seconds, True, deadline)
        passes.append(traced)
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(traced["layers"])
        values["bench.send_lag_p99_ms"] = untraced["send_lag_p99_ms"]
        values["trace.overhead_share"] = (
            traced["closed_loop_s"] / untraced["closed_loop_s"] - 1.0)
        units = PER_LAYER
    else:
        values = untraced["metrics"]
        units = END_TO_END
    for p in passes:
        print(f"# pass traced={'layers' in p}: attempted={p['attempted']} "
              f"failed={p['failed']} valid={p['valid']} "
              f"samples={json.dumps(p['samples'], sort_keys=True)} "
              f"send_lag_p99_ms={p['send_lag_p99_ms']:.3f}"
              + (f" server={p['banner']!r}" if "banner" in p else ""))
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:14.6f} {unit}")
    return {
        "correct": all(p["failed"] == 0 and p["valid"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="child", type=int, choices=(0, 1),
                        default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no source tree at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.child is not None:
        from server import die_with_parent
        die_with_parent()
        result = run_one_pass(args.workload, args.seed, args.seconds,
                              bool(args.child))
        print(json.dumps(result))
        return 0
    result = report(args.workload, args.seed, args.seconds,
                    bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
