"""Self-tests for the benchmark's own arithmetic and oracle.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import stats  # noqa: E402
from tracing import SpanRecorder  # noqa: E402


# -- percentiles -------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 99.0) == 99
    assert stats.percentile(values, 100.0) == 100
    assert stats.percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


@pytest.mark.parametrize("count, level", [
    (19, None),     # the median has only 9 samples above it
    (20, 50.0),
    (199, 90.0),    # p95 has 9 above it
    (200, 95.0),
    (999, 95.0),    # p99 has 9 above it
    (1000, 99.0),
    (10000, 99.9),
])
def test_highest_trusted_level_keeps_ten_samples_beyond(count, level):
    assert stats.highest_trusted_level(count) == level
    if level is not None:
        assert stats.samples_beyond(count, level) >= stats.MIN_BEYOND


def test_geomean_weights_families_equally():
    assert stats.geomean([1.0, 100.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        stats.geomean([0.0, 1.0])


# -- span arithmetic ---------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    spans = [
        (1, "outer", 0.0, 10.0, None, "r"),
        (2, "child", 1.0, 3.0, 1, "r"),
        (3, "child", 2.0, 5.0, 1, "r"),       # overlaps its sibling
        (4, "grandchild", 2.5, 3.5, 3, "r"),  # only its parent loses it
        (5, "late", 9.0, 12.0, 1, "r"),       # clipped to the parent's end
    ]
    own = stats.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_children_inherit_a_request_id_learned_on_return():
    spans = [
        (2, "codec.decode", 1.0, 2.0, 1, None),
        (1, "transport.frame_decode", 0.0, 3.0, None, 7),
        (3, "orphan", 0.0, 1.0, None, None),
    ]
    per_request = stats.per_request_self(spans)
    assert per_request["codec.decode"] == {7: pytest.approx(1.0)}
    assert per_request["transport.frame_decode"] == {7: pytest.approx(2.0)}
    assert per_request["orphan"] == {None: pytest.approx(1.0)}


class _Target:
    def outer(self, request):
        return self.inner() + 1

    def inner(self):
        return 1

    @classmethod
    def build(cls, value):
        return cls, value


def test_recorder_nests_spans_and_carries_request_ids():
    recorder = SpanRecorder()
    saved = dict(vars(_Target))
    try:
        recorder.wrap(_Target, "outer", "outer",
                      rid_of=lambda args: args[1]["id"])
        recorder.wrap(_Target, "inner", "inner")
        recorder.wrap(_Target, "build", "build")
        assert _Target().outer({"id": 42}) == 2
        assert _Target.build(5) == (_Target, 5)
    finally:
        for name in ("outer", "inner", "build"):
            setattr(_Target, name, saved[name])
    by_name = {span[1]: span for span in recorder.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["inner"][5] == 42
    assert by_name["build"][4] is None


# -- failure accounting ------------------------------------------------------


def _grant(credential):
    return {"status": "ok", "granted": True,
            "proof": {"chain": [credential, {"grant": 1}]}}


def test_granted_revoked_probe_counts_as_failed():
    from service_bench import response_ok
    credential = {"subject": "user1"}
    request = {"op": "authorize", "credential": credential}
    assert not response_ok("deny", request, _grant(credential))
    assert response_ok("deny", request,
                       {"status": "denied", "granted": False})


def test_missing_shed_and_mismatched_answers_fail():
    from repro.crypto.encoding import canonical_encode
    from service_bench import response_ok
    credential = {"subject": "user1"}
    request = {"op": "authorize", "credential": credential}
    granted = _grant(credential)
    assert response_ok("grant", request, granted)
    assert response_ok("grant", request, granted,
                       canonical_encode(granted["proof"]))
    assert not response_ok("grant", request, granted, b"other proof")
    assert not response_ok("grant", request, None)
    assert not response_ok("grant", request,
                           {"status": "retry-later", "retry_after_ms": 50})
    assert not response_ok("grant", request,
                           _grant({"subject": "someone else"}))
    assert not response_ok("write", {"op": "publish"},
                           {"status": "error"})


def test_stream_is_the_loadgen_stream_plus_revoked_probes():
    import random
    from repro.core.delegation import Delegation
    from repro.crypto.encoding import canonical_encode
    from repro.service.loadgen import LoadGenerator, LoadgenConfig
    from repro.workloads.scenarios import ServicePopulation
    from service_bench import ServiceWorkload, Stream
    population = ServicePopulation(seed=3, population=400, domains=4,
                                   hot_size=40)
    workload = ServiceWorkload(0.5, 0.3, 0.2, 0.3, open_rate=1.0,
                               window_rate=1.0)
    stream = Stream(population, workload, seed=5)
    stream.extend(300)
    revoked, probes = set(), 0
    for request, kind in zip(stream.requests, stream.expect):
        if request["op"] == "revoke":
            revoked.add(request["revocation"]["delegation"])
        if kind == "deny":
            probes += 1
            assert Delegation.from_dict(request["credential"]).id in revoked
    assert probes > 0

    plain = Stream(population, ServiceWorkload(
        0.5, 0.3, 0.2, 0.0, open_rate=1.0, window_rate=1.0), seed=5)
    plain.extend(100)
    loadgen = LoadGenerator(population, submit=None, config=LoadgenConfig(
        authorize_weight=0.5, publish_weight=0.3, revoke_weight=0.2))
    rng = random.Random("perfbench:5")
    expected = [loadgen.build_request(rng) for _ in range(100)]
    assert [canonical_encode({k: v for k, v in r.items() if k != "id"})
            for r in plain.requests] == [canonical_encode(r)
                                         for r in expected]


def _deployment(**overrides):
    record = {"family": "ring:8", "seed": 3, "cold_ok": True,
              "reauth_ok": True, "proof": "p", "reauth": "r",
              "warm": ["p"] * 4}
    record.update(overrides)
    return record


def test_wrong_warm_proof_counts_as_failed():
    from coalition_bench import failures
    pinned = {"ring:8@3": {"proof": "p", "reauth": "r"}}
    assert failures(_deployment(), pinned) == 0
    assert failures(_deployment(warm=["p", "q", "p", "denied"]), pinned) == 2
    assert failures(_deployment(proof="q", warm=["q"] * 4), pinned) == 1
    assert failures(_deployment(reauth_ok=False), pinned) == 1
    assert failures(_deployment(), {}) == 2


def test_any_failure_makes_the_run_incorrect(monkeypatch):
    def one_pass(workload, seed, seconds, traced, deadline):
        return {"attempted": 10, "failed": 1, "valid": True,
                "samples": {}, "send_lag_p99_ms": 0.0, "closed_loop_s": 1.0,
                "metrics": dict.fromkeys(run.END_TO_END, 1.0)}
    monkeypatch.setattr(run, "spawn_pass", one_pass)
    result = run.report("coalition-discovery", 1, 1.0, False)
    assert result["correct"] is False and result["failed"] == 1


# -- the contract file -------------------------------------------------------


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
