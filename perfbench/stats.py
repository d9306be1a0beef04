"""Order statistics and span arithmetic shared by the benchmark's workloads.

Everything here is pure (no clocks, no I/O) so ``test_perfbench.py`` can
pin it down exactly.
"""

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# The tail levels the benchmark may report, highest last.
TAIL_LEVELS = (50.0, 90.0, 95.0, 99.0, 99.9)
# A percentile is only trusted with at least this many samples above it.
MIN_BEYOND = 10

# On a small shared host, neighbours slow memory-bound code by up to 2x.
# The slow and fast phases alternate at every scale from tens of
# milliseconds to minutes, and a dictionary-lookup loop run between warm
# authorizes flips with them. A timing taken over many short,
# independent slices of a run (the coalition workload's deployments and
# warm slices) is therefore reported at this percentile of the slices
# (its mirror for higher-is-better figures): the speed the code reaches
# whenever the host lets it, which a change to the code still moves.
# A slow phase owns it only if it covers all but a twentieth of the run;
# at the 10th percentile, runs with few fast phases spread the coalition
# p90 about three times as wide.
QUIET_LEVEL = 5.0

# One recorded span: (span id, name, start, end, parent id, request id).
Span = Tuple[int, str, float, float, Optional[int], object]


def _rank(count: int, q: float) -> int:
    # The epsilon keeps float error (99.9 / 100 * 10000 > 9990) from
    # moving the rank up by one.
    return max(1, math.ceil(q * count / 100.0 - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the q-th percentile."""
    return count - _rank(count, q) if count > 0 else 0


def highest_trusted_level(count: int) -> Optional[float]:
    """The highest of :data:`TAIL_LEVELS` with >= MIN_BEYOND samples above
    it among ``count`` samples, or None when even the median has fewer."""
    trusted = [q for q in TAIL_LEVELS
               if samples_beyond(count, q) >= MIN_BEYOND]
    return trusted[-1] if trusted else None


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quiet(values: Sequence[float], higher_is_better: bool = False) -> float:
    """The :data:`QUIET_LEVEL` figure of per-slice timings."""
    level = 100.0 - QUIET_LEVEL if higher_is_better else QUIET_LEVEL
    return percentile(values, level)


def covered(interval: Tuple[float, float],
            parts: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts)
    total, cursor = 0.0, lo
    for a, b in clipped:
        if b <= cursor:
            continue
        a = max(a, cursor)
        total += b - a
        cursor = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _rid in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered((start, end), children.get(sid, ()))
        for sid, _name, start, end, _parent, _rid in spans
    }


def resolve_rids(spans: Sequence[Span]) -> Dict[int, object]:
    """Each span's request id, inherited from the nearest ancestor that
    has one (a frame decoder learns its request id only on return, after
    its children were recorded without one)."""
    by_sid = {span[0]: span for span in spans}
    resolved: Dict[int, object] = {}

    def rid_of(sid: Optional[int]) -> object:
        if sid not in by_sid:
            return None
        if sid not in resolved:
            _sid, _name, _start, _end, parent, rid = by_sid[sid]
            resolved[sid] = rid if rid is not None else rid_of(parent)
        return resolved[sid]

    return {span[0]: rid_of(span[0]) for span in spans}


def per_request_self(spans: Sequence[Span]) -> Dict[str, Dict[object, float]]:
    """``{span name: {request id: summed self time}}`` over ``spans``.

    Spans whose request id cannot be resolved are grouped under ``None``.
    """
    own = self_times(spans)
    rids = resolve_rids(spans)
    totals: Dict[str, Dict[object, float]] = defaultdict(
        lambda: defaultdict(float))
    for sid, name, _start, _end, _parent, _rid in spans:
        totals[name][rids[sid]] += own[sid]
    return totals
