"""Per-layer metrics read off the traced run's spans.

Per-call read metrics use the timed phase only; refinement, write and
build metrics use set-up too, because that is where most workloads pay
them.  A layer a workload bypasses reports 0 calls and 0 time.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from statistics import fmean

from perfbench.config import PER_LAYER
from perfbench.spans import Span, self_times


def _mean(values: Iterable[float], scale: float = 1.0) -> float:
    values = list(values)
    return fmean(values) * scale if values else 0.0


def _durations(spans: Sequence[Span]) -> list[float]:
    return [span.duration for span in spans]


def from_spans(spans: Sequence[Span]) -> dict[str, float]:
    own = self_times(spans)
    timed: dict[str, list[Span]] = defaultdict(list)
    paid: dict[str, list[Span]] = defaultdict(list)    # set-up + timed
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.phase == "timed":
            timed[span.name].append(span)
        if span.phase in ("setup", "timed"):
            paid[span.name].append(span)

    def selfs(group: Sequence[Span]) -> list[float]:
        return [own[span.span_id] for span in group]

    out: dict[str, float] = {}
    kernel = timed["indexes.query"]
    out["indexes.query_us"] = _mean(_durations(kernel), 1e6)
    out["indexes.query_calls"] = len(kernel)
    out["indexes.index_visits_per_query"] = _mean(s.tag[0] for s in kernel)
    out["indexes.data_visits_per_query"] = _mean(s.tag[1] for s in kernel)
    out["indexes.validated_share"] = _mean(float(s.tag[2]) for s in kernel)
    refines = paid["indexes.refine"]
    out["indexes.refine_ms"] = _mean(_durations(refines), 1e3)
    out["indexes.refine_calls"] = len(refines)
    out["indexes.refine_visits"] = _mean(
        s.tag for s in refines if s.tag is not None)

    out["core.execute_us"] = _mean(_durations(timed["core.execute"]), 1e6)
    out["core.self_us"] = _mean(selfs(timed["core.execute"]), 1e6)

    served = timed["serving.query"]
    out["serving.query_us"] = _mean(_durations(served), 1e6)
    out["serving.self_us"] = _mean(selfs(served), 1e6)
    out["serving.hit_us"] = _mean((s.duration for s in served if s.tag), 1e6)
    out["serving.miss_us"] = _mean(
        (s.duration for s in served if s.tag is False), 1e6)
    for call in ("insert_subtree", "add_reference", "refine_pending"):
        out[f"serving.{call}_ms"] = _mean(
            _durations(paid[f"serving.{call}"]), 1e3)
    out["serving.refined_per_pending"] = _mean(
        s.tag for s in paid["serving.refine_pending"] if s.tag is not None)

    combined = timed["sharding.query"]
    out["sharding.query_us"] = _mean(_durations(combined), 1e6)
    out["sharding.self_us"] = _mean(selfs(combined), 1e6)
    fanned = sum(1 for s in served if s.parent in by_id
                 and by_id[s.parent].name == "sharding.query")
    out["sharding.shard_calls_per_query"] = \
        fanned / len(combined) if combined else 0.0

    replies = [s for s in timed["net.query"] if s.tag is not None]
    out["net.rtt_us"] = _mean(_durations(replies), 1e6)
    out["net.overhead_us"] = _mean(
        (s.duration - s.tag[0] for s in replies), 1e6)
    out["net.answers_per_reply"] = _mean(s.tag[1] for s in replies)

    out["storage.query_us"] = _mean(_durations(timed["storage.query"]), 1e6)
    return out


def operation_self_error(spans: Sequence[Span]) -> float:
    """Largest |sum of self times - outer span| / outer span over the
    operations: 0 when the spans of an operation tile its outer span."""
    own = self_times(spans)
    totals: dict[int, float] = defaultdict(float)
    roots = {}
    for span in spans:
        totals[span.op] += own[span.span_id]
        if span.parent < 0:
            roots[span.op] = span.duration
    return max((abs(totals[op] - outer) / outer
                for op, outer in roots.items() if outer > 0), default=0.0)


def complete(measured: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, 0 where this workload's layers did nothing."""
    return {name: float(measured.get(name, 0.0)) for name in PER_LAYER}
