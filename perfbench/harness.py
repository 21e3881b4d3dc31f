"""The closed-loop timed phase and what it measures."""

from __future__ import annotations

import resource
import traceback
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from perfbench import stats
from perfbench.config import Sizes
from perfbench.spans import Recorder, Tagger


@dataclass
class Env:
    """What a workload is given: its load, its seed, and where to write."""

    sizes: Sizes
    seed: int
    scratch: str                        # directory inside the checkout
    repo_root: str
    recorder: Recorder | None = None    # set on a traced run
    layers: dict[str, float] = field(default_factory=dict)

    def trace(self, obj: Any, attr: str, name: str,
              tag: Tagger | None = None) -> None:
        if self.recorder is not None:
            self.recorder.wrap(obj, attr, name, tag)


@dataclass
class Samples:
    """One timed phase.  Latencies are seconds around the outermost call."""

    read_lat: list[float] = field(default_factory=list)
    write_lat: list[float] = field(default_factory=list)
    block_ops: list[int] = field(default_factory=list)
    block_s: list[float] = field(default_factory=list)
    visits: int = 0
    costed_reads: int = 0
    attempted: int = 0
    failed: int = 0
    first_error: str | None = None
    #: Set by workloads whose clients run side by side: the sum of each
    #: client's own median block rate.
    ops_per_s: float | None = None

    def fail(self) -> None:
        """Count the exception being handled as one failed operation."""
        self.failed += 1
        if self.first_error is None:
            self.first_error = traceback.format_exc()


def visits_of(result: Any) -> int:
    cost = result.cost
    return cost.index_visits + cost.data_visits


def read_burst(call: Callable[[Any], Any], queries: Iterable,
               samples: Samples,
               cost_of: Callable[[Any], int] | None = visits_of) -> None:
    """One caller, one request at a time: the next only after the reply."""
    latencies = samples.read_lat
    for query in queries:
        samples.attempted += 1
        started = perf_counter()
        try:
            result = call(query)
        except Exception:  # noqa: BLE001 - counted, reported, run goes on
            samples.fail()
            continue
        latencies.append(perf_counter() - started)
        if cost_of is not None:
            samples.visits += cost_of(result)
            samples.costed_reads += 1


def run_reads(call: Callable[[Any], Any], blocks: Iterable[Sequence],
              samples: Samples,
              cost_of: Callable[[Any], int] | None = visits_of) -> None:
    """A read-only timed phase, block after block."""
    for block in blocks:
        started = perf_counter()
        read_burst(call, block, samples, cost_of)
        samples.block_s.append(perf_counter() - started)
        samples.block_ops.append(len(block))


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0     # Linux reports KiB


def throughput(samples: Samples) -> float:
    if samples.ops_per_s is not None:
        return samples.ops_per_s
    return stats.median_rate(samples.block_ops, samples.block_s)


def end_to_end(samples: Samples, setup_s: float,
               index_nodes: int | None) -> dict[str, float]:
    """The end-to-end metrics this phase can observe (others omitted)."""
    reads = sorted(samples.read_lat)
    out = {
        "setup_s": setup_s,
        "ops_per_s": throughput(samples),
        "read_p50_us": stats.percentile(reads, 50) * 1e6,
        "read_p99_us": stats.percentile(
            reads, stats.tail_pct(len(reads))) * 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
    if samples.write_lat:
        out["write_p50_us"] = \
            stats.percentile(sorted(samples.write_lat), 50) * 1e6
    if samples.costed_reads:
        out["visits_per_read"] = samples.visits / samples.costed_reads
    if index_nodes is not None:
        out["index_nodes"] = index_nodes
    return out
