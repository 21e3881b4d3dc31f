"""Run one workload once: set-up, timed phase, counters, answer check."""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter

from perfbench import layers as layer_metrics
from perfbench import stats
from perfbench.config import DEFAULT_SECONDS, FULL, SMOKE
from perfbench.harness import Env, Samples, end_to_end, throughput
from perfbench.spans import Recorder
from perfbench.workloads import BY_NAME


@dataclass
class Result:
    workload: str
    traced: bool
    metrics: dict[str, float]           # end-to-end, or per-layer if traced
    attempted: int
    failed: int                         # failed operations + wrong answers
    first_error: str | None = None
    notes: dict[str, str] = field(default_factory=dict)
    recorder: Recorder | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _scratch_dir(repo_root: str) -> str:
    """A private directory inside the checkout, removed after the run."""
    path = os.path.join(repo_root, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def run_workload(name: str, *, seed: int, seconds: float = DEFAULT_SECONDS,
                 traced: bool = False, smoke: bool = False,
                 repo_root: str) -> Result:
    sizes = (SMOKE if smoke else FULL).scaled(seconds)
    recorder = Recorder() if traced else None
    scratch = _scratch_dir(repo_root)
    env = Env(sizes=sizes, seed=seed, scratch=scratch, repo_root=repo_root,
              recorder=recorder)
    workload = BY_NAME[name](env)
    notes: dict[str, str] = {}
    try:
        started = perf_counter()
        workload.setup()
        setup_s = perf_counter() - started

        reference: Samples | None = None
        if recorder is not None:
            recorder.detach()
            reference = workload.timed()
            recorder.attach()
            recorder.phase = "reset"
            workload.reset()
            recorder.phase = "timed"
        samples = workload.timed()
        if recorder is not None:
            recorder.phase = "after"
        workload.finish()
        if recorder is not None:
            recorder.detach()
            notes = workload.extra() or {}
        mismatches = workload.check()
    finally:
        try:
            workload.close()
        finally:
            if recorder is not None:
                recorder.detach()
            shutil.rmtree(scratch, ignore_errors=True)

    # After close(): a reaped child's memory counts toward the peak.
    attempted = samples.attempted + len(workload.inputs.distinct)
    failed = samples.failed + mismatches
    metrics = end_to_end(samples, setup_s, env.layers.get("indexes.nodes"))
    metrics["failed_share"] = failed / attempted
    if recorder is not None and reference is not None:
        measured = dict(env.layers)
        measured.update(layer_metrics.from_spans(recorder.spans))
        measured["bench.trace_overhead_share"] = \
            1.0 - throughput(samples) / throughput(reference)
        measured["bench.block_spread"] = \
            stats.rate_spread(samples.block_ops, samples.block_s)
        measured["bench.samples"] = len(samples.read_lat)
        metrics = layer_metrics.complete(measured)
    return Result(workload=name, traced=traced, metrics=metrics,
                  attempted=attempted, failed=failed,
                  first_error=samples.first_error, notes=notes,
                  recorder=recorder)
