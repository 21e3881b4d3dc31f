"""Workload replay through the concurrent serving layer.

This is the driver behind ``repro serve --replay``: it pushes a
workload file through a :class:`~repro.serving.engine.ServingEngine` on
N worker threads, interleaved with document-update rounds and FUP
refinement, and reports throughput plus isolation bookkeeping.

Two design points worth knowing before reading the code:

* **Updates run on the coordinating thread, between chunks** — not on
  the workers.  With a fixed ``update_seed`` the document therefore
  evolves through exactly the same sequence of mutations regardless of
  worker count or scheduling, which is what makes the replay *digest*
  (a hash of the final per-query answer sets) a determinism check: two
  runs of the same replay must produce byte-identical digests, and the
  CI flake guard diffs them.
* **``client_stall_s`` models per-query client I/O** (request parsing,
  response serialisation, socket writes) as a short sleep in the
  worker's response hook.  CPython's GIL serialises the index
  evaluation itself, so worker threads buy overlap of exactly this I/O
  — which is the honest throughput story for any threaded Python
  server.  With ``client_stall_s=0`` the scaling collapses to ~1x, as
  it must.  See ``docs/serving.md``.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.queries.pathexpr import PathExpression, as_expression
from repro.serving.engine import ServedResult, SnapshotReader


def load_workload(path: str) -> list[PathExpression]:
    """Read a workload file: one XPath-style query per line.

    Blank lines and ``#`` comments are skipped, so workload files can
    carry their provenance inline.
    """
    queries: list[PathExpression] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            queries.append(as_expression(text))
    if not queries:
        raise ValueError(f"workload file {path!r} contains no queries")
    return queries


def save_workload(path: str, queries: "Iterable[PathExpression | str]",
                  header: str | None = None) -> None:
    """Write queries (one per line) in the format :func:`load_workload`
    reads back."""
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for query in queries:
            handle.write(f"{as_expression(query)}\n")


def random_update(serving: SnapshotReader, rng: random.Random) -> str:
    """One random document update through the serving writer path.

    Mirrors the differential oracle's update generator
    (:func:`repro.verify.oracle._apply_random_update`): roughly half
    IDREF additions, half two-node subtree insertions, falling back to
    insertion when no fresh reference edge is found.  Returns a
    human-readable description for logs and reports.
    """
    graph = serving.graph
    labels = sorted(graph.alphabet())
    if rng.random() >= 0.5:
        for _ in range(8):
            source = rng.randrange(graph.num_nodes)
            target = rng.randrange(1, graph.num_nodes)
            if target != source and not graph.has_edge(source, target):
                serving.add_reference(source, target)
                return f"add_reference({source} -> {target})"
    parent = rng.randrange(graph.num_nodes)
    label = labels[rng.randrange(len(labels))]
    child = labels[rng.randrange(len(labels))]
    serving.insert_subtree(parent, (label, [(child, [])]))
    return f"insert_subtree(({label} -> {child}) under {parent})"


@dataclass(frozen=True)
class ReplayConfig:
    """Knobs for one replay run (all deterministic given the seeds)."""

    workers: int = 4
    #: How many times the workload is replayed back to back — pass 2+
    #: is where result caches and refined indexes earn their keep.
    passes: int = 2
    #: Per-query deadline in seconds (None = no deadline).
    timeout: float | None = None
    #: Document-update rounds interleaved between equal query chunks.
    update_rounds: int = 0
    updates_per_round: int = 1
    update_seed: int = 0
    #: Simulated per-query client I/O, slept in the worker's response
    #: hook (GIL released — this is what workers overlap).
    client_stall_s: float = 0.0
    #: Re-check final answers against the data-graph oracle at the end.
    check: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if self.update_rounds < 0 or self.updates_per_round < 0:
            raise ValueError("update rounds/counts must be >= 0")
        if self.client_stall_s < 0:
            raise ValueError("client_stall_s must be >= 0")


@dataclass
class ReplayReport:
    """What one replay run did, and how fast."""

    queries_served: int = 0
    duration_s: float = 0.0
    workers: int = 1
    passes: int = 1
    start_epoch: int = 0
    end_epoch: int = 0
    updates_applied: int = 0
    update_log: list[str] = field(default_factory=list)
    refinements: int = 0
    conflicts: int = 0
    degraded: int = 0
    timeouts: int = 0
    cache_hits: int = 0
    check_failures: int = 0
    checked: bool = False
    digest: str = ""

    @property
    def throughput_qps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.queries_served / self.duration_s

    def as_dict(self) -> dict:
        return {
            "queries_served": self.queries_served,
            "duration_s": self.duration_s,
            "throughput_qps": self.throughput_qps,
            "workers": self.workers,
            "passes": self.passes,
            "start_epoch": self.start_epoch,
            "end_epoch": self.end_epoch,
            "updates_applied": self.updates_applied,
            "update_log": list(self.update_log),
            "refinements": self.refinements,
            "conflicts": self.conflicts,
            "degraded": self.degraded,
            "timeouts": self.timeouts,
            "cache_hits": self.cache_hits,
            "checked": self.checked,
            "check_failures": self.check_failures,
            "digest": self.digest,
        }


def _chunks(items: list, pieces: int) -> list[list]:
    """Split into ``pieces`` near-equal consecutive chunks (no empties
    unless there are more pieces than items)."""
    if pieces <= 1:
        return [items]
    size, extra = divmod(len(items), pieces)
    out, start = [], 0
    for i in range(pieces):
        end = start + size + (1 if i < extra else 0)
        out.append(items[start:end])
        start = end
    return out


def _hash_answer_lines(queries: "Iterable[PathExpression | str]",
                       answers_of: "Callable[[PathExpression], Iterable[int]]",
                       header: str = "") -> str:
    """SHA-256 over one ``expr=[answers]`` line per unique query.

    :func:`answers_digest`, :func:`content_digest` and
    :func:`repro.net.loadgen.wire_content_digest` all hash these lines —
    queries sorted by text, answers in the order ``answers_of`` yields
    them — so they differ only in where the answers come from and in
    the ``header`` hashed first.
    """
    hasher = hashlib.sha256(header.encode())
    for expr in sorted({as_expression(q) for q in queries}, key=str):
        answers = ",".join(map(str, answers_of(expr)))
        hasher.update(f"{expr}=[{answers}]\n".encode())
    return hasher.hexdigest()


def answers_digest(serving: SnapshotReader,
                   queries: "Iterable[PathExpression | str]") -> str:
    """SHA-256 over final ground-truth answers of the unique queries.

    Computed under a pinned snapshot so the digest names one exact
    epoch.  Because replay applies updates on the coordinating thread
    in seed order, this digest is invariant across worker counts and
    scheduling — the CI flake guard runs the same replay twice and
    fails on any digest difference.
    """
    with serving.pin() as snap:
        return _hash_answer_lines(
            queries, lambda expr: sorted(snap.oracle(expr)),
            header=f"epoch={snap.epoch}\n")


def content_digest(engine_like: SnapshotReader,
                   queries: "Iterable[PathExpression | str]") -> str:
    """SHA-256 over final ground-truth answers, *without* the epoch line.

    :func:`answers_digest` pins the epoch counter into its hash, which
    is right for same-configuration determinism checks but wrong for
    single-vs-sharded comparison: a sharded combiner counts
    shard-local refinements on different clocks than a single engine,
    while the *answers* must still be byte-identical.  This digest is
    the answers-only view both sides (and
    :func:`repro.net.loadgen.wire_content_digest`, from served answers)
    must agree on.
    """
    with engine_like.pin() as snap:
        return _hash_answer_lines(
            queries, lambda expr: sorted(snap.oracle(expr)))


def run_replay(serving: SnapshotReader,
               queries: "Iterable[PathExpression | str]",
               config: ReplayConfig = ReplayConfig()) -> ReplayReport:
    """Replay a workload through the serving engine per ``config``.

    The full stream (``passes`` copies of the workload) is split into
    ``update_rounds + 1`` consecutive chunks; each boundary applies
    ``updates_per_round`` random document updates and drains the FUP
    refinement queue (the adaptive loop).  Workers serve each chunk
    concurrently; every answer is snapshot-isolated per the engine's
    protocol, so the report's conflict/degraded counts are bookkeeping,
    not correctness caveats.
    """
    exprs = [as_expression(q) for q in queries]
    stream = exprs * config.passes
    rng = random.Random(config.update_seed)
    report = ReplayReport(workers=config.workers, passes=config.passes,
                          start_epoch=serving.epoch)
    before = serving.stats.snapshot()

    stall = config.client_stall_s

    def client_io(_result: ServedResult) -> None:
        if stall:
            time.sleep(stall)

    started = time.perf_counter()
    chunks = _chunks(stream, config.update_rounds + 1)
    for round_index, chunk in enumerate(chunks):
        if chunk:
            results = serving.serve(chunk, workers=config.workers,
                                    timeout=config.timeout,
                                    client_io=client_io)
            report.queries_served += len(results)
        if round_index < config.update_rounds and serving.supports_updates:
            for _ in range(config.updates_per_round):
                report.update_log.append(random_update(serving, rng))
                report.updates_applied += 1
            report.refinements += serving.refine_pending()
    report.duration_s = time.perf_counter() - started

    after = serving.stats.snapshot()
    report.conflicts = after["conflicts"] - before["conflicts"]
    report.degraded = after["degraded"] - before["degraded"]
    report.timeouts = after["timeouts"] - before["timeouts"]
    report.cache_hits = after["cache_hits"] - before["cache_hits"]
    report.end_epoch = serving.epoch

    if config.check:
        report.checked = True
        with serving.pin() as snap:
            for expr in sorted(set(exprs), key=str):
                served = serving.query(expr, timeout=config.timeout)
                if served.answers != snap.oracle(expr):
                    report.check_failures += 1
    report.digest = answers_digest(serving, exprs)
    return report
