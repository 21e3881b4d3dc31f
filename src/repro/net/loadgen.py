"""``repro loadgen``: replay a workload over the wire.

The driver mirrors :func:`repro.serving.replay.run_replay` exactly —
same ``passes``-fold stream, same :func:`~repro.serving.replay._chunks`
split, same coordinator-applied updates from the same seeded generator
— but pushes every query through :class:`~repro.net.client.NetClient`
connections instead of in-process worker threads.  That one-to-one
correspondence is what makes the final over-the-wire digest comparable
to :func:`repro.serving.replay.content_digest` of an in-process replay:
both sides serve the identical document history, so the answers must be
byte-identical and ``repro loadgen --check-inproc`` diffs them.

Updates need the document to generate against
(:func:`~repro.serving.replay.random_update` samples oids and labels
from the graph), so the load generator keeps a **local mirror**: a copy
of the server's initial graph, built from the same dataset seed, that
every update is applied to locally *and* shipped over the RPC — with
the returned global oids asserted equal to the locally-allocated ones.
Any drift between mirror and server is a hard error, not a skewed
digest later.

Latency is recorded per query around the blocking RPC; the report
carries p50/p95/p99 (linear interpolation) and the serving-phase
throughput.  Shed responses are counted and *not* retried: queries are
read-only, and under overload the honest number is how many the server
refused.
"""

from __future__ import annotations

import queue as _queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.indexes import maintenance as _maintenance
from repro.net.client import LoadShedError, NetClient
from repro.queries.pathexpr import as_expression
from repro.serving.replay import _chunks, _hash_answer_lines, random_update

if TYPE_CHECKING:
    from collections.abc import Iterable

    from repro.graph.datagraph import DataGraph
    from repro.indexes.maintenance import SubtreeSpec
    from repro.queries.pathexpr import PathExpression


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Linear-interpolation percentile over pre-sorted values."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = fraction * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    weight = rank - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


@dataclass(frozen=True)
class LoadgenConfig:
    """Knobs for one load-generation run (deterministic given seeds,
    up to scheduling — the digest is schedule-invariant regardless)."""

    connections: int = 4
    passes: int = 2
    update_rounds: int = 0
    updates_per_round: int = 1
    update_seed: int = 0
    #: Per-query deadline shipped on the wire (None = no budget field,
    #: server's ``default_timeout`` applies).
    budget_ms: int | None = None

    def __post_init__(self) -> None:
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if self.update_rounds < 0 or self.updates_per_round < 0:
            raise ValueError("update rounds/counts must be >= 0")


@dataclass
class LoadgenReport:
    """What one over-the-wire replay did, and how fast."""

    connections: int = 1
    queries_sent: int = 0
    queries_ok: int = 0
    shed: int = 0
    duration_s: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    degraded: int = 0
    timeouts: int = 0
    cache_hits: int = 0
    updates_applied: int = 0
    refinements: int = 0
    update_log: list[str] = field(default_factory=list)
    #: Answers-only digest over the wire — compare with
    #: :func:`repro.serving.replay.content_digest` of an in-process run.
    content_digest: str = ""

    @property
    def throughput_qps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.queries_ok / self.duration_s

    def as_dict(self) -> dict:
        return {
            "connections": self.connections,
            "queries_sent": self.queries_sent,
            "queries_ok": self.queries_ok,
            "shed": self.shed,
            "duration_s": self.duration_s,
            "throughput_qps": self.throughput_qps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "degraded": self.degraded,
            "timeouts": self.timeouts,
            "cache_hits": self.cache_hits,
            "updates_applied": self.updates_applied,
            "refinements": self.refinements,
            "update_log": list(self.update_log),
            "content_digest": self.content_digest,
        }


class _Mirror:
    """Duck-types the writer surface :func:`random_update` needs.

    Every update lands on the local graph copy first (allocating the
    same oids the server's global mirror will) and is then shipped over
    the RPC; oid disagreement raises immediately.
    """

    def __init__(self, graph: "DataGraph", client: NetClient) -> None:
        self.graph = graph
        self._client = client

    def add_reference(self, source_oid: int, target_oid: int) -> None:
        _maintenance.add_reference(self.graph, source_oid, target_oid,
                                   indexes=())
        self._client.add_reference(source_oid, target_oid)

    def insert_subtree(self, parent_oid: int,
                       subtree: "SubtreeSpec") -> list[int]:
        local = _maintenance.insert_subtree(self.graph, parent_oid, subtree,
                                            indexes=())
        remote = self._client.insert_subtree(parent_oid, subtree)
        if list(remote) != list(local):
            raise AssertionError(
                f"server allocated oids {remote} for insert under "
                f"{parent_oid} but the loadgen mirror allocated {local} — "
                f"mirror and server have diverged")
        return local


def wire_content_digest(client: NetClient,
                        queries: "Iterable[PathExpression | str]") -> str:
    """Answers-only digest of the *served* answers, over the wire.

    Hashes the same ``expr=[answers]`` lines as
    :func:`repro.serving.replay.content_digest`, but from QUERY responses
    instead of a pinned in-process oracle — which is exactly the point:
    agreement proves the served answers match ground truth through the
    whole protocol stack.  Only meaningful while no updates are in
    flight (the loadgen runs it after the last round).
    """
    return _hash_answer_lines(
        queries, lambda expr: client.query(str(expr))["answers"])


def run_loadgen(host: str, port: int, graph: "DataGraph",
                queries: "Iterable[PathExpression | str]",
                config: LoadgenConfig = LoadgenConfig()) -> LoadgenReport:
    """Replay ``queries`` against a running server at ``(host, port)``.

    ``graph`` is the loadgen's local mirror of the server's *initial*
    document (build it from the same dataset seed); it is mutated by
    the update rounds.  See the module docstring for the exact
    correspondence with in-process replay.
    """
    exprs = [as_expression(q) for q in queries]
    stream = exprs * config.passes
    rng = random.Random(config.update_seed)
    report = LoadgenReport(connections=config.connections)

    control = NetClient(host, port)
    clients = [NetClient(host, port,
                         default_budget_ms=config.budget_ms)
               for _ in range(config.connections)]
    latencies: list[float] = []
    latency_lock = threading.Lock()
    serving_s = 0.0
    try:
        mirror = _Mirror(graph, control)
        chunks = _chunks(stream, config.update_rounds + 1)
        for round_index, chunk in enumerate(chunks):
            if chunk:
                serving_s += _serve_chunk(chunk, clients, report,
                                          latencies, latency_lock)
            if round_index < config.update_rounds:
                for _ in range(config.updates_per_round):
                    report.update_log.append(random_update(mirror, rng))
                    report.updates_applied += 1
                report.refinements += control.refine()
        report.duration_s = serving_s
        latencies.sort()
        report.p50_ms = percentile(latencies, 0.50) * 1e3
        report.p95_ms = percentile(latencies, 0.95) * 1e3
        report.p99_ms = percentile(latencies, 0.99) * 1e3
        report.content_digest = wire_content_digest(control, exprs)
    finally:
        control.close()
        for client in clients:
            client.close()
    return report


def _serve_chunk(chunk: "list[PathExpression]", clients: list[NetClient],
                 report: LoadgenReport,
                 latencies: list[float], latency_lock: threading.Lock
                 ) -> float:
    """Push one chunk through all connections; returns wall seconds."""
    work: _queue.SimpleQueue = _queue.SimpleQueue()
    for expr in chunk:
        work.put(expr)
    counts_lock = threading.Lock()
    errors: list[BaseException] = []

    def run(client: NetClient) -> None:
        while True:
            try:
                expr = work.get_nowait()
            except _queue.Empty:
                return
            started = time.monotonic()
            try:
                response = client.query(str(expr))
            except LoadShedError:
                with counts_lock:
                    report.queries_sent += 1
                    report.shed += 1
                continue
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
                return
            elapsed = time.monotonic() - started
            with latency_lock:
                latencies.append(elapsed)
            with counts_lock:
                report.queries_sent += 1
                report.queries_ok += 1
                if response["degraded"]:
                    report.degraded += 1
                if response["timed_out"]:
                    report.timeouts += 1
                if response["cache_hit"]:
                    report.cache_hits += 1

    threads = [threading.Thread(target=run, args=(client,),
                                name=f"loadgen-{i}", daemon=True)
               for i, client in enumerate(clients[:max(1, len(chunk))])]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return elapsed
