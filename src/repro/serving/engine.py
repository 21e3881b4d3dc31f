"""Snapshot-isolated concurrent serving on top of the adaptive engine.

:class:`ServingEngine` wraps an :class:`~repro.core.engine.AdaptiveIndexEngine`
and splits its single-threaded operating loop into two concurrent roles:

* **readers** answer queries on worker threads through an optimistic
  seqlock protocol (:mod:`repro.serving.snapshot`): each answer is
  guaranteed to reflect exactly the index/document state of one
  committed epoch — never a half-applied REFINE, never a stale ``k``
  clamp mid-demotion;
* **writers** (document maintenance via
  :mod:`repro.indexes.maintenance`, and FUP refinement replayed through
  the wrapped engine) run one at a time inside
  :meth:`EpochClock.write` windows, advancing the epoch atomically at
  commit.

Readers that keep colliding with writers (or run out of their deadline)
**degrade instead of failing**: the query is answered on the data-graph
oracle path under the writer mutex, which is always correct — the
fallback trades latency for exactness, never exactness for latency.

That read protocol is written once, in :class:`SnapshotReader`;
:class:`ServingEngine` plugs its cache probe and index evaluation into
it, and the sharded combiner (:mod:`repro.sharding.engine`) its fan-out.

The engine-level result cache is reused through the index's
``cache_fingerprint`` tokens (PR 2): a token pins the per-label
versions, mutation counters, and the maintenance ``epoch`` of every
component, so a cached answer can never be served across a document
update — the property-based test suite asserts exactly this.

An answer is one immutable sorted run (:class:`~repro.core.extents.Extent`),
built once when the cache is filled and handed to every later caller
by reference: a hit copies nothing, and sharing is safe because the
run has no mutator.

Worker threads buy *overlap*, not CPU parallelism: under CPython's GIL
the index evaluation serialises, but the per-query client I/O a real
deployment pays (request parsing, response writing, pager reads)
overlaps freely.  ``docs/serving.md`` covers worker-count tuning.
"""

from __future__ import annotations

import queue as _queue
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.core.engine import AdaptiveIndexEngine
from repro.core.extents import Extent
from repro.core.fup import FupExtractor
from repro.cost.counters import CostCounter
from repro.graph.datagraph import DataGraph
from repro.indexes import maintenance as _maintenance
from repro.indexes.base import QueryResult, answer_run
from repro.indexes.maintenance import SubtreeSpec
from repro.indexes.mstarindex import MStarIndex
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import PathExpression, as_expression
from repro.serving.snapshot import EpochClock

#: Sentinel distinguishing "no timeout given" from "timeout=None".
#: Typed ``Any`` so ``timeout: float | None = _UNSET`` keeps the
#: sentinel default without widening every public signature.
_UNSET: Any = object()


@dataclass
class ServedResult:
    """One answered query, tagged with its snapshot provenance.

    ``epoch`` identifies the committed state the answer reflects;
    ``conflicts`` counts optimistic attempts discarded because a writer
    committed underneath them; ``degraded`` marks answers computed on
    the data-graph oracle path under the writer mutex (still exact);
    ``timed_out`` marks results returned after their deadline passed
    (the answer is still correct — the serving layer never trades
    exactness for latency).

    ``answers`` is an immutable ascending run that the engine may hand
    to any number of callers (it is the cached object itself on a hit):
    it compares and combines with plain sets, and ``answers.to_set()``
    is the way to get something mutable.
    """

    expr: PathExpression
    answers: Extent
    validated: bool
    epoch: int
    cost: CostCounter = field(default_factory=CostCounter)
    attempts: int = 1
    conflicts: int = 0
    cache_hit: bool = False
    degraded: bool = False
    timed_out: bool = False
    #: The query was *routed* to the exact path before any optimistic
    #: attempt (the sharded combiner does this for queries that could
    #: traverse a cross-shard edge).  Every fallback answer is also a
    #: degraded one, never the reverse.
    fallback: bool = False
    duration_s: float = 0.0


class ServingStats:
    """Thread-safe running totals for one engine (single or sharded).

    Every counter derived from one result moves inside a *single* lock
    acquisition, so any :meth:`snapshot` (the stats RPC reads through
    it) observes a consistent state in which

    * ``queries == cache_hits + misses`` — every answered query is
      exactly one of the two, and
    * ``timeouts <= queries`` and ``fallbacks <= degraded <= queries`` —
      per-result flags can never outrun the query count.

    ``fallbacks`` counts answers routed to the exact path up front; only
    the sharded combiner routes, so it stays 0 on a single engine.
    ``tests/test_stats_consistency.py`` hammers exactly these invariants
    from concurrent readers.
    """

    _FIELDS = ("queries", "cache_hits", "misses", "conflicts", "degraded",
               "timeouts", "updates", "refinements", "fallbacks")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.queries = 0
        self.cache_hits = 0
        self.misses = 0
        self.conflicts = 0
        self.degraded = 0
        self.timeouts = 0
        self.updates = 0
        self.refinements = 0
        self.fallbacks = 0

    def record_result(self, result: ServedResult) -> None:
        with self._lock:
            self.queries += 1
            self.conflicts += result.conflicts
            if result.cache_hit:
                self.cache_hits += 1
            else:
                self.misses += 1
            if result.degraded:
                self.degraded += 1
            if result.timed_out:
                self.timeouts += 1
            if result.fallback:
                self.fallbacks += 1

    def record_update(self) -> None:
        with self._lock:
            self.updates += 1

    def record_refinement(self) -> None:
        with self._lock:
            self.refinements += 1

    def snapshot(self) -> dict[str, int]:
        """A mutually consistent copy of every counter."""
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}

    def __repr__(self) -> str:
        return f"ServingStats({self.snapshot()})"


class _CacheEntry:
    __slots__ = ("token", "answers", "validated", "epoch")

    def __init__(self, token: tuple, answers: Extent,
                 validated: bool, epoch: int) -> None:
        self.token = token
        self.answers = answers
        self.validated = validated
        self.epoch = epoch


class PinnedSnapshot:
    """A reader that pins the current epoch by excluding writers.

    Yielded by :meth:`SnapshotReader.pin`; while it is open, every
    query (index path or oracle path) observes exactly the pinned epoch
    — writers queue behind the mutex until the pin is released.  This is
    what the stress suite's oracle and the epoch-boundary regression
    tests use to ask "what was true at epoch ``e``" while concurrent
    updates are in flight.
    """

    def __init__(self, reader: "SnapshotReader", epoch: int) -> None:
        self._reader = reader
        self.epoch = epoch

    def query(self, expr: "PathExpression | str") -> QueryResult:
        """Evaluate through ``reader.index`` at the pinned epoch.

        On a sharded combiner ``index`` is shard 0's local index, so
        this is a single-engine probe; :meth:`oracle` is the whole
        document on either engine.
        """
        result: QueryResult = self._reader.index.query(as_expression(expr))
        return result

    def oracle(self, expr: "PathExpression | str") -> set[int]:
        """Ground truth at the pinned epoch (data-graph navigation)."""
        return evaluate_on_data_graph(self._reader.graph,
                                      as_expression(expr))


def _fifo_store(table: dict, key: Any, value: Any, bound: int) -> None:
    """``table[key] = value`` with at most ``bound`` keys: the oldest
    insertion goes first.  The caller holds the table's lock."""
    if key not in table and len(table) >= bound:
        table.pop(next(iter(table)))
    table[key] = value


def _serve_batch(query: "Callable[..., ServedResult]",
                 queries: "Iterable[PathExpression | str]",
                 workers: int, timeout: float | None,
                 client_io: "Callable[[ServedResult], None] | None",
                 thread_prefix: str,
                 depth: "_metrics.Gauge | None" = None) -> list[ServedResult]:
    """Answer a batch through ``query`` on ``workers`` threads.

    The one worker pool behind :meth:`ServingEngine.serve` and
    ``ShardedEngine.serve``: results come back in input order,
    ``client_io`` runs on the worker thread, and worker exceptions
    outside ``query``'s own handling are re-raised after the batch
    drains.  ``depth``, when given, tracks queries waiting for a worker.
    """
    exprs = [as_expression(q) for q in queries]
    if not exprs:
        return []
    if workers < 1:
        raise ValueError("workers must be >= 1")
    results: list[ServedResult | None] = [None] * len(exprs)
    work: _queue.SimpleQueue = _queue.SimpleQueue()
    for item in enumerate(exprs):
        work.put(item)
    if depth is not None:
        depth.inc(len(exprs))
    errors: list[BaseException] = []

    def run() -> None:
        while True:
            try:
                position, expr = work.get_nowait()
            except _queue.Empty:
                return
            try:
                result = query(expr, timeout=timeout)
                results[position] = result
                if client_io is not None:
                    client_io(result)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
            finally:
                if depth is not None:
                    depth.dec()

    threads = [threading.Thread(target=run, name=f"{thread_prefix}-{i}",
                                daemon=True)
               for i in range(min(workers, len(exprs)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    # Every queue item was processed or errored; errors raised above.
    return results  # type: ignore[return-value]


class SnapshotReader:
    """The snapshot-read protocol, written once for every engine shape.

    An answer is either *optimistic* — one :meth:`_attempt` that ran
    entirely inside one committed epoch of :attr:`clock` — or *exact*:
    evaluated on :attr:`graph` under the writer mutex.  This class owns
    everything around those two: deadline resolution, the seqlock retry
    loop, the exact path, the single late classification, the stats
    record, batched serving and pinned snapshots.  An engine supplies
    its optimistic evaluation (:meth:`_attempt`) and its writers, which
    must commit inside ``self.clock.write()`` windows;
    :class:`ServingEngine` and the sharded combiner are the two engines.
    """

    #: Layer name prefixing the spans :meth:`query` and the exact path
    #: open (``<layer>.query`` / ``<layer>.degraded``).
    _layer = "serving"
    #: The engine's index (span tags, pinned index probes); set by the
    #: engine.
    index: Any
    #: Gauge tracking queries waiting for a :meth:`serve` worker.
    _m_queue_depth: "_metrics.Gauge | None" = None
    #: Does the engine keep answers between queries?  Set by the engine;
    #: when false the exact path remembers nothing either.
    cache_enabled = False
    #: Bound of each answer map the engine keeps (FIFO eviction).
    _cache_size = 1024

    def __init__(self, graph: DataGraph, *, max_attempts: int,
                 default_timeout: float | None,
                 now: "Callable[[], float] | None") -> None:
        """``max_attempts`` bounds optimistic retries before a query
        takes the exact path; ``default_timeout`` (seconds) applies to
        queries that do not pass their own.  ``now`` replaces the
        monotonic clock deadlines are measured on — only tests should
        pass it (a fake clock is how the deadline boundary is pinned
        deterministically).
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.graph = graph
        self.max_attempts = max_attempts
        self.default_timeout = default_timeout
        self._now = time.monotonic if now is None else now
        self.stats = ServingStats()
        self.clock = EpochClock()
        # Exact-path answers of one epoch; read and written only inside
        # ``clock.pause_writers()``, whose mutex is their lock.
        self._exact_epoch = -1
        self._exact_answers: dict[PathExpression, Extent] = {}

    @property
    def epoch(self) -> int:
        """Number of committed writer operations."""
        return self.clock.epoch

    # ------------------------------------------------------------------
    # What an engine supplies
    # ------------------------------------------------------------------
    def _attempt(self, expr: PathExpression, deadline: float | None) -> (
            "tuple[Extent, bool, bool, CostCounter, tuple | None]"):
        """One optimistic evaluation against the live structures:
        ``(answers, validated, cache_hit, cost, token)``.

        Runs without the writer mutex, so it may observe a half-applied
        write; the retry loop discards it then (any exception it raises
        is treated the same way).  ``answers`` is an immutable run that
        goes to the caller — and to :meth:`_cache_store`, then to every
        later hit — as the same object; it must be complete here,
        *before* validation, because a later write may recycle the
        structure it was read from.  A non-``None`` ``token`` asks for
        the answer to be published through :meth:`_cache_store` once
        the read has validated.
        """
        raise NotImplementedError

    def _cache_store(self, expr: PathExpression, token: tuple,
                     answers: Extent, validated: bool, epoch: int) -> None:
        """Publish a validated miss under ``token``, keeping ``answers``
        itself (engines whose :meth:`_attempt` never returns a token
        need not implement it)."""
        raise NotImplementedError

    def _observe(self, result: ServedResult) -> None:
        """Post-result hook: engine-specific accounting for one answer."""

    @property
    def supports_updates(self) -> bool:
        """Can the engine take document updates (vs rebuild-only)?"""
        raise NotImplementedError

    def insert_subtree(self, parent_oid: int,
                       subtree: SubtreeSpec) -> list[int]:
        """Insert ``(label, [children])`` under ``parent_oid`` atomically."""
        raise NotImplementedError

    def add_reference(self, source_oid: int, target_oid: int) -> None:
        """Add an IDREF edge atomically."""
        raise NotImplementedError

    def refine_pending(self, limit: int | None = None) -> int:
        """Adapt the index for queued FUPs; returns refinements applied."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Reader path
    # ------------------------------------------------------------------
    def query(self, expr: "PathExpression | str",
              timeout: float | None = _UNSET) -> ServedResult:
        """Answer one query with snapshot isolation.

        Optimistic attempts retry on writer conflicts up to
        ``max_attempts`` or the deadline, whichever bites first, then
        the query degrades to the data-graph oracle path under the
        writer mutex — slower, but always exact, so a conflicted query
        returns a late correct answer rather than a fast wrong one.

        Deadline classification happens here, in exactly one place and
        with one comparator: a result is ``timed_out`` iff it *finished*
        at or past its deadline (``>=``, matching the retry loop's own
        cutoff), whatever path produced it.  ``degraded`` stays
        orthogonal — it marks oracle-path answers — so a query that
        degrades *and* finishes late counts once in ``degraded`` and
        once in ``timeouts``, never twice in either.
        """
        expr = as_expression(expr)
        timeout = self.default_timeout if timeout is _UNSET else timeout
        started = self._now()
        deadline = started + timeout if timeout is not None else None
        tracer = _trace.TRACER
        span = tracer.span(f"{self._layer}.query", query=str(expr),
                           index=type(self.index).__name__) \
            if tracer.enabled else _trace.NULL_SPAN
        with span:
            result = self._query_inner(expr, deadline)
            finished = self._now()
            result.duration_s = finished - started
            result.timed_out = deadline is not None and finished >= deadline
            span.tag(outcome="degraded" if result.degraded else "ok",
                     epoch=result.epoch, attempts=result.attempts,
                     cache="hit" if result.cache_hit else "miss")
        self.stats.record_result(result)
        self._observe(result)
        return result

    def _query_inner(self, expr: PathExpression,
                     deadline: float | None) -> ServedResult:
        conflicts = 0
        attempts = 0
        while attempts < self.max_attempts:
            attempts += 1
            clean, seq = self.clock.read()
            if clean:
                try:
                    outcome = self._attempt(expr, deadline)
                except Exception:
                    # Torn read: a concurrent writer left the structures
                    # mid-flight (dict resized during iteration, a node
                    # id vanished, ...).  The sequence check would reject
                    # this attempt anyway; count the conflict and retry.
                    outcome = None
                if outcome is not None and self.clock.validate(seq):
                    answers, validated, cache_hit, cost, token = outcome
                    if token is not None and not cache_hit:
                        self._cache_store(expr, token, answers, validated,
                                          seq // 2)
                    return ServedResult(
                        expr=expr, answers=answers, validated=validated,
                        epoch=seq // 2, cost=cost, attempts=attempts,
                        conflicts=conflicts, cache_hit=cache_hit)
            conflicts += 1
            if deadline is not None and self._now() >= deadline:
                break
            # Yield first, back off harder if the writer is long-running.
            time.sleep(0 if conflicts < 2 else min(0.0002 * conflicts, 0.002))
        return self._exact(expr, attempts, conflicts)

    def _exact(self, expr: PathExpression, attempts: int, conflicts: int,
               fallback: bool = False) -> ServedResult:
        """Answer on the data graph under the writer mutex.

        ``timed_out`` is classified by :meth:`query` once the result is
        final — the exact path only marks *how* it was answered.

        An engine that caches remembers the answers computed here for
        the current epoch: under the writer mutex the epoch cannot
        move, so an answer remembered at this epoch is this epoch's
        answer, and the first query of another epoch drops them all.  A
        remembered answer is a cache hit costing one visit.
        """
        tracer = _trace.TRACER
        span = tracer.span(f"{self._layer}.degraded", query=str(expr)) \
            if tracer.enabled else _trace.NULL_SPAN
        with span:
            with self.clock.pause_writers() as epoch:
                if self._exact_epoch != epoch:
                    self._exact_epoch = epoch
                    self._exact_answers = {}
                answers = self._exact_answers.get(expr)
                cache_hit = answers is not None
                if cache_hit:
                    cost = CostCounter(index_visits=1)
                else:
                    cost = CostCounter()
                    answers = Extent.from_iterable(
                        evaluate_on_data_graph(self.graph, expr, cost))
                    if self.cache_enabled:
                        _fifo_store(self._exact_answers, expr, answers,
                                    self._cache_size)
            span.tag(epoch=epoch)
        return ServedResult(expr=expr, answers=answers, validated=True,
                            epoch=epoch, cost=cost, attempts=attempts,
                            conflicts=conflicts, cache_hit=cache_hit,
                            degraded=True, fallback=fallback)

    def serve(self, queries: "Iterable[PathExpression | str]",
              workers: int = 4, timeout: float | None = _UNSET,
              client_io: "Callable[[ServedResult], None] | None" = None,
              ) -> list[ServedResult]:
        """Answer a batch on ``workers`` threads; results in input order.

        ``client_io``, when given, is called with each result *on the
        worker thread* — the hook where a deployment writes the response
        back to its client (and where ``run_replay`` models that I/O).
        Worker exceptions outside :meth:`query`'s own handling
        are re-raised after the batch drains.
        """
        return _serve_batch(self.query, queries, workers, timeout,
                            client_io, f"{self._layer}-worker",
                            depth=self._m_queue_depth)

    @contextmanager
    def pin(self) -> "Iterator[PinnedSnapshot]":
        """Context manager yielding a :class:`PinnedSnapshot`.

        Writers queue until the pin is released; a query issued through
        the snapshot — even one that *finishes* while an update is
        already waiting to commit — observes the pinned epoch's state.
        Keep pins short: they add writer latency, never wrong answers.
        """
        with self.clock.pause_writers() as epoch:
            yield PinnedSnapshot(self, epoch)


class ServingEngine(SnapshotReader):
    """Concurrent, snapshot-isolated front end for an adaptive engine.

    Example::

        serving = ServingEngine(graph)            # wraps M*(k) engine
        results = serving.serve(queries, workers=4)
        serving.insert_subtree(0, ("item", [("name", [])]))
        serving.refine_pending()                  # adapt to observed FUPs

    Readers (:meth:`query`, :meth:`serve`) are safe from any thread and
    follow the :class:`SnapshotReader` protocol; writers
    (:meth:`insert_subtree`, :meth:`add_reference`,
    :meth:`refine_pending`) serialise on the internal epoch clock.
    """

    def __init__(self, source: "AdaptiveIndexEngine | DataGraph",
                 index_factory: "Callable[..., Any]" = MStarIndex, *,
                 extractor: FupExtractor | None = None,
                 max_attempts: int = 6,
                 default_timeout: float | None = None,
                 cache: bool = True, cache_size: int = 1024,
                 now: "Callable[[], float] | None" = None) -> None:
        """Wrap an existing engine, or build one over ``source`` graph.

        ``cache`` controls the serving-layer result cache
        (token-guarded, shared across workers).  An engine built here
        gets no result cache of its own: it only runs inside
        :meth:`refine_pending`, where every replay it could store is
        invalidated by the refinement that replay triggers.  An engine
        the caller passes in keeps whatever cache it was configured
        with.  ``max_attempts``, ``default_timeout`` and ``now`` are the
        :class:`SnapshotReader` knobs.
        """
        if isinstance(source, AdaptiveIndexEngine):
            self.engine = source
        else:
            self.engine = AdaptiveIndexEngine(source,
                                              index_factory=index_factory,
                                              cache=False)
        super().__init__(self.engine.graph, max_attempts=max_attempts,
                         default_timeout=default_timeout, now=now)
        self.index = self.engine.index
        self.extractor = extractor if extractor is not None else FupExtractor()
        self._fingerprint = getattr(self.index, "cache_fingerprint", None)
        self.cache_enabled = cache and self._fingerprint is not None
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self._cache_size = cache_size
        self._cache: dict[PathExpression, _CacheEntry] = {}
        self._cache_lock = threading.Lock()
        self._fup_lock = threading.Lock()
        self._pending: deque[PathExpression] = deque()
        self._pending_set: set[PathExpression] = set()
        self._family = type(self.index).__name__
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        registry = _metrics.REGISTRY
        queries = registry.counter(
            "serving_queries_total", "queries answered by the serving layer",
            ("index", "outcome"))
        self._m_ok = queries.labels(index=self._family, outcome="ok")
        self._m_degraded = queries.labels(index=self._family,
                                          outcome="degraded")
        self._m_conflicts = registry.counter(
            "serving_conflicts_total",
            "optimistic read attempts discarded due to concurrent commits",
            ("index",)).labels(index=self._family)
        self._m_timeouts = registry.counter(
            "serving_timeouts_total",
            "queries that blew their deadline before answering",
            ("index",)).labels(index=self._family)
        self._m_cache_hits = registry.counter(
            "serving_cache_hits_total", "serving-layer result-cache hits",
            ("index",)).labels(index=self._family)
        self._m_updates = registry.counter(
            "serving_updates_total", "committed writer operations",
            ("index", "kind"))
        self._m_queue_depth = registry.gauge(
            "serving_queue_depth", "queries waiting for a worker")
        self._m_epoch = registry.gauge(
            "serving_epoch", "committed epoch of the serving engine",
            ("index",)).labels(index=self._family)
        self._m_attempts = registry.histogram(
            "serving_query_attempts",
            "optimistic attempts needed per served query", ("index",),
            buckets=(1, 2, 3, 4, 6, 8, 12, 16)).labels(index=self._family)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def supports_updates(self) -> bool:
        """Can the wrapped index take document updates (vs rebuild-only)?"""
        return _maintenance.maintainable(self.index)

    def pending_fups(self) -> list[PathExpression]:
        """Expressions queued for refinement, oldest first."""
        with self._fup_lock:
            return list(self._pending)

    # ------------------------------------------------------------------
    # Reader path (the protocol around these is SnapshotReader's)
    # ------------------------------------------------------------------
    def _attempt(self, expr: PathExpression, deadline: float | None) -> (
            "tuple[Extent, bool, bool, CostCounter, tuple | None]"):
        """Cache probe, then the index (``deadline`` is the loop's)."""
        token = None
        if self.cache_enabled:
            token = self._fingerprint(expr)
            with self._cache_lock:
                entry = self._cache.get(expr)
            if entry is not None and entry.token == token:
                return (entry.answers, entry.validated, True,
                        CostCounter(index_visits=1), token)
        cost = CostCounter()
        result = self.index.query(expr, cost)
        return answer_run(result), result.validated, False, cost, token

    def _cache_store(self, expr: PathExpression, token: tuple,
                     answers: Extent, validated: bool, epoch: int) -> None:
        entry = _CacheEntry(token, answers, validated, epoch)
        with self._cache_lock:
            _fifo_store(self._cache, expr, entry, self._cache_size)

    def _observe(self, result: ServedResult) -> None:
        """Registry counters and FUP queueing — kept off the shared path
        so a sharded combiner does not double-count its shards."""
        (self._m_degraded if result.degraded else self._m_ok).inc()
        if result.conflicts:
            self._m_conflicts.inc(result.conflicts)
        if result.timed_out:
            self._m_timeouts.inc()
        if result.cache_hit:
            self._m_cache_hits.inc()
        self._m_attempts.observe(result.attempts)
        # Queue refinement work for frequent, still-validating queries.
        expr = result.expr
        with self._fup_lock:
            frequent = self.extractor.observe(expr)
            if frequent and result.validated and expr not in self._pending_set:
                self._pending_set.add(expr)
                self._pending.append(expr)

    # ------------------------------------------------------------------
    # Writer path
    # ------------------------------------------------------------------
    def insert_subtree(self, parent_oid: int,
                       subtree: SubtreeSpec) -> list[int]:
        """Insert ``(label, [children])`` under ``parent_oid`` atomically.

        The document mutation, index registration, and epoch bump all
        land inside one write window: a reader either sees none of the
        update or all of it.
        """
        tracer = _trace.TRACER
        span = tracer.span("serving.update", kind="insert_subtree") \
            if tracer.enabled else _trace.NULL_SPAN
        with span:
            with self.clock.write() as epoch:
                oids = _maintenance.insert_subtree(
                    self.graph, parent_oid, subtree, indexes=[self.index])
            span.tag(epoch=epoch, new_nodes=len(oids))
        self._committed_update("insert_subtree")
        return oids

    def add_reference(self, source_oid: int, target_oid: int) -> None:
        """Add an IDREF edge atomically (demotions included)."""
        tracer = _trace.TRACER
        span = tracer.span("serving.update", kind="add_reference") \
            if tracer.enabled else _trace.NULL_SPAN
        with span:
            with self.clock.write() as epoch:
                _maintenance.add_reference(
                    self.graph, source_oid, target_oid,
                    indexes=[self.index])
            span.tag(epoch=epoch)
        self._committed_update("add_reference")

    def _committed_update(self, kind: str) -> None:
        self.stats.record_update()
        self._m_updates.labels(index=self._family, kind=kind).inc()
        self._m_epoch.set(self.clock.epoch)

    def refine_pending(self, limit: int | None = None) -> int:
        """Adapt the index for queued FUPs; returns refinements applied.

        Each expression is replayed through the wrapped engine's full
        adaptive loop inside its *own* write window, so long refinement
        backlogs never starve readers for the whole batch — conflicts
        stay per-refinement.  A replay the wrapped engine declines to
        refine (its own extractor does not find the query frequent yet)
        commits an epoch but is not counted, here or against ``limit``.
        """
        applied = 0
        tracer = _trace.TRACER
        while limit is None or applied < limit:
            with self._fup_lock:
                if not self._pending:
                    break
                expr = self._pending.popleft()
                self._pending_set.discard(expr)
            span = tracer.span("serving.refine", query=str(expr)) \
                if tracer.enabled else _trace.NULL_SPAN
            with span:
                with self.clock.write() as epoch:
                    # The window is exclusive, so this read-execute-read
                    # sees only this replay's refinements.
                    before = self.engine.stats.refinements
                    self.engine.execute(expr)
                    refined = self.engine.stats.refinements > before
                span.tag(epoch=epoch)
            self._m_epoch.set(self.clock.epoch)
            if refined:
                applied += 1
                self.stats.record_refinement()
                self._m_updates.labels(index=self._family,
                                       kind="refine").inc()
        return applied

    def __repr__(self) -> str:
        return (f"ServingEngine(index={self._family}, "
                f"epoch={self.clock.epoch}, "
                f"queries={self.stats.snapshot()['queries']})")
