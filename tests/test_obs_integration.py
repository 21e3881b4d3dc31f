"""End-to-end observability tests: instrumented hot paths, the
``repro trace`` CLI, and the disabled-tracer overhead budget."""

import json
import time

import pytest

from repro.core.engine import AdaptiveIndexEngine
from repro.indexes.mstarindex import MStarIndex
from repro.obs import REGISTRY, TRACER, validate_chrome_trace, validate_nesting
from repro.queries.pathexpr import PathExpression
from repro.queries.workload import Workload


@pytest.fixture
def tracer():
    """The instrumented modules trace against the global TRACER."""
    TRACER.enable(clear=True)
    yield TRACER
    TRACER.disable()
    TRACER.clear()


def span_names(records):
    return [record.name for record in records]


class TestEngineSpans:
    def test_execute_produces_nested_spans(self, fig1, tracer):
        engine = AdaptiveIndexEngine(fig1, index_factory=MStarIndex,
                                     cache=True)
        engine.execute("//people/person")
        records = tracer.spans()
        names = span_names(records)
        assert "engine.execute" in names
        assert "engine.cache_probe" in names
        assert "engine.query" in names
        assert validate_nesting(records) == []
        # engine.query must sit under engine.execute.
        execute = next(r for r in records if r.name == "engine.execute")
        query = next(r for r in records if r.name == "engine.query")
        assert query.parent == execute.sid
        assert execute.tags["query"] == "//people/person"
        assert execute.tags["index"] == "MStarIndex"

    def test_cache_probe_outcomes(self, fig1, tracer):
        engine = AdaptiveIndexEngine(fig1, index_factory=MStarIndex,
                                     cache=True)
        for _ in range(3):
            engine.execute("//people/person")
        outcomes = [record.tags["outcome"] for record in tracer.spans()
                    if record.name == "engine.cache_probe"]
        # The FUP refinement after the second run invalidates the stored
        # token, so the sequence is miss, stale, hit.
        assert outcomes == ["miss", "stale", "hit"]

    def test_refinement_emits_index_spans(self, fig1, tracer):
        engine = AdaptiveIndexEngine(fig1, index_factory=MStarIndex,
                                     cache=True)
        expr = "//site/people/person"
        for _ in range(4):  # enough repeats to cross the FUP threshold
            engine.execute(expr)
        names = set(span_names(tracer.spans()))
        assert "engine.refine" in names
        assert "mstar.refine" in names
        assert names & {"mstar.refinenode", "mstar.promote"}
        assert validate_nesting(tracer.spans()) == []

    def test_validation_emits_evaluator_spans(self, fig1, tracer):
        engine = AdaptiveIndexEngine(fig1, index_factory=MStarIndex,
                                     cache=True)
        result = engine.execute("//site/people/person")
        assert result.validated  # fresh index: claims too small, validates
        assert "evaluator.validate" in span_names(tracer.spans())

    def test_metrics_absorb_engine_stats(self, fig1, tracer):
        before = REGISTRY.snapshot()
        engine = AdaptiveIndexEngine(fig1, index_factory=MStarIndex,
                                     cache=True)
        for _ in range(3):
            engine.execute("//people/person")
        after = REGISTRY.snapshot()

        def delta(name):
            return after[name] - before.get(name, 0)

        assert delta("engine_queries_total{MStarIndex}") == \
            engine.stats.queries == 3
        assert delta("engine_cache_hits_total{MStarIndex}") == \
            engine.stats.cache_hits == 1
        assert delta("engine_cache_misses_total{MStarIndex}") == 2


class TestPartitionSpans:
    def test_refiner_emits_rounds(self, fig1, tracer):
        from repro.indexes.aindex import AkIndex

        before = REGISTRY.snapshot().get("partition_rounds_total", 0)
        AkIndex(fig1, 2)
        assert "partition.round" in span_names(tracer.spans())
        assert REGISTRY.snapshot()["partition_rounds_total"] > before


class TestDiskSpans:
    def test_disk_query_emits_pager_spans(self, fig1, tracer, tmp_path):
        from repro.storage.diskindex import DiskMStarIndex

        index = MStarIndex(fig1)
        expr = PathExpression.parse("//site/people/person")
        index.refine(expr, index.query(expr))
        tracer.clear()
        path = str(tmp_path / "index.seg")
        with DiskMStarIndex.build(index, path, buffer_pages=4) as disk:
            disk.query(expr)
        records = tracer.spans()
        names = set(span_names(records))
        assert "diskindex.query" in names
        assert "pager.read_page" in names
        assert validate_nesting(records) == []
        query = next(r for r in records if r.name == "diskindex.query")
        read = next(r for r in records if r.name == "pager.read_page")
        assert read.parent == query.sid

    def test_pager_metrics_count_io(self, fig1, tracer, tmp_path):
        from repro.storage.diskindex import DiskMStarIndex

        index = MStarIndex(fig1)
        expr = PathExpression.parse("//people/person")
        before = REGISTRY.snapshot()
        path = str(tmp_path / "index.seg")
        with DiskMStarIndex.build(index, path, buffer_pages=4) as disk:
            disk.query(expr)
            disk.query(expr)
            reads, hits = disk.io_stats()
        after = REGISTRY.snapshot()
        assert after["pager_reads_total"] - \
            before.get("pager_reads_total", 0) == reads
        assert after["pager_pool_hits_total"] - \
            before.get("pager_pool_hits_total", 0) == hits


class TestTraceCli:
    def test_trace_check_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        code = main(["trace", "--scale", "0.01", "--seed", "7",
                     "--queries", "12", "--passes", "2",
                     "-o", str(out), "--check"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        categories = {event["cat"] for event in payload["traceEvents"]}
        assert {"engine", "evaluator", "pager", "diskindex"} <= categories
        assert categories & {"mstar", "mk", "dk", "partition"}
        assert not TRACER.enabled  # the command must not leak tracing on
        assert "check OK" in capsys.readouterr().out


class TestDisabledOverhead:
    def test_replay_overhead_within_budget(self, small_xmark):
        """The disabled tracer costs <= 5% of cached replay time.

        Instrumentation cannot be compiled out, so the overhead is
        bounded from its parts: spans per query (counted by one enabled
        replay) x the cost of one disabled ``span()`` call (the most a
        disabled call site pays), over the per-query time of a disabled
        replay (best of three).
        """
        workload = Workload.generate(small_xmark, num_queries=24,
                                     max_length=5, seed=3)

        def replay():
            engine = AdaptiveIndexEngine(small_xmark,
                                         index_factory=MStarIndex,
                                         cache=True)
            started = time.perf_counter()
            for _ in range(2):
                engine.execute_all(workload)
            return time.perf_counter() - started, engine.stats.queries

        assert not TRACER.enabled
        TRACER.clear()
        disabled_s, queries = min(replay() for _ in range(3))

        TRACER.enable(clear=True)
        try:
            replay()
            spans_per_query = TRACER.recorded / queries
        finally:
            TRACER.disable()
            TRACER.clear()
        assert spans_per_query > 0

        calls = 200_000
        started = time.perf_counter()
        for _ in range(calls):
            with TRACER.span("test.noop"):
                pass
        disabled_span_s = (time.perf_counter() - started) / calls

        overhead = spans_per_query * disabled_span_s / (disabled_s / queries)
        assert overhead <= 0.05, (spans_per_query, disabled_span_s,
                                  disabled_s, queries)
        assert not TRACER.enabled

    def test_workload_results_identical_traced_or_not(self, fig1):
        workload = list(Workload.generate(fig1, num_queries=12,
                                          max_length=4, seed=5))

        def run():
            engine = AdaptiveIndexEngine(fig1, index_factory=MStarIndex,
                                         cache=True)
            return [frozenset(result.answers)
                    for result in engine.execute_all(workload)]

        plain = run()
        TRACER.enable(clear=True)
        try:
            traced = run()
        finally:
            TRACER.disable()
            TRACER.clear()
        assert traced == plain
