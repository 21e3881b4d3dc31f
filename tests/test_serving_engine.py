"""Unit tests for the snapshot-isolated serving layer (repro.serving)."""

from __future__ import annotations

import threading
import time

import pytest

from tests.conftest import random_graph
from repro.core.engine import AdaptiveIndexEngine
from repro.core.extents import Extent
from repro.core.fup import FupExtractor
from repro.indexes.mstarindex import MStarIndex
from repro.indexes.oneindex import OneIndex
from repro.obs import metrics as _metrics
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import as_expression
from repro.queries.workload import Workload
from repro.serving import (
    EpochClock,
    ReplayConfig,
    ServingEngine,
    load_workload,
    run_replay,
    save_workload,
)


class TestEpochClock:
    def test_initial_state_is_clean_epoch_zero(self):
        clock = EpochClock()
        clean, seq = clock.read()
        assert clean and seq == 0
        assert clock.epoch == 0
        assert clock.validate(seq)

    def test_write_window_is_odd_inside_even_after(self):
        clock = EpochClock()
        with clock.write() as epoch:
            assert epoch == 1
            clean, seq = clock.read()
            assert not clean and seq == 1
        clean, seq = clock.read()
        assert clean and seq == 2
        assert clock.epoch == 1

    def test_read_across_a_commit_fails_validation(self):
        clock = EpochClock()
        _, seq = clock.read()
        with clock.write():
            pass
        assert not clock.validate(seq)

    def test_write_is_reentrant_and_bumps_once(self):
        clock = EpochClock()
        with clock.write() as outer:
            with clock.write() as inner:
                assert inner == outer
        assert clock.epoch == 1

    def test_sequence_goes_even_when_writer_raises(self):
        clock = EpochClock()
        with pytest.raises(RuntimeError):
            with clock.write():
                raise RuntimeError("mid-mutation crash")
        clean, _ = clock.read()
        assert clean  # readers must never spin forever on an odd seq
        assert clock.epoch == 1

    def test_pause_writers_pins_the_epoch(self):
        clock = EpochClock()
        with clock.write():
            pass
        with clock.pause_writers() as epoch:
            assert epoch == 1
            clean, seq = clock.read()
            assert clean and clock.validate(seq)
        assert clock.epoch == 1

    def test_pause_writers_blocks_concurrent_writer(self):
        clock = EpochClock()
        entered = threading.Event()
        committed = threading.Event()

        def writer() -> None:
            entered.set()
            with clock.write():
                pass
            committed.set()

        with clock.pause_writers():
            thread = threading.Thread(target=writer)
            thread.start()
            assert entered.wait(timeout=5.0)
            time.sleep(0.05)
            assert not committed.is_set()
            assert clock.epoch == 0
        thread.join(timeout=5.0)
        assert committed.is_set()
        assert clock.epoch == 1


class TestServingQueries:
    def test_answers_match_oracle_and_carry_epoch(self):
        graph = random_graph(3, num_nodes=40)
        serving = ServingEngine(graph)
        for expr in Workload.generate(graph, num_queries=20, max_length=4,
                                      seed=1):
            result = serving.query(expr)
            assert result.answers == evaluate_on_data_graph(graph, expr)
            assert result.epoch == serving.epoch
            assert not result.degraded and not result.timed_out
            assert result.attempts == 1 and result.conflicts == 0

    def test_wraps_an_existing_engine(self, simple_tree):
        engine = AdaptiveIndexEngine(simple_tree)
        serving = ServingEngine(engine)
        assert serving.engine is engine
        assert serving.index is engine.index
        result = serving.query("//a/c")
        assert result.answers == {4, 5}

    def test_serve_returns_results_in_input_order(self):
        graph = random_graph(5, num_nodes=40)
        serving = ServingEngine(graph)
        queries = list(Workload.generate(graph, num_queries=30, max_length=4,
                                         seed=2))
        results = serving.serve(queries, workers=4)
        assert len(results) == len(queries)
        for expr, result in zip(queries, results):
            assert result.expr == as_expression(expr)
            assert result.answers == evaluate_on_data_graph(graph, expr)

    def test_serve_empty_batch_and_bad_workers(self, simple_tree):
        serving = ServingEngine(simple_tree)
        assert serving.serve([]) == []
        with pytest.raises(ValueError):
            serving.serve(["//a"], workers=0)

    def test_serving_cache_hits_on_repeat(self, simple_tree):
        serving = ServingEngine(simple_tree)
        first = serving.query("//a/c")
        again = serving.query("//a/c")
        assert not first.cache_hit
        assert again.cache_hit
        assert again.answers == first.answers
        assert serving.stats.snapshot()["cache_hits"] == 1

    def test_hits_share_one_immutable_run(self, simple_tree):
        """A hit hands out the cached object itself; that is safe only
        because nothing on it can change it."""
        serving = ServingEngine(simple_tree)
        filled = serving.query("//a/c")
        first = serving.query("//a/c")
        second = serving.query("//a/c")
        assert first.cache_hit and second.cache_hit
        assert first.answers is second.answers is filled.answers
        assert isinstance(first.answers, Extent)
        assert first.answers.tolist() == [4, 5]
        mutators = {"add", "discard", "remove", "pop", "clear", "update",
                    "append", "extend", "insert", "sort", "reverse",
                    "difference_update", "intersection_update",
                    "symmetric_difference_update",
                    "__setitem__", "__delitem__", "__ior__", "__iand__",
                    "__isub__", "__ixor__", "__iadd__"}
        assert not mutators & set(dir(first.answers))
        with pytest.raises(AttributeError):
            first.answers.extra = 1  # type: ignore[attr-defined]
        mutable = first.answers.to_set()
        mutable.add(99)
        assert serving.query("//a/c").answers == {4, 5}

    def test_cache_off_remembers_nothing(self, simple_tree):
        serving = ServingEngine(simple_tree, cache=False)
        first = serving.query("//a/c")
        again = serving.query("//a/c")
        assert not first.cache_hit and not again.cache_hit
        assert again.cost.total > 1
        assert again.answers == first.answers == {4, 5}
        assert serving.stats.snapshot()["cache_hits"] == 0

    def test_update_invalidates_serving_cache(self, simple_tree):
        serving = ServingEngine(simple_tree)
        before = serving.query("//a/c").answers
        serving.insert_subtree(0, ("a", [("c", [])]))
        after = serving.query("//a/c")
        assert not after.cache_hit
        assert after.answers == before | {8}
        assert after.answers == evaluate_on_data_graph(serving.graph,
                                                       as_expression("//a/c"))

    def test_client_io_hook_runs_per_result(self, simple_tree):
        serving = ServingEngine(simple_tree)
        seen: list[frozenset[int]] = []
        lock = threading.Lock()

        def hook(result) -> None:
            with lock:
                seen.append(frozenset(result.answers))

        serving.serve(["//a", "//b", "//a/c"], workers=2, client_io=hook)
        assert len(seen) == 3

    def test_worker_exception_propagates(self, simple_tree):
        serving = ServingEngine(simple_tree)

        def hook(_result) -> None:
            raise RuntimeError("client pipe broke")

        with pytest.raises(RuntimeError, match="client pipe broke"):
            serving.serve(["//a", "//b"], workers=2, client_io=hook)


class TestConflictAndDegradation:
    def test_conflicting_commit_forces_retry(self, simple_tree):
        """A writer committing mid-evaluation invalidates the attempt;
        the retry observes the post-update state."""
        serving = ServingEngine(simple_tree, cache=False)
        from repro.indexes import maintenance

        original = serving.index.query
        fired = []

        def tricky(expr, counter=None, **kwargs):
            result = original(expr, counter, **kwargs)
            if not fired:
                fired.append(True)
                with serving.clock.write():
                    maintenance.insert_subtree(serving.graph, 0, ("z", []),
                                               indexes=[serving.index])
            return result

        serving.index.query = tricky  # type: ignore[method-assign]
        try:
            result = serving.query("//a/c")
        finally:
            del serving.index.query
        assert result.conflicts >= 1
        assert result.attempts == 2
        assert result.epoch == 1
        assert result.answers == evaluate_on_data_graph(
            serving.graph, as_expression("//a/c"))

    def test_torn_read_exception_is_a_conflict_not_a_crash(self, simple_tree):
        """An exception during an optimistic attempt (torn index state)
        retries instead of propagating."""
        serving = ServingEngine(simple_tree, cache=False)
        original = serving.index.query
        fired = []

        def exploding(expr, counter=None, **kwargs):
            if not fired:
                fired.append(True)
                raise KeyError("node vanished mid-iteration")
            return original(expr, counter, **kwargs)

        serving.index.query = exploding  # type: ignore[method-assign]
        try:
            result = serving.query("//a/c")
        finally:
            del serving.index.query
        assert result.conflicts == 1
        assert result.answers == {4, 5}

    def test_exhausted_attempts_degrade_to_exact_oracle(self, simple_tree):
        """When every optimistic attempt conflicts, the query degrades to
        the locked data-graph path — late but exact, never wrong."""
        serving = ServingEngine(simple_tree, max_attempts=2, cache=False)
        self._always_degrading(serving)
        result = serving.query("//a/c")
        assert result.degraded
        assert result.validated
        assert result.answers == {4, 5}
        assert serving.stats.snapshot()["degraded"] == 1

    @staticmethod
    def _always_degrading(serving):
        """Every optimistic attempt on ``serving`` is a torn read."""
        def always_torn(expr, counter=None, **kwargs):
            raise KeyError("permanently torn")

        serving.index.query = always_torn  # type: ignore[method-assign]

    def test_exact_path_remembers_its_epochs_answers(self, simple_tree):
        """The second degraded answer of an epoch is the first one's
        object, reported as a one-visit hit; a commit drops it."""
        serving = ServingEngine(simple_tree, max_attempts=1)
        self._always_degrading(serving)
        first = serving.query("//a/c")
        again = serving.query("//a/c")
        assert first.degraded and not first.cache_hit
        assert first.cost.data_visits > 0
        assert again.degraded and again.cache_hit and again.validated
        assert again.answers is first.answers
        assert (again.cost.index_visits, again.cost.data_visits) == (1, 0)
        assert again.epoch == first.epoch == 0

        serving.insert_subtree(0, ("a", [("c", [])]))
        after = serving.query("//a/c")
        assert after.degraded and not after.cache_hit
        assert after.epoch == 1
        assert after.answers == {4, 5, 8}
        assert first.answers == {4, 5}
        stats = serving.stats.snapshot()
        assert stats["queries"] == stats["cache_hits"] + stats["misses"] == 3
        assert stats["cache_hits"] == 1 and stats["degraded"] == 3

    def test_exact_path_remembers_nothing_with_the_cache_off(
            self, simple_tree):
        serving = ServingEngine(simple_tree, max_attempts=1, cache=False)
        self._always_degrading(serving)
        first = serving.query("//a/c")
        again = serving.query("//a/c")
        assert first.degraded and again.degraded
        assert not first.cache_hit and not again.cache_hit
        assert again.cost.total > 1
        assert again.answers == first.answers == {4, 5}

    def test_exact_path_memory_is_bounded(self, simple_tree):
        serving = ServingEngine(simple_tree, max_attempts=1, cache_size=2)
        self._always_degrading(serving)
        for text in ("//a/c", "//b/c", "//r/a", "//r/b"):
            serving.query(text)
        assert [str(expr) for expr in serving._exact_answers] == \
            ["//r/a", "//r/b"]
        assert not serving.query("//a/c").cache_hit
        assert serving.query("//a/c").cache_hit

    def test_long_write_window_times_out_then_degrades(self, simple_tree):
        """A reader that cannot get a clean window before its deadline
        waits for the writer mutex and returns the exact answer, flagged
        ``timed_out``."""
        serving = ServingEngine(simple_tree)
        release = threading.Event()
        holding = threading.Event()

        def long_writer() -> None:
            with serving.clock.write():
                holding.set()
                release.wait(timeout=10.0)

        thread = threading.Thread(target=long_writer)
        thread.start()
        assert holding.wait(timeout=5.0)
        try:
            started = time.monotonic()
            result_box: list = []

            def read() -> None:
                result_box.append(serving.query("//a/c", timeout=0.02))

            reader = threading.Thread(target=read)
            reader.start()
            time.sleep(0.1)  # hold the writer well past the deadline
        finally:
            release.set()
        reader.join(timeout=10.0)
        thread.join(timeout=10.0)
        result = result_box[0]
        assert result.degraded and result.timed_out
        assert result.answers == {4, 5}
        assert result.duration_s >= 0.02
        assert time.monotonic() - started < 10


class TestWriterPath:
    def test_insert_and_reference_advance_the_epoch(self, simple_tree):
        serving = ServingEngine(simple_tree)
        assert serving.epoch == 0
        oids = serving.insert_subtree(0, ("a", [("c", [])]))
        assert len(oids) == 2
        assert serving.epoch == 1
        serving.add_reference(oids[0], 3)
        assert serving.epoch == 2
        stats = serving.stats.snapshot()
        assert stats["updates"] == 2

    def test_rebuild_only_family_rejects_updates(self, simple_tree):
        serving = ServingEngine(simple_tree, index_factory=OneIndex)
        assert not serving.supports_updates
        with pytest.raises(TypeError, match="rebuild"):
            serving.insert_subtree(0, ("a", []))
        assert serving.epoch == 1  # the aborted window still committed

    def test_refine_pending_drains_fup_queue(self, simple_tree):
        serving = ServingEngine(simple_tree)
        expr = as_expression("//a/c")
        serving.query(expr)  # validated + frequent -> queued
        assert serving.pending_fups() == [expr]
        applied = serving.refine_pending()
        assert applied == 1
        assert serving.pending_fups() == []
        assert serving.epoch == 1
        assert serving.query(expr).answers == {4, 5}

    def test_inner_engine_keeps_no_result_cache(self, simple_tree):
        # The inner engine only runs inside refine_pending, where every
        # replay it stored was invalidated by the refinement it caused.
        serving = ServingEngine(simple_tree)
        expr = as_expression("//a/c")
        serving.query(expr)
        assert serving.refine_pending() == 1
        assert serving.query(expr).answers == {4, 5}
        assert serving.engine._cache == {}
        assert len(serving._cache) == 1  # the serving cache still works

    def test_refine_pending_counts_refinements_not_replays(
            self, simple_tree):
        """A replay the wrapped engine declines to refine (its own
        extractor wants three sightings) commits an epoch but is not a
        refinement: not in the return value, not in the stats."""
        engine = AdaptiveIndexEngine(simple_tree,
                                     extractor=FupExtractor(threshold=3))
        serving = ServingEngine(engine)
        expr = as_expression("//a/c")
        applied = []
        for _ in range(3):
            serving.query(expr)  # validated + frequent here -> queued
            assert serving.pending_fups() == [expr]
            applied.append(serving.refine_pending())
            assert serving.pending_fups() == []
            assert serving.stats.snapshot()["refinements"] \
                == engine.stats.refinements == sum(applied)
        assert applied == [0, 0, 1]  # third replay is the third sighting
        assert serving.epoch == 3   # every replay still committed
        assert serving.query(expr).answers == {4, 5}

    def test_pin_blocks_writers_and_preserves_pre_update_view(
            self, simple_tree):
        serving = ServingEngine(simple_tree)
        expr = as_expression("//a/c")
        committed = threading.Event()

        def updater() -> None:
            serving.insert_subtree(0, ("a", [("c", [])]))
            committed.set()

        with serving.pin() as snap:
            before = snap.oracle(expr)
            thread = threading.Thread(target=updater)
            thread.start()
            time.sleep(0.05)  # updater is blocked on the writer mutex
            assert not committed.is_set()
            assert snap.query(expr).answers == before
            assert snap.epoch == 0
        thread.join(timeout=5.0)
        assert committed.is_set()
        assert serving.query(expr).answers == before | {8}


class TestServingMetrics:
    def test_query_and_update_metrics_accumulate(self, simple_tree):
        registry = _metrics.REGISTRY
        before = registry.snapshot()
        serving = ServingEngine(simple_tree)
        serving.query("//a/c")
        serving.query("//a/c")  # cache hit
        serving.insert_subtree(0, ("b", []))
        after = registry.snapshot()
        family = type(serving.index).__name__

        def delta(name: str) -> float:
            return after.get(name, 0) - before.get(name, 0)

        assert delta(f"serving_queries_total{{{family},ok}}") == 2
        assert delta(f"serving_cache_hits_total{{{family}}}") == 1
        assert delta(
            f"serving_updates_total{{{family},insert_subtree}}") == 1
        assert after[f"serving_epoch{{{family}}}"] >= 1
        assert delta(f"serving_query_attempts{{{family}}}_count") == 2
        assert after["serving_queue_depth"] == before.get(
            "serving_queue_depth", 0)


class TestReplayDriver:
    def test_workload_file_round_trip(self, tmp_path, simple_tree):
        path = str(tmp_path / "workload.txt")
        queries = list(Workload.generate(simple_tree, num_queries=12,
                                         max_length=3, seed=4))
        save_workload(path, queries, header="round trip\nsecond line")
        loaded = load_workload(path)
        assert loaded == [as_expression(q) for q in queries]

    def test_empty_workload_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.txt")
        with open(path, "w") as handle:
            handle.write("# only comments\n\n")
        with pytest.raises(ValueError, match="no queries"):
            load_workload(path)

    def test_replay_with_updates_checks_clean(self):
        graph = random_graph(11, num_nodes=50)
        serving = ServingEngine(graph)
        queries = list(Workload.generate(graph, num_queries=25, max_length=4,
                                         seed=6))
        config = ReplayConfig(workers=4, passes=2, update_rounds=5,
                              update_seed=9, check=True)
        report = run_replay(serving, queries, config)
        assert report.queries_served == 50
        assert report.updates_applied == 5
        assert report.check_failures == 0
        assert report.end_epoch >= 5
        assert len(report.digest) == 64
        assert report.throughput_qps > 0

    def test_replay_digest_is_worker_count_invariant(self):
        queries = None
        digests = []
        for workers in (1, 3):
            graph = random_graph(13, num_nodes=50)
            serving = ServingEngine(graph)
            if queries is None:
                queries = list(Workload.generate(graph, num_queries=20,
                                                 max_length=4, seed=8))
            config = ReplayConfig(workers=workers, passes=2, update_rounds=4,
                                  update_seed=21)
            digests.append(run_replay(serving, queries, config).digest)
        assert digests[0] == digests[1]

    def test_check_phase_forwards_replay_timeout(self, monkeypatch):
        # Regression: the check phase used to call serving.query(expr)
        # bare, silently discarding config.timeout (the PR 8 bug shape,
        # this time caught by the budget-propagation lint pass).
        graph = random_graph(17, num_nodes=40)
        serving = ServingEngine(graph)
        queries = list(Workload.generate(graph, num_queries=10,
                                         max_length=3, seed=3))
        config = ReplayConfig(workers=2, passes=1, check=True, timeout=5.0)
        seen: list[object] = []
        original = ServingEngine.query

        def recording(self, expr, timeout=object()):
            seen.append(timeout)
            return original(self, expr, timeout=timeout)

        monkeypatch.setattr(ServingEngine, "query", recording)
        report = run_replay(serving, queries, config)
        assert report.checked
        assert report.check_failures == 0
        assert seen
        assert all(value == 5.0 for value in seen)

    def test_replay_config_validation(self):
        with pytest.raises(ValueError):
            ReplayConfig(workers=0)
        with pytest.raises(ValueError):
            ReplayConfig(passes=0)
        with pytest.raises(ValueError):
            ReplayConfig(client_stall_s=-0.1)


class TestServeCli:
    def test_serve_subcommand_smoke(self, tmp_path, capsys):
        from repro.cli import main

        digest_path = str(tmp_path / "digest.txt")
        json_path = str(tmp_path / "report.json")
        code = main(["serve", "--scale", "0.01", "--queries", "10",
                     "--workers", "2", "--update-rounds", "2", "--check",
                     "--digest-out", digest_path, "--json", json_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "check OK" in out
        with open(digest_path) as handle:
            assert len(handle.read().strip()) == 64
        import json

        with open(json_path) as handle:
            report = json.load(handle)
        assert report["queries_served"] == 20
        assert report["check_failures"] == 0

    def test_serve_replay_file(self, tmp_path, capsys):
        from repro.cli import main

        workload_path = str(tmp_path / "wl.txt")
        save_path = str(tmp_path / "generated.txt")
        code = main(["serve", "--scale", "0.01", "--queries", "8",
                     "--save-workload", save_path])
        assert code == 0
        save_workload(workload_path, load_workload(save_path))
        code = main(["serve", "--scale", "0.01", "--replay", workload_path,
                     "--workers", "2"])
        assert code == 0
        assert "workers from" in capsys.readouterr().out
