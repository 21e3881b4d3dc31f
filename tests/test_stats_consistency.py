"""Stats-aggregation consistency under concurrency (the PR 8 fix).

Mirrors ``tests/test_engine_stats_threadsafe.py`` one layer up: the
one :class:`ServingStats` type both engines share (including the
``fallbacks`` counter only the sharded combiner drives) must move every
counter derived from one result inside a single lock acquisition, so a concurrent :meth:`snapshot` can
never observe a state where ``queries != cache_hits + misses`` or a
per-result flag count running ahead of the query count.  The hammer
tests drive writers and snapshot readers concurrently and assert the
invariants on *every* observed snapshot, not just the final one.
"""

from __future__ import annotations

import threading

from repro.queries.pathexpr import as_expression
from repro.serving.engine import ServedResult, ServingEngine, ServingStats

EXPR = as_expression("//a/c")


def result(cache_hit=False, degraded=False, timed_out=False,
           fallback=False, conflicts=0) -> ServedResult:
    return ServedResult(expr=EXPR, answers=set(), validated=True, epoch=0,
                        cache_hit=cache_hit, degraded=degraded,
                        timed_out=timed_out, fallback=fallback,
                        conflicts=conflicts)


def check_invariants(snapshot: dict) -> None:
    assert snapshot["queries"] == \
        snapshot["cache_hits"] + snapshot["misses"], snapshot
    assert 0 <= snapshot["degraded"] <= snapshot["queries"], snapshot
    assert 0 <= snapshot["timeouts"] <= snapshot["queries"], snapshot
    # Every fallback answer is a degraded one, never the reverse.
    assert 0 <= snapshot["fallbacks"] <= snapshot["degraded"], snapshot


def hammer(stats: ServingStats, make_results, *, writers=4,
           per_writer=300) -> None:
    """Drive ``writers`` recording threads against snapshot readers
    that assert consistency on every single observation."""
    start = threading.Barrier(writers + 2)
    done = threading.Event()
    failures: list[BaseException] = []

    def write() -> None:
        try:
            start.wait(timeout=10.0)
            for each in make_results(per_writer):
                stats.record_result(each)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    def read() -> None:
        try:
            start.wait(timeout=10.0)
            while not done.is_set():
                check_invariants(stats.snapshot())
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=write) for _ in range(writers)] \
        + [threading.Thread(target=read) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads[:writers]:
        thread.join(timeout=30.0)
    done.set()
    for thread in threads[writers:]:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]


def mixed_results(count: int):
    """A deterministic mix exercising every counter combination."""
    for index in range(count):
        yield result(cache_hit=index % 2 == 0,
                     degraded=index % 3 == 0,
                     timed_out=index % 5 == 0,
                     fallback=index % 6 == 0,  # subset of degraded (%3)
                     conflicts=index % 4)


class TestServingStatsConsistency:
    def test_single_result_moves_all_counters_together(self):
        stats = ServingStats()
        stats.record_result(result(cache_hit=True, degraded=True,
                                   timed_out=True, conflicts=2))
        snapshot = stats.snapshot()
        check_invariants(snapshot)
        assert snapshot == {"queries": 1, "cache_hits": 1, "misses": 0,
                            "conflicts": 2, "degraded": 1, "timeouts": 1,
                            "updates": 0, "refinements": 0,
                            "fallbacks": 0}

    def test_miss_is_the_complement_of_cache_hit(self):
        stats = ServingStats()
        stats.record_result(result(cache_hit=False))
        stats.record_result(result(cache_hit=True))
        snapshot = stats.snapshot()
        assert (snapshot["cache_hits"], snapshot["misses"]) == (1, 1)
        check_invariants(snapshot)

    def test_hammer_every_snapshot_is_consistent(self):
        stats = ServingStats()
        hammer(stats, mixed_results)
        final = stats.snapshot()
        check_invariants(final)
        assert final["queries"] == 4 * 300
        assert final["cache_hits"] == 4 * 150
        assert final["degraded"] == 4 * 100
        assert final["timeouts"] == 4 * 60
        assert final["conflicts"] == 4 * sum(i % 4 for i in range(300))

    def test_updates_and_refinements_are_exact_under_threads(self):
        stats = ServingStats()
        threads = [threading.Thread(target=lambda: [
            (stats.record_update(), stats.record_refinement())
            for _ in range(200)]) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        snapshot = stats.snapshot()
        assert snapshot["updates"] == 800
        assert snapshot["refinements"] == 800


class TestShardedStatsConsistency:
    """The combiner's ``fallbacks`` counter lives on the shared type."""

    def test_fallback_lands_in_the_same_atomic_step(self):
        stats = ServingStats()
        stats.record_result(result(degraded=True, fallback=True))
        snapshot = stats.snapshot()
        check_invariants(snapshot)
        assert snapshot["fallbacks"] == 1
        assert snapshot["degraded"] == 1
        assert snapshot["queries"] == 1

    def test_snapshot_includes_the_extra_field(self):
        assert "fallbacks" in ServingStats().snapshot()

    def test_hammer_fallbacks_never_outrun_degraded(self):
        stats = ServingStats()
        hammer(stats, mixed_results)
        final = stats.snapshot()
        check_invariants(final)
        assert final["queries"] == 4 * 300
        assert final["fallbacks"] == 4 * 50
        assert final["degraded"] == 4 * 100


class TestEndToEndThroughTheEngine:
    def test_served_batch_accounts_exactly(self, simple_tree):
        serving = ServingEngine(simple_tree)
        results = serving.serve(["//a/c"] * 40, workers=4)
        snapshot = serving.stats.snapshot()
        check_invariants(snapshot)
        assert snapshot["queries"] == len(results) == 40
        assert snapshot["fallbacks"] == 0  # a single engine never routes

    def test_concurrent_queries_and_updates_stay_consistent(
            self, simple_tree):
        serving = ServingEngine(simple_tree)
        stop = threading.Event()
        failures: list[BaseException] = []

        def query_loop() -> None:
            try:
                while not stop.is_set():
                    serving.query("//a/c", timeout=0.05)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        def snapshot_loop() -> None:
            try:
                while not stop.is_set():
                    check_invariants(serving.stats.snapshot())
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [threading.Thread(target=query_loop) for _ in range(3)] \
            + [threading.Thread(target=snapshot_loop)]
        for thread in threads:
            thread.start()
        for _ in range(25):
            serving.insert_subtree(0, ("a", [("c", [])]))
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not failures, failures[0]
        check_invariants(serving.stats.snapshot())
