"""Load-generator tests (repro.net.loadgen).

The headline property: an over-the-wire replay must reach the exact
document history an in-process :func:`repro.serving.replay.run_replay`
reaches — so the answers-only digests agree, for a single-shard engine
*and* for a sharded combiner behind the same wire.  Everything else
(latency percentiles, shed accounting, mirror divergence) rides along.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_xmark
from repro.net.loadgen import (LoadgenConfig, _Mirror, percentile,
                               run_loadgen, wire_content_digest)
from repro.net.server import IndexServer
from repro.queries.workload import Workload
from repro.serving.engine import ServingEngine
from repro.serving.replay import ReplayConfig, content_digest, run_replay
from repro.sharding import ShardedEngine


def fresh_graph():
    """One more copy of the shared tiny document (same seed)."""
    return generate_xmark(scale=0.01, seed=7).freeze()


@pytest.fixture(scope="module")
def workload():
    return list(Workload.generate(fresh_graph(), num_queries=15,
                                  max_length=5, seed=3))


@pytest.fixture(scope="module")
def config():
    return LoadgenConfig(connections=3, passes=2, update_rounds=2,
                         updates_per_round=1, update_seed=11)


@pytest.fixture(scope="module")
def inproc_digest(workload, config):
    """The in-process replay digest every wire run must reproduce."""
    serving = ServingEngine(fresh_graph())
    run_replay(serving, workload,
               ReplayConfig(workers=3, passes=config.passes,
                            update_rounds=config.update_rounds,
                            updates_per_round=config.updates_per_round,
                            update_seed=config.update_seed))
    return content_digest(serving, workload)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value_is_itself(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_interpolates_linearly(self):
        values = [0.0, 10.0]
        assert percentile(values, 0.5) == pytest.approx(5.0)
        assert percentile(values, 0.25) == pytest.approx(2.5)

    def test_extremes_hit_min_and_max(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0

    def test_monotone_in_fraction(self):
        values = sorted([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        points = [percentile(values, f / 10) for f in range(11)]
        assert points == sorted(points)


class TestConfigValidation:
    def test_rejects_bad_connections(self):
        with pytest.raises(ValueError):
            LoadgenConfig(connections=0)

    def test_rejects_bad_passes(self):
        with pytest.raises(ValueError):
            LoadgenConfig(passes=0)

    def test_rejects_negative_update_knobs(self):
        with pytest.raises(ValueError):
            LoadgenConfig(update_rounds=-1)
        with pytest.raises(ValueError):
            LoadgenConfig(updates_per_round=-1)


class TestWireReplay:
    def test_single_shard_digest_matches_inproc(self, workload, config,
                                                inproc_digest):
        serving = ServingEngine(fresh_graph())
        with IndexServer(serving, port=0, workers=4) as server:
            report = run_loadgen(*server.address, fresh_graph(), workload,
                                 config)
        assert report.content_digest == inproc_digest
        # The server's own pinned oracle agrees with its wire answers.
        assert content_digest(serving, workload) == inproc_digest

        expected = len(workload) * config.passes
        assert report.queries_sent == expected
        assert report.queries_ok + report.shed == report.queries_sent
        assert report.updates_applied == \
            config.update_rounds * config.updates_per_round
        assert len(report.update_log) == report.updates_applied
        assert report.connections == config.connections

    def test_sharded_digest_matches_inproc(self, workload, config,
                                           inproc_digest):
        engine = ShardedEngine(fresh_graph(), 2)
        with IndexServer(engine, port=0, workers=4) as server:
            report = run_loadgen(*server.address, fresh_graph(), workload,
                                 config)
        assert report.content_digest == inproc_digest
        assert report.queries_ok + report.shed == report.queries_sent

    def test_latency_report_is_ordered_and_populated(self, workload,
                                                     config):
        serving = ServingEngine(fresh_graph())
        with IndexServer(serving, port=0, workers=4) as server:
            report = run_loadgen(*server.address, fresh_graph(), workload,
                                 config)
        assert report.duration_s > 0
        assert report.throughput_qps > 0
        assert 0 < report.p50_ms <= report.p95_ms <= report.p99_ms

    def test_as_dict_round_trips_every_field(self, workload):
        serving = ServingEngine(fresh_graph())
        with IndexServer(serving, port=0, workers=2) as server:
            report = run_loadgen(
                *server.address, fresh_graph(), workload,
                LoadgenConfig(connections=2, passes=1))
        payload = report.as_dict()
        assert payload["queries_ok"] == report.queries_ok
        assert payload["throughput_qps"] == report.throughput_qps
        assert payload["content_digest"] == report.content_digest

    def test_empty_report_throughput_is_zero(self):
        from repro.net.loadgen import LoadgenReport
        assert LoadgenReport().throughput_qps == 0.0


class TestMirror:
    def test_oid_divergence_is_a_hard_error(self, simple_tree):
        class _WrongOidClient:
            def add_reference(self, source_oid, target_oid):
                pass

            def insert_subtree(self, parent_oid, subtree):
                return [10_000]  # never what the local mirror allocated

        mirror = _Mirror(simple_tree, _WrongOidClient())
        with pytest.raises(AssertionError, match="diverged"):
            mirror.insert_subtree(0, ("x", []))

    def test_matching_oids_apply_both_sides(self, simple_tree):
        calls: list[tuple] = []
        before = simple_tree.num_nodes

        class _EchoClient:
            def add_reference(self, source_oid, target_oid):
                calls.append(("ref", source_oid, target_oid))

            def insert_subtree(self, parent_oid, subtree):
                calls.append(("insert", parent_oid))
                return [before]  # same oid the local mirror allocates

        mirror = _Mirror(simple_tree, _EchoClient())
        assert mirror.insert_subtree(0, ("x", [])) == [before]
        mirror.add_reference(4, 3)
        assert simple_tree.num_nodes == before + 1
        assert calls == [("insert", 0), ("ref", 4, 3)]


class TestWireDigestHelper:
    def test_wire_digest_equals_pinned_oracle_digest(self, workload):
        from repro.net.client import NetClient
        serving = ServingEngine(fresh_graph())
        with IndexServer(serving, port=0, workers=2) as server:
            with NetClient(*server.address) as client:
                over_wire = wire_content_digest(client, workload)
        assert over_wire == content_digest(serving, workload)

    def test_wire_digest_ignores_duplicates_and_order(self, workload):
        from repro.net.client import NetClient
        serving = ServingEngine(fresh_graph())
        with IndexServer(serving, port=0, workers=2) as server:
            with NetClient(*server.address) as client:
                forward = wire_content_digest(client, workload)
                shuffled = wire_content_digest(
                    client, list(reversed(workload)) + workload[:3])
        assert forward == shuffled
