"""Tests for the sharded index service (repro.sharding)."""

import random
import sys
import threading

import pytest

from repro.datasets import generate_xmark
from repro.graph.datagraph import DataGraph
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import PathExpression
from repro.queries.workload import Workload
from repro.serving.engine import ServingEngine
from repro.serving.replay import (
    ReplayConfig,
    content_digest,
    random_update,
    run_replay,
)
from repro.sharding import ShardedEngine, compute_placement
from repro.sharding.placement import SPINE, shard_of_key


@pytest.fixture
def xmark_pair():
    """Two independent, identical xmark documents (one per engine)."""
    return (generate_xmark(scale=0.02, seed=7).freeze(),
            generate_xmark(scale=0.02, seed=7).freeze())


def workload_for(graph, queries=30, seed=3):
    return list(Workload.generate(graph, num_queries=queries,
                                  max_length=5, seed=seed))


class TestPlacement:
    def test_every_node_is_spine_or_owned(self, xmark_pair):
        graph, _ = xmark_pair
        placement = compute_placement(graph, 4)
        assert len(placement.owner) == graph.num_nodes
        assert all(who == SPINE or 0 <= who < 4
                   for who in placement.owner)
        assert placement.owner[graph.root] == SPINE

    def test_members_partition_non_spine_nodes(self, xmark_pair):
        graph, _ = xmark_pair
        placement = compute_placement(graph, 4)
        seen: dict[int, int] = {}
        spine = {oid for oid, who in enumerate(placement.owner)
                 if who == SPINE}
        for shard in range(4):
            for oid in placement.members(shard):
                if oid in spine:
                    continue  # replicated spine appears in every shard
                assert oid not in seen
                seen[oid] = shard
        assert set(seen) | spine == set(range(graph.num_nodes))

    def test_deterministic_across_rebuilds(self, xmark_pair):
        first, second = xmark_pair
        a = compute_placement(first, 8)
        b = compute_placement(second, 8)
        assert a.owner == b.owner
        assert a.unit_depth == b.unit_depth
        assert a.unit_keys == b.unit_keys

    def test_placement_determinism_property(self):
        # Same construction history => same placement, across many
        # random tree shapes and shard counts.
        for seed in range(8):
            rng = random.Random(seed)
            labels = "abcde"

            def build():
                make = random.Random(seed)
                graph = DataGraph()
                graph.add_node("root")
                for oid in range(1, 60):
                    graph.add_node(labels[make.randrange(len(labels))])
                    graph.add_edge(make.randrange(oid), oid)
                return graph

            shards = rng.randrange(2, 7)
            assert compute_placement(build(), shards).owner \
                == compute_placement(build(), shards).owner

    def test_structural_keys_are_paths_with_ordinals(self, xmark_pair):
        graph, _ = xmark_pair
        placement = compute_placement(graph, 4)
        assert placement.unit_keys
        for key in placement.unit_keys.values():
            head = key.split("/")[0]
            assert "[" in head and head.endswith("]")

    def test_key_hashing_is_stable(self):
        # Pinned values: placement must never depend on the process.
        assert shard_of_key("site[0]/regions[0]", 4) \
            == shard_of_key("site[0]/regions[0]", 4)
        assert 0 <= shard_of_key("anything", 3) < 3

    def test_single_shard_owns_everything_but_spine(self, xmark_pair):
        graph, _ = xmark_pair
        placement = compute_placement(graph, 1)
        assert set(placement.members(0)) == set(range(graph.num_nodes))


class TestShardedAnswers:
    def test_matches_single_engine_statically(self, xmark_pair):
        single_graph, shard_graph = xmark_pair
        single = ServingEngine(single_graph)
        sharded = ShardedEngine(shard_graph, num_shards=4)
        for expr in workload_for(single_graph):
            assert single.query(expr).answers \
                == sharded.query(expr).answers, str(expr)

    def test_matches_oracle_through_update_rounds(self, xmark_pair):
        _, shard_graph = xmark_pair
        sharded = ShardedEngine(shard_graph, num_shards=3)
        rng = random.Random(5)
        queries = workload_for(sharded.graph, queries=15)
        for round_number in range(4):
            for _ in range(2):
                random_update(sharded, rng)
            sharded.refine_pending()
            for expr in queries:
                truth = evaluate_on_data_graph(sharded.graph, expr)
                assert sharded.query(expr).answers == truth, \
                    (round_number, str(expr))

    @pytest.mark.parametrize("num_shards", (4, 8, 16))
    def test_replay_digest_equality_vs_single(self, xmark_pair, num_shards):
        single_graph, shard_graph = xmark_pair
        single = ServingEngine(single_graph)
        sharded = ShardedEngine(shard_graph, num_shards=num_shards)
        queries = workload_for(single_graph)
        config = ReplayConfig(workers=2, passes=2, update_rounds=3,
                              updates_per_round=2, update_seed=11,
                              check=True)
        first = run_replay(single, queries, config)
        second = run_replay(sharded, queries, config)
        assert first.check_failures == 0
        assert second.check_failures == 0
        # Epoch counters legitimately differ (shard refinements run on
        # shard clocks), so compare the answers, not answers_digest.
        assert content_digest(single, queries) \
            == content_digest(sharded, queries)

    def test_crossing_queries_fall_back_and_stay_exact(self, xmark_pair):
        _, shard_graph = xmark_pair
        sharded = ShardedEngine(shard_graph, num_shards=4)
        assert sharded._cross_pairs  # xmark's itemrefs cross units
        source_label, target_label = next(iter(sorted(sharded._cross_pairs)))
        expr = PathExpression.parse(f"{source_label}/{target_label}")
        before = sharded.stats.snapshot()["fallbacks"]
        result = sharded.query(expr)
        assert sharded.stats.snapshot()["fallbacks"] == before + 1
        assert result.degraded
        assert result.answers \
            == evaluate_on_data_graph(sharded.graph, expr)

    def test_descendant_queries_fall_back_when_cross_edges_exist(
            self, xmark_pair):
        _, shard_graph = xmark_pair
        sharded = ShardedEngine(shard_graph, num_shards=4)
        expr = PathExpression.parse("//item//text")
        before = sharded.stats.snapshot()["fallbacks"]
        result = sharded.query(expr)
        assert sharded.stats.snapshot()["fallbacks"] == before + 1
        assert result.answers \
            == evaluate_on_data_graph(sharded.graph, expr)

    def test_serve_batch_preserves_order_and_answers(self, xmark_pair):
        _, shard_graph = xmark_pair
        sharded = ShardedEngine(shard_graph, num_shards=2)
        queries = workload_for(sharded.graph, queries=20)
        results = sharded.serve(queries, workers=3)
        assert [str(r.expr) for r in results] == [str(q) for q in queries]
        for result in results:
            assert result.answers \
                == evaluate_on_data_graph(sharded.graph, result.expr)

    def test_insert_under_spine_places_a_new_unit(self, xmark_pair):
        _, shard_graph = xmark_pair
        sharded = ShardedEngine(shard_graph, num_shards=4)
        root = sharded.graph.root
        assert sharded.placement.owner[root] == SPINE
        new_gids = sharded.insert_subtree(root, ("wing", [("feather", [])]))
        owners = {sharded.placement.owner[gid] for gid in new_gids}
        assert len(owners) == 1
        who = owners.pop()
        assert 0 <= who < 4
        assert new_gids[0] in sharded.placement.unit_keys
        # The new nodes answer through their owning shard.
        assert sharded.query("wing/feather").answers == {new_gids[1]}

    def test_new_global_oids_match_single_engine(self, xmark_pair):
        single_graph, shard_graph = xmark_pair
        single = ServingEngine(single_graph)
        sharded = ShardedEngine(shard_graph, num_shards=3)
        spec = ("extra", [("leaf", []), ("leaf", [])])
        assert single.insert_subtree(2, spec) \
            == sharded.insert_subtree(2, spec)


class TestTornFanout:
    def test_commit_under_a_parked_fanout_is_a_conflict_not_an_error(self):
        """A fan-out that observes a shard's commit before the combiner
        finished mapping it (``to_global`` one short) is a torn read:
        the shared retry loop must count a conflict and answer from the
        next clean epoch, not leak the ``IndexError`` to the caller."""
        graph = generate_xmark(scale=0.01, seed=1).freeze()
        engine = ShardedEngine(graph, num_shards=4)
        expr = PathExpression.parse("//africa/zzznew")
        assert not engine._crosses(expr)
        parent = next(oid for oid in range(graph.num_nodes)
                      if graph.label(oid) == "africa")

        reader_parked = threading.Event()
        shard_committed = threading.Event()
        release_writer = threading.Event()

        first_shard = engine.shards[0].serving
        shard_query = first_shard.query

        def parked_query(*args, **kwargs):
            # First fan-out only: hold the reader inside its clean read
            # window until the owning shard has committed the insert.
            if not reader_parked.is_set():
                reader_parked.set()
                assert shard_committed.wait(timeout=10.0)
            return shard_query(*args, **kwargs)

        first_shard.query = parked_query

        def park_after_commit(shard_insert):
            def insert(*args, **kwargs):
                new_lids = shard_insert(*args, **kwargs)
                # Committed on the shard, not yet in ``to_global``.
                shard_committed.set()
                assert release_writer.wait(timeout=10.0)
                return new_lids
            return insert

        for shard in engine.shards:
            shard.serving.insert_subtree = \
                park_after_commit(shard.serving.insert_subtree)

        new_gids: list[int] = []

        def writer():
            assert reader_parked.wait(timeout=10.0)
            new_gids.extend(engine.insert_subtree(parent, ("zzznew", [])))

        thread = threading.Thread(target=writer)
        clock_read = engine.clock.read
        reads = 0

        def read():
            # The reader's second attempt begins: its first is over, so
            # let the writer finish (the exact path would otherwise wait
            # on the writer's mutex forever).
            nonlocal reads
            reads += 1
            if reads == 2:
                release_writer.set()
                thread.join(timeout=10.0)
            return clock_read()

        engine.clock.read = read
        thread.start()
        try:
            result = engine.query(expr)
        finally:
            release_writer.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()

        assert result.conflicts >= 1
        assert not result.degraded
        assert result.answers == set(new_gids) and new_gids
        with engine.pin() as snap:
            assert snap.epoch == result.epoch == 1
            assert result.answers == snap.oracle(expr)
        assert engine.stats.snapshot()["conflicts"] == result.conflicts


def _served_vs_pinned(engine, expr):
    """One answer with the oracle of the epoch it was served at."""
    with engine.pin() as snap:
        result = engine.query(expr)
        assert result.epoch == snap.epoch
        assert result.answers == snap.oracle(expr), str(expr)
    return result


class TestCombinerMemory:
    """The combiner merges once per distinct tuple of shard answers and
    remembers exact answers for one epoch; neither may outlive a write
    that changes the answer."""

    FANOUT = PathExpression.parse("//item/name")
    CROSSING = PathExpression.parse("//seller/person")

    def test_unchanged_shard_answers_return_the_merged_run_itself(
            self, xmark_pair):
        engine = ShardedEngine(xmark_pair[0], num_shards=4)
        assert not engine._crosses(self.FANOUT)
        first = engine.query(self.FANOUT)
        again = engine.query(self.FANOUT)
        assert not first.cache_hit and again.cache_hit
        assert again.answers is first.answers
        # Every shard was still asked, each time, and several hold a part.
        for shard in engine.shards:
            assert shard.serving.stats.snapshot()["queries"] == 2
        parts, merged = engine._merged[self.FANOUT]
        assert merged is first.answers
        assert sum(1 for part in parts if part) > 1
        assert sum(map(len, parts)) == len(merged) == 84

    def test_remembered_exact_answers_are_hits_of_their_epoch(
            self, xmark_pair):
        engine = ShardedEngine(xmark_pair[0], num_shards=4)
        assert engine._crosses(self.CROSSING)
        first = engine.query(self.CROSSING)
        again = engine.query(self.CROSSING)
        assert first.fallback and first.degraded and not first.cache_hit
        assert again.fallback and again.degraded and again.cache_hit
        assert again.answers is first.answers
        assert again.cost.total == 1
        stats = engine.stats.snapshot()
        assert stats["fallbacks"] == stats["degraded"] == 2
        assert stats["cache_hits"] == stats["misses"] == 1

    def test_cache_off_remembers_nothing_on_either_path(self, xmark_pair):
        engine = ShardedEngine(xmark_pair[0], num_shards=4, cache=False)
        for expr in (self.FANOUT, self.CROSSING):
            first = engine.query(expr)
            again = engine.query(expr)
            assert not first.cache_hit and not again.cache_hit
            assert again.cost.total > 1
            assert again.answers is not first.answers
            assert again.answers == first.answers
        assert engine._merged == {} and engine._exact_answers == {}

    def test_updates_that_change_both_answers_are_served_fresh(
            self, xmark_pair):
        graph = xmark_pair[0]
        engine = ShardedEngine(graph, num_shards=4)
        before = {}
        for expr in (self.FANOUT, self.CROSSING):
            _served_vs_pinned(engine, expr)
            before[expr] = _served_vs_pinned(engine, expr)
            assert before[expr].cache_hit

        africa = next(oid for oid in range(graph.num_nodes)
                      if graph.label(oid) == "africa")
        new_gids = engine.insert_subtree(africa, ("item", [("name", [])]))
        after_insert = _served_vs_pinned(engine, self.FANOUT)
        assert after_insert.answers is not before[self.FANOUT].answers
        assert after_insert.answers == before[self.FANOUT].answers | \
            {new_gids[1]}
        # The insert left //seller/person alone, but it is a new epoch.
        crossing_mid = _served_vs_pinned(engine, self.CROSSING)
        assert not crossing_mid.cache_hit
        assert crossing_mid.answers == before[self.CROSSING].answers

        seller = next(oid for oid in range(graph.num_nodes)
                      if graph.label(oid) == "seller")
        person = next(oid for oid in range(graph.num_nodes)
                      if graph.label(oid) == "person"
                      and oid not in before[self.CROSSING].answers)
        engine.add_reference(seller, person)
        after_ref = _served_vs_pinned(engine, self.CROSSING)
        assert not after_ref.cache_hit
        assert after_ref.answers is not before[self.CROSSING].answers
        assert after_ref.answers == before[self.CROSSING].answers | {person}
        _served_vs_pinned(engine, self.FANOUT)
        # The pre-update runs were not changed under their holders.
        assert new_gids[1] not in before[self.FANOUT].answers
        assert person not in before[self.CROSSING].answers

    def test_a_write_between_two_shard_calls_poisons_nothing(self):
        """Shard 0 answers, then inserts into shard 0 *and* shard 1
        commit, then shards 1-3 answer: the tuple (old, new, ...) merges
        to a run that is right at no epoch.  The attempt is discarded,
        and the entry it left is replaced, never served."""
        graph = generate_xmark(scale=0.01, seed=1).freeze()
        engine = ShardedEngine(graph, num_shards=4)
        expr = self.FANOUT
        stale = engine.query(expr)
        owner = engine.placement.owner
        items = [next(oid for oid in range(graph.num_nodes)
                      if graph.label(oid) == "item" and owner[oid] == who)
                 for who in (0, 1)]
        second_shard = engine.shards[1].serving
        shard_query = second_shard.query
        new_gids: list[int] = []
        torn: list = []

        def write_then_query(*args, **kwargs):
            # Shard 0 has answered this fan-out already.
            if not new_gids:
                for item in items:
                    new_gids.extend(engine.insert_subtree(item,
                                                          ("name", [])))
            elif not torn:
                torn.append(engine._merged[expr][1])
            return shard_query(*args, **kwargs)

        second_shard.query = write_then_query
        try:
            result = engine.query(expr)
        finally:
            del second_shard.query
        assert len(new_gids) == 2 and result.conflicts >= 1
        assert result.epoch == 2
        assert result.answers == stale.answers | set(new_gids)
        # What the torn attempt merged holds one insert but not the other.
        assert len(set(new_gids) & torn[0].to_set()) == 1
        for _ in range(2):
            later = _served_vs_pinned(engine, expr)
            assert later.answers is result.answers
        assert engine._merged[expr][1] is result.answers

    def test_eviction_under_concurrent_readers_never_raises(
            self, xmark_pair):
        graph = xmark_pair[0]
        engine = ShardedEngine(graph, num_shards=4)
        engine._cache_size = 4
        exprs = [expr for expr in sorted(set(workload_for(graph, 60)),
                                         key=str)
                 if not engine._crosses(expr)]
        assert len(exprs) > 3 * engine._cache_size
        truth = {expr: evaluate_on_data_graph(graph, expr)
                 for expr in exprs}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = engine.serve(exprs * 6, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 6 * len(exprs)
        for result in results:
            assert result.answers == truth[result.expr]
        assert len(engine._merged) == engine._cache_size


class TestFuzzedGraphs:
    def test_dag_and_back_edges_stay_exact(self):
        # Random non-tree shapes: regular DAG edges and back references
        # force the conservative cross-edge routing to earn its keep.
        from repro.verify.fuzz import GRAPH_PROFILES, random_data_graph
        from repro.verify.oracle import check_shard_equivalence

        profile = next(p for p in GRAPH_PROFILES
                       if p.dag_edge_ratio or p.back_edge_ratio)
        graph = random_data_graph(profile, seed=77).freeze()
        stream = workload_for(graph, queries=18, seed=9)
        found = check_shard_equivalence(graph, stream, num_shards=3,
                                        profile=profile.name, graph_seed=77)
        assert found == []
