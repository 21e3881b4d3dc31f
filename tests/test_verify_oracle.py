"""Tests for the differential oracle + fuzz harness (repro.verify)."""

import pytest

from repro.core.extents import Extent
from repro.cost.counters import CostCounter
from repro.graph.builder import graph_from_edges
from repro.indexes.aindex import AkIndex
from repro.indexes.base import QueryResult
from repro.indexes.mstarindex import MStarIndex
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import PathExpression
from repro.verify.fuzz import (
    GRAPH_PROFILES,
    profile_named,
    random_data_graph,
    random_fup_stream,
    random_workload,
)
from repro.verify.invariants import (
    check_cost_counter,
    check_extent_path_consistency,
    check_index_partition,
    incoming_label_paths,
)
from repro.verify.oracle import (
    FAMILY_NAMES,
    Discrepancy,
    check_cache_equivalence,
    check_engine_sequence,
    check_query,
    check_shard_equivalence,
    check_static_suite,
    check_stored_equivalence,
    check_structure,
    refinable_fups,
    resolve_families,
)
from repro.verify.runner import run_verification


def graphs_equal(first, second):
    return (first.labels == second.labels
            and all(first.children(oid) == second.children(oid)
                    for oid in first.nodes()))


class TestFuzz:
    def test_graphs_deterministic_per_seed(self):
        for profile in GRAPH_PROFILES:
            once = random_data_graph(profile, 17)
            again = random_data_graph(profile, 17)
            assert graphs_equal(once, again), profile.name

    def test_different_seeds_differ(self):
        profile = profile_named("dag")
        assert not graphs_equal(random_data_graph(profile, 1),
                                random_data_graph(profile, 2))

    def test_all_profiles_usable(self):
        for profile in GRAPH_PROFILES:
            graph = random_data_graph(profile, 3)
            assert graph.num_nodes >= 10, profile.name
            workload = random_workload(graph, 10, seed=3)
            assert len(workload) == 10
            for expr in workload:
                evaluate_on_data_graph(graph, expr)  # must not raise

    def test_cyclic_profile_has_back_edges(self):
        graph = random_data_graph(profile_named("cyclic"), 0)
        reachable_from_self = [
            oid for oid in graph.nodes()
            if oid in evaluate_on_data_graph(
                graph, PathExpression(
                    (graph.labels[oid], graph.labels[oid]),
                    descendant_steps=frozenset({1})))]
        # Not every seed closes a cycle through same-labelled nodes, but
        # the structural back edges must exist.
        parents = {child: graph.parent_lists[child]
                   for child in graph.nodes()}
        assert any(any(parent > child for parent in parent_list)
                   for child, parent_list in parents.items()) \
            or reachable_from_self

    def test_workload_deterministic(self):
        graph = random_data_graph(profile_named("tree"), 9)
        assert random_workload(graph, 12, seed=4) == \
            random_workload(graph, 12, seed=4)
        assert random_workload(graph, 12, seed=4) != \
            random_workload(graph, 12, seed=5)

    def test_workload_mixes_features(self):
        graph = random_data_graph(profile_named("dag"), 21)
        workload = random_workload(graph, 120, seed=6)
        assert any(expr.rooted for expr in workload)
        assert any(expr.has_wildcard for expr in workload)
        assert any(expr.has_descendant_steps for expr in workload)
        assert any(not evaluate_on_data_graph(graph, expr)
                   for expr in workload)
        assert any(evaluate_on_data_graph(graph, expr)
                   for expr in workload)

    def test_fup_stream_repeats_queries(self):
        graph = random_data_graph(profile_named("tree"), 2)
        stream = random_fup_stream(graph, 30, seed=8)
        assert len(stream) == 30
        counts = {}
        for expr in stream:
            counts[expr] = counts.get(expr, 0) + 1
        assert max(counts.values()) >= 3  # phases repeat their FUPs

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown graph profile"):
            profile_named("pentagon")


class TestInvariantChecks:
    def test_incoming_paths_include_own_label(self, simple_tree):
        paths = incoming_label_paths(simple_tree, 0, 0)
        assert paths == {(simple_tree.labels[0],)}

    def test_overstated_k_is_flagged(self):
        """Plant the exact bug class the oracle caught in REFINENODE: an
        extent whose claimed k exceeds its real path consistency."""
        graph = graph_from_edges(["r", "a", "b", "c", "c"],
                                 [(0, 1), (0, 2), (1, 3), (2, 4)])
        index = AkIndex(graph, 0).index
        assert check_extent_path_consistency(graph, index) == []
        c_node = next(node for node in index.nodes.values()
                      if node.label == "c")
        assert len(c_node.extent) == 2
        c_node.k = 2  # the two c's have different parents: a lie
        violations = check_extent_path_consistency(graph, index)
        assert violations and "mixes oids" in violations[0]

    def test_consistent_claims_pass(self, fig1):
        for k in (0, 1, 3):
            index = AkIndex(fig1, k).index
            assert check_extent_path_consistency(fig1, index) == []

    def test_broken_partition_is_flagged(self, fig1):
        index = AkIndex(fig1, 1).index
        assert check_index_partition(index) == []
        node = next(node for node in index.nodes.values()
                    if len(node.extent) > 1)
        # Extents are immutable arrays now; corrupt by reassignment.
        node.extent = Extent.from_iterable(list(node.extent)[1:])
        assert check_index_partition(index)

    def test_negative_cost_counter_flagged(self):
        counter = CostCounter()
        counter.data_visits = -3  # simulate a buggy caller
        violations = check_cost_counter(counter)
        assert violations and "negative" in violations[0]
        assert check_cost_counter(CostCounter(2, 5)) == []


class _LossyIndex:
    """Fake index that drops one answer and invents another."""

    def __init__(self, graph):
        self.graph = graph

    def query(self, expr):
        truth = evaluate_on_data_graph(self.graph, expr)
        answers = set(truth)
        if answers:
            answers.discard(sorted(answers)[0])
        answers.add(self.graph.root)
        return QueryResult(answers=answers, target_nodes=[],
                           cost=CostCounter())


class TestOracle:
    def test_family_resolution(self):
        assert [spec.name for spec in resolve_families(None)] == \
            list(FAMILY_NAMES)
        assert [spec.name for spec in resolve_families(["M(k)", "1"])] == \
            ["M(k)", "1"]
        with pytest.raises(ValueError, match="unknown index family"):
            resolve_families(["M(k)", "bogus"])

    def test_refinable_fups_filter(self):
        queries = [PathExpression.parse(text) for text in
                   ("//a/b", "//a/*/b", "//a//b", "/a", "//a/b", "//c")]
        fups = refinable_fups(queries)
        assert fups == [PathExpression.parse("//a/b"),
                        PathExpression.parse("/a"),
                        PathExpression.parse("//c")]
        assert refinable_fups(queries, limit=2) == fups[:2]

    def test_check_query_flags_lossy_index(self, fig1):
        expr = PathExpression.parse("//people/person")
        found = check_query(fig1, "lossy", _LossyIndex(fig1), expr,
                            profile="tree", graph_seed=7)
        kinds = [discrepancy.kind for discrepancy in found]
        assert "answers" in kinds
        answer = next(d for d in found if d.kind == "answers")
        assert "false positives" in answer.detail
        assert "false negatives" in answer.detail

    def test_discrepancy_repro_has_replay_command(self):
        discrepancy = Discrepancy(kind="answers", family="M(k)",
                                  detail="boom", query="//a/b",
                                  profile="cyclic", graph_seed=42)
        line = discrepancy.repro()
        assert "repro verify --profile cyclic --graph-seed 42" in line
        assert "query=//a/b" in line
        assert "graph-seed=42" in line

    def test_static_suite_clean_on_fig1(self, fig1):
        queries = [PathExpression.parse(text) for text in
                   ("//people/person", "/site/regions", "//item/name",
                    "//seller/person", "//*/person", "//site//name",
                    "//zz-missing")]
        assert check_static_suite(fig1, queries, k=2) == []

    def test_static_suite_clean_on_fuzzed_graphs(self):
        for name in ("dag", "cyclic"):
            graph = random_data_graph(profile_named(name), 13)
            queries = random_workload(graph, 10, seed=13)
            assert check_static_suite(graph, queries, k=2) == [], name

    def test_structure_check_flags_sabotaged_index(self, fig1):
        index = MStarIndex(fig1)
        index.refine(PathExpression.parse("//people/person"))
        assert check_structure(fig1, "M*(k)", index) == []
        component = index.components[-1]
        victim = next(node for node in component.nodes.values()
                      if len(node.extent) > 1)
        victim.k += 4  # overstate local similarity
        found = check_structure(fig1, "M*(k)", index)
        assert found
        assert all(d.kind == "invariant" for d in found)


class TestEngineSequence:
    def test_clean_run(self, fig1):
        stream = [PathExpression.parse(text) for text in
                  ("//people/person", "//people/person", "//item/name",
                   "//seller/person", "//regions/*/item", "//site//person")]
        assert check_engine_sequence(fig1, stream, profile="tree",
                                     graph_seed=1) == []

    def test_detects_sabotaged_engine_index(self, fig1):
        stream = [PathExpression.parse("//people/person")]
        found = check_engine_sequence(fig1, stream,
                                      index_factory=_LossyIndex)
        assert found
        assert found[0].kind == "answers"
        assert found[0].step == 0


class _StaleCacheIndex:
    """Sabotage stub: the fingerprint never changes even though
    refinement changes the answers — the exact lie the cache-equivalence
    oracle exists to catch."""

    def __init__(self, graph):
        self.graph = graph
        self.refined_exprs = set()

    def query(self, expr):
        refined = expr in self.refined_exprs
        return QueryResult(answers={0} if refined else {0, 1},
                           target_nodes=[],
                           cost=CostCounter(index_visits=1),
                           validated=not refined)

    def refine(self, expr, result, counter=None):
        self.refined_exprs.add(expr)

    def cache_fingerprint(self, expr):
        return (0,)


class TestCacheEquivalence:
    def test_clean_on_fig1(self, fig1):
        stream = [PathExpression.parse(text) for text in
                  ("//people/person", "//people/person", "//item/name",
                   "//people/person", "//seller/person", "//item/name")]
        assert check_cache_equivalence(fig1, stream) == []

    def test_detects_stale_fingerprint(self, fig1):
        expr = PathExpression.parse("//people/person")
        found = check_cache_equivalence(fig1, [expr, expr],
                                        index_factory=_StaleCacheIndex)
        assert found
        kinds = {d.kind for d in found}
        assert kinds == {"cache"}
        assert any("answers diverge" in d.detail for d in found)
        assert any("validated flag" in d.detail for d in found)

    def test_fuzzed_refinement_sequences(self):
        """Property: over fuzzed FUP streams (repeats force refinement
        mid-stream), cache-on and cache-off engines are observationally
        identical for every adaptive family."""
        from repro.indexes.dindex import DkIndex
        from repro.indexes.mindex import MkIndex

        for profile, seed, factory in [
            (GRAPH_PROFILES[0], 11, MStarIndex),
            (GRAPH_PROFILES[1], 12, MkIndex),
            (GRAPH_PROFILES[2], 13, DkIndex),
            (GRAPH_PROFILES[3], 14, MStarIndex),
        ]:
            graph = random_data_graph(profile, seed)
            stream = random_fup_stream(graph, 30, seed)
            found = check_cache_equivalence(graph, stream,
                                            index_factory=factory,
                                            profile=profile.name,
                                            graph_seed=seed)
            assert found == [], (profile.name, seed, factory.__name__)

    def test_windowed_extractor_also_equivalent(self, fig1):
        """The refresh-gate path (windowed extractor, drifting stream)
        must behave identically with the cache on."""
        from repro.core.fup import FupExtractor

        stream = [PathExpression.parse(text) for text in
                  ("//people/person", "//people/person", "//item/name",
                   "//item/name", "//people/person", "//seller/person",
                   "//seller/person", "//people/person")]
        assert check_cache_equivalence(
            fig1, stream,
            extractor_factory=lambda: FupExtractor(threshold=2,
                                                   window=3)) == []


class TestStoredEquivalence:
    def test_clean_on_fuzzed_graphs(self):
        for profile, seed in [(GRAPH_PROFILES[0], 21), (GRAPH_PROFILES[2], 22),
                              (GRAPH_PROFILES[3], 23)]:
            graph = random_data_graph(profile, seed).freeze()
            stream = random_fup_stream(graph, 20, seed)
            assert check_stored_equivalence(
                graph, stream, profile=profile.name, graph_seed=seed) == []

    def test_detects_a_producer_that_drops_edges(self, fig1, monkeypatch):
        """A spill builder that loses one child edge per node of I1 still
        writes a well-formed file; only the answers give it away."""
        from repro.storage import spill

        real = spill.write_index_nodes

        def lossy(writer, graph, rows):
            real(writer, graph, (
                (component, dense, label, k, extent,
                 children[:-1] if component == 1 else children, subnodes)
                for component, dense, label, k, extent, children, subnodes
                in rows))

        monkeypatch.setattr(spill, "write_index_nodes", lossy)
        stream = [PathExpression.parse(text) for text in
                  ("//people/person", "//item/name", "//seller/person")]
        found = check_stored_equivalence(fig1, stream, graph_seed=5)
        assert found
        assert {d.kind for d in found} <= {"stored", "error"}
        assert {d.family for d in found} == {"stored[spill]"}


class TestShardEquivalence:
    """The shard axis re-asks its window after every update, so a
    combiner that keeps what it remembered across a write is caught."""

    @staticmethod
    def _check(profile_name, seed):
        profile = profile_named(profile_name)
        graph = random_data_graph(profile, seed).freeze()
        stream = random_fup_stream(graph, 20, seed)
        return check_shard_equivalence(graph, stream, num_shards=3,
                                       profile=profile.name,
                                       graph_seed=seed)

    def test_clean_on_the_seeds_the_sabotage_tests_use(self):
        assert self._check("tree", 24) == []
        assert self._check("skewed", 20) == []

    def test_detects_a_merge_map_kept_across_a_write(self, monkeypatch):
        from repro.sharding import ShardedEngine

        real = ShardedEngine._merge

        def sticky(self, expr, parts):
            entry = self._merged.get(expr)
            return entry[1] if entry is not None else real(self, expr, parts)

        monkeypatch.setattr(ShardedEngine, "_merge", sticky)
        found = self._check("tree", 24)
        assert found
        assert {d.kind for d in found} == {"shard"}

    def test_detects_exact_answers_kept_across_a_write(self, monkeypatch):
        from repro.serving.engine import SnapshotReader

        real = SnapshotReader._exact

        def sticky(self, expr, attempts, conflicts, fallback=False):
            self._exact_epoch = self.clock.epoch  # never dropped
            return real(self, expr, attempts, conflicts, fallback)

        monkeypatch.setattr(SnapshotReader, "_exact", sticky)
        found = self._check("skewed", 20)
        assert found
        assert {d.kind for d in found} == {"shard"}


class TestRunner:
    def test_small_campaign_is_clean_and_counts(self):
        report = run_verification(seed=0, rounds=2, queries_per_round=8,
                                  engine_queries=10)
        assert report.ok
        assert report.rounds == 2
        assert report.graphs_checked == 2
        assert report.queries_checked == 16
        assert report.engine_steps > 0
        assert "verify: OK" in report.summary()

    def test_replay_mode_single_round(self):
        report = run_verification(profile="cyclic", graph_seed=33,
                                  queries_per_round=8, engine_queries=10)
        assert report.rounds == 1
        assert report.ok

    def test_campaigns_deterministic(self):
        first = run_verification(seed=5, rounds=1, queries_per_round=6,
                                 engine_queries=8)
        second = run_verification(seed=5, rounds=1, queries_per_round=6,
                                  engine_queries=8)
        assert first.queries_checked == second.queries_checked
        assert first.discrepancies == second.discrepancies == []
