"""Tests for the engine's refinement-aware result cache and the
``IndexGraph.cache_token`` validity tokens it keys on."""

import pytest

from repro.core.engine import AdaptiveIndexEngine
from repro.indexes.aindex import AkIndex
from repro.indexes.mindex import MkIndex
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import PathExpression
from repro.queries.workload import Workload
from repro.verify.fuzz import GRAPH_PROFILES, random_data_graph


class TestEngineCache:
    def test_repeat_query_hits_cache(self, fig1):
        engine = AdaptiveIndexEngine(fig1, index_factory=lambda g: AkIndex(g, 2))
        expr = "//people/person"
        first = engine.execute(expr)
        second = engine.execute(expr)
        assert engine.stats.cache_hits == 1
        assert second.answers == first.answers
        assert second.validated == first.validated
        assert second.cost.total == 1  # O(answer) service

    def test_cached_answers_are_defensive_copies(self, fig1):
        engine = AdaptiveIndexEngine(fig1, index_factory=lambda g: AkIndex(g, 2))
        expr = "//people/person"
        truth = evaluate_on_data_graph(fig1, PathExpression.parse(expr))
        engine.execute(expr).answers.add(999_999)
        assert engine.execute(expr).answers == truth

    def test_refinement_invalidates(self, fig1):
        engine = AdaptiveIndexEngine(fig1)
        expr = "//site/people/person"
        first = engine.execute(expr)          # validated; refined afterwards
        assert first.validated
        second = engine.execute(expr)         # must re-run, not serve stale
        assert engine.stats.cache_hits == 0
        assert not second.validated
        third = engine.execute(expr)          # now stable -> cache hit
        assert engine.stats.cache_hits == 1
        assert not third.validated
        assert third.answers == second.answers

    def test_cache_can_be_disabled(self, fig1):
        engine = AdaptiveIndexEngine(fig1, cache=False)
        engine.execute("//person")
        engine.execute("//person")
        assert engine.stats.cache_hits == 0

    def test_unrelated_refinement_keeps_entry_for_static_index(self, fig1):
        """Per-label tokens: refining label set A must not evict results
        whose expression never mentions A."""
        engine = AdaptiveIndexEngine(fig1, index_factory=MkIndex)
        engine.execute("//people/person")     # refined (labels people, person)
        engine.execute("//people/person")     # re-run post-refinement, stored
        hits_before = engine.stats.cache_hits
        engine.execute("//regions/africa")    # refines different labels
        engine.execute("//regions/africa")
        engine.execute("//people/person")     # still served from cache
        assert engine.stats.cache_hits >= hits_before + 1

    def test_index_without_fingerprint_never_cached(self, fig1):
        class Plain:
            def __init__(self, graph):
                pass

            def query(self, expr):
                from repro.cost.counters import CostCounter
                from repro.indexes.base import QueryResult
                return QueryResult(answers=set(), target_nodes=[],
                                   cost=CostCounter(index_visits=5),
                                   validated=False)

        engine = AdaptiveIndexEngine(fig1, index_factory=Plain)
        engine.execute("//a/b")
        engine.execute("//a/b")
        assert engine.stats.cache_hits == 0
        assert engine.stats.cost.index_visits == 10

    def test_eviction_bounds_memory(self, fig1):
        engine = AdaptiveIndexEngine(fig1,
                                     index_factory=lambda g: AkIndex(g, 2),
                                     cache_size=2)
        for text in ("//a", "//b", "//c", "//d"):
            engine.execute(text)
        assert len(engine._cache) == 2

    def test_cache_size_validated(self, fig1):
        with pytest.raises(ValueError):
            AdaptiveIndexEngine(fig1, cache_size=0)

    @pytest.mark.parametrize("profile", GRAPH_PROFILES[:3],
                             ids=lambda p: p.name)
    def test_cached_equals_uncached_over_workload(self, profile):
        """Direct spot check of the equivalence property (the oracle's
        cache mode fuzzes this far harder)."""
        graph = random_data_graph(profile, seed=7)
        workload = list(Workload.generate(graph, num_queries=30,
                                          max_length=5, seed=7))
        workload = workload + workload  # force repeats
        cached = AdaptiveIndexEngine(graph, cache=True)
        plain = AdaptiveIndexEngine(graph, cache=False)
        for expr in workload:
            a = cached.execute(expr)
            b = plain.execute(expr)
            assert a.answers == b.answers, expr
            assert a.validated == b.validated, expr
        assert cached.stats.cache_hits > 0
        assert cached.stats.cost.total < plain.stats.cost.total


class TestIndexGraphCache:
    def test_split_of_mentioned_label_invalidates(self, fig1):
        graph = AkIndex(fig1, 0).index
        expr = PathExpression.parse("//people/person")
        token_before = graph.cache_token(expr)
        person_nid = next(iter(graph.nodes_with_label("person")))
        node = graph.nodes[person_nid]
        graph.replace_node(person_nid, [(set(node.extent), node.k + 1)])
        assert graph.cache_token(expr) != token_before

    def test_split_of_unmentioned_label_preserves_token(self, fig1):
        graph = AkIndex(fig1, 0).index
        expr = PathExpression.parse("//people/person")
        token_before = graph.cache_token(expr)
        item_nid = next(iter(graph.nodes_with_label("item")))
        node = graph.nodes[item_nid]
        graph.replace_node(item_nid, [(set(node.extent), node.k + 1)])
        assert graph.cache_token(expr) == token_before

    def test_rooted_token_pins_root_label(self, fig1):
        graph = AkIndex(fig1, 0).index
        expr = PathExpression.parse("/site/people")
        token_before = graph.cache_token(expr)
        root_nid = graph.node_of[fig1.root]
        node = graph.nodes[root_nid]
        graph.replace_node(root_nid, [(set(node.extent), node.k + 1)])
        assert graph.cache_token(expr) != token_before

    def test_wildcard_token_pins_all_mutations(self, fig1):
        graph = AkIndex(fig1, 0).index
        expr = PathExpression.parse("//regions/*/item")
        token_before = graph.cache_token(expr)
        # Touch a label the expression never names explicitly.
        person_nid = next(iter(graph.nodes_with_label("person")))
        node = graph.nodes[person_nid]
        graph.replace_node(person_nid, [(set(node.extent), node.k + 1)])
        assert graph.cache_token(expr) != token_before

    def test_maintenance_bumps_epoch(self, fig1):
        graph = AkIndex(fig1, 2).index
        expr = PathExpression.parse("//people/person")
        epoch_before = graph.epoch
        token_before = graph.cache_token(expr)
        oid = fig1.add_node("person")
        graph.insert_data_node(oid)
        fig1.add_edge(3, oid)
        graph.register_data_edge(3, oid)
        assert graph.epoch > epoch_before
        assert graph.cache_token(expr) != token_before
