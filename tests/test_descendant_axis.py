"""Tests for internal descendant axes (``//a//b``)."""

import pytest

from repro.indexes.aindex import AkIndex
from repro.indexes.fbindex import FBIndex
from repro.indexes.mindex import MkIndex
from repro.indexes.mstarindex import MStarIndex
from repro.indexes.oneindex import OneIndex
from repro.queries.evaluator import (
    evaluate_on_data_graph,
    find_instance,
    validate_candidate,
)
from repro.queries.pathexpr import PathExpression


class TestParsing:
    def test_internal_descendant(self):
        expr = PathExpression.parse("//a//b/c")
        assert expr.labels == ("a", "b", "c")
        assert expr.descendant_steps == frozenset({1})

    def test_multiple_descendants(self):
        expr = PathExpression.parse("/a//b//c")
        assert expr.rooted
        assert expr.descendant_steps == frozenset({1, 2})

    def test_plain_paths_unchanged(self):
        expr = PathExpression.parse("//a/b")
        assert not expr.has_descendant_steps
        assert expr == PathExpression.descendant("a", "b")

    def test_str_roundtrip(self):
        for text in ("//a//b", "/a//b/c", "//a/b//c//d"):
            assert str(PathExpression.parse(text)) == text

    def test_trailing_descendant_rejected(self):
        with pytest.raises(ValueError):
            PathExpression.parse("//a//")

    def test_triple_slash_rejected(self):
        with pytest.raises(ValueError):
            PathExpression.parse("//a///b")

    def test_out_of_range_step_rejected(self):
        with pytest.raises(ValueError):
            PathExpression(("a",), descendant_steps=frozenset({1}))
        with pytest.raises(ValueError):
            PathExpression(("a", "b"), descendant_steps=frozenset({0}))

    def test_prefix_and_subpath_carry_steps(self):
        expr = PathExpression.parse("//a//b/c//d")
        assert expr.prefix(2).descendant_steps == frozenset({1})
        assert expr.subpath(1, 3).descendant_steps == frozenset({2})


class TestDirectEvaluation:
    def test_descendant_step_on_paper_graph(self, fig1):
        expr = PathExpression.parse("//site//person")
        assert evaluate_on_data_graph(fig1, expr) == {7, 8, 9}

    def test_skipping_levels(self, fig1):
        expr = PathExpression.parse("//regions//item")
        # items under africa/asia AND (via reference edges from 15/20) --
        # 15 references 12, 20 references 14, both already counted; items
        # 15 and 20 hang under auctions, not regions.
        assert evaluate_on_data_graph(fig1, expr) == {12, 13, 14}

    def test_child_vs_descendant_differ(self, fig1):
        child = PathExpression.parse("//site/person")
        descendant = PathExpression.parse("//site//person")
        assert evaluate_on_data_graph(fig1, child) == set()
        assert evaluate_on_data_graph(fig1, descendant) == {7, 8, 9}

    def test_rooted_descendant(self, fig1):
        expr = PathExpression.parse("/site//item")
        assert evaluate_on_data_graph(fig1, expr) == {12, 13, 14, 15, 20}

    def test_descendant_through_cycles_terminates(self):
        from repro.graph.builder import graph_from_edges
        graph = graph_from_edges(["r", "a", "b"], [(0, 1), (1, 2)],
                                 references=[(2, 1)])
        expr = PathExpression.parse("//r//b")
        assert evaluate_on_data_graph(graph, expr) == {2}

    def test_cycle_member_is_its_own_descendant(self):
        from repro.graph.builder import graph_from_edges
        graph = graph_from_edges(["r", "a", "b"], [(0, 1), (1, 2)],
                                 references=[(2, 1)])
        # a -> b -> a: both cycle members are strict descendants of
        # themselves, the root is not.
        assert evaluate_on_data_graph(graph,
                                      PathExpression.parse("//a//a")) == {1}
        assert evaluate_on_data_graph(graph,
                                      PathExpression.parse("//b//b")) == {2}
        assert evaluate_on_data_graph(graph,
                                      PathExpression.parse("//r//r")) == set()

    def test_validation_agrees_with_evaluation(self, fig1):
        for text in ("//site//person", "//regions//item", "/site//name",
                     "//auctions//person", "//people//last"):
            expr = PathExpression.parse(text)
            truth = evaluate_on_data_graph(fig1, expr)
            for oid in fig1.nodes():
                assert validate_candidate(fig1, expr, oid) == (oid in truth), \
                    f"{text} disagrees at {oid}"

    def test_find_instance_rejects_descendant(self, fig1):
        with pytest.raises(ValueError):
            find_instance(fig1, PathExpression.parse("//site//person"), 7)


class TestIndexAssisted:
    QUERIES = ("//site//person", "//regions//item", "/site//name",
               "//auctions//seller/person", "//people//last")

    def test_ak_exact_via_validation(self, fig1):
        for k in (0, 2):
            index = AkIndex(fig1, k)
            for text in self.QUERIES:
                expr = PathExpression.parse(text)
                result = index.query(expr)
                assert result.answers == evaluate_on_data_graph(fig1, expr)
                assert result.validated or not result.answers

    def test_one_index_and_fb_precise(self, fig1):
        """Full bisimulation certifies descendant queries: extents share
        incoming label-path *sets*, and a descendant match is a property
        of that set."""
        for index in (OneIndex(fig1), FBIndex(fig1)):
            for text in self.QUERIES:
                expr = PathExpression.parse(text)
                result = index.query(expr)
                assert result.answers == evaluate_on_data_graph(fig1, expr)
                assert result.cost.data_visits == 0

    def test_mk_and_mstar_exact(self, small_xmark):
        queries = [PathExpression.parse(text) for text in
                   ("//site//person", "//people//name", "//open_auction//date",
                    "//regions//name", "/site//seller")]
        mk = MkIndex(small_xmark)
        mstar = MStarIndex(small_xmark)
        mstar.extend_components(3)
        for expr in queries:
            truth = evaluate_on_data_graph(small_xmark, expr)
            assert mk.query(expr).answers == truth
            assert mstar.query(expr).answers == truth

    def test_mstar_all_strategies_route_safely(self, small_xmark):
        index = MStarIndex(small_xmark)
        index.extend_components(2)
        expr = PathExpression.parse("//site//person")
        truth = evaluate_on_data_graph(small_xmark, expr)
        for strategy in ("topdown", "naive", "auto"):
            assert index.query(expr, strategy=strategy).answers == truth

    def test_refine_rejects_descendant_fups(self, fig1):
        expr = PathExpression.parse("//site//person")
        for index in (MkIndex(fig1), MStarIndex(fig1)):
            with pytest.raises(ValueError, match="child axis"):
                index.refine(expr)

    def test_engine_serves_but_never_refines(self, fig1):
        from repro.core.engine import AdaptiveIndexEngine
        engine = AdaptiveIndexEngine(fig1)
        result = engine.execute("//site//person")
        assert result.answers == {7, 8, 9}
        assert engine.stats.refinements == 0

    def test_dataguide_exact_on_descendant_queries(self, fig1):
        from repro.indexes.dataguide import DataGuide
        guide = DataGuide(fig1)
        for text in self.QUERIES + ("//site//name//last",):
            expr = PathExpression.parse(text)
            result = guide.query(expr)
            assert result.answers == evaluate_on_data_graph(fig1, expr), text
            assert result.cost.data_visits == 0

    def test_disk_index_exact_on_descendant_queries(self, small_xmark,
                                                    tmp_path):
        from repro.queries.workload import Workload
        from repro.storage.diskindex import DiskMStarIndex

        workload = Workload.generate(small_xmark, num_queries=30,
                                     max_length=5, seed=30)
        index = MStarIndex(small_xmark)
        for expr in workload:
            index.refine(expr, index.query(expr))
        path = str(tmp_path / "i.seg")
        with DiskMStarIndex.build(index, path) as disk:
            for text in ("//site//person", "//people//name",
                         "/site//seller", "//open_auction//date"):
                expr = PathExpression.parse(text)
                assert disk.query(expr).answers == \
                    evaluate_on_data_graph(small_xmark, expr), text

    def test_ud_outgoing_rejects_descendant(self, fig1):
        from repro.indexes.udindex import UDIndex
        index = UDIndex(fig1, 1, 1)
        with pytest.raises(ValueError, match="child"):
            index.query_outgoing(PathExpression.parse("//auction//person"))
