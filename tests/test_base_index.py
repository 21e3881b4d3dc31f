"""Tests for the index-graph core (repro.indexes.base)."""

import pytest

from repro.cost.counters import CostCounter
from repro.indexes.base import IndexGraph
from repro.indexes.partition import label_blocks
from repro.queries.pathexpr import PathExpression


def a0_index(graph):
    return IndexGraph.from_blocks(graph, label_blocks(graph), k=0)


class TestConstruction:
    def test_from_blocks_partitions(self, simple_tree):
        index = a0_index(simple_tree)
        index.check_partition()
        index.check_edges()
        assert index.num_nodes == 4  # r, a, b, c

    def test_from_extents(self, simple_tree):
        index = IndexGraph.from_extents(
            simple_tree,
            [({0}, 0), ({1, 2}, 0), ({3}, 0), ({4, 5}, 1), ({6}, 1)])
        index.check_partition()
        index.check_edges()
        assert index.num_nodes == 5

    def test_mixed_label_extent_rejected(self, simple_tree):
        with pytest.raises(ValueError, match="mixes labels"):
            IndexGraph.from_extents(simple_tree, [({0, 1}, 0), ({2, 3}, 0),
                                                  ({4, 5, 6}, 0)])

    def test_empty_extent_rejected(self, simple_tree):
        with pytest.raises(ValueError, match="non-empty"):
            IndexGraph.from_extents(simple_tree, [(set(), 0)])

    def test_incomplete_cover_rejected(self, simple_tree):
        with pytest.raises(ValueError, match="not covered"):
            IndexGraph.from_extents(simple_tree, [({0}, 0)])

    def test_edges_mirror_data_edges(self, fig1):
        index = a0_index(fig1)
        # regions index node -> africa/asia index nodes.
        regions = index.node_containing(2)
        africa = index.node_containing(5)
        assert africa.nid in index.children_of(regions.nid)
        assert regions.nid in index.parents_of(africa.nid)

    def test_node_containing(self, simple_tree):
        index = a0_index(simple_tree)
        assert index.node_containing(4).extent == {4, 5, 6}

    def test_nodes_with_label(self, simple_tree):
        index = a0_index(simple_tree)
        assert len(index.nodes_with_label("c")) == 1
        assert index.nodes_with_label("zzz") == set()

    def test_root_node(self, simple_tree):
        index = a0_index(simple_tree)
        assert index.root_node().label == "r"

    def test_size_metrics(self, simple_tree):
        index = a0_index(simple_tree)
        assert index.size_nodes() == 4
        # r->a, r->b, a->c, b->c
        assert index.size_edges() == 4


class TestReplaceNode:
    def test_split_updates_partition_and_edges(self, simple_tree):
        index = a0_index(simple_tree)
        c_node = index.node_containing(4)
        new_ids = index.replace_node(c_node.nid, [({4, 5}, 1), ({6}, 1)])
        assert len(new_ids) == 2
        index.check_partition()
        index.check_edges()
        assert index.node_containing(4).extent == {4, 5}
        assert index.node_containing(6).extent == {6}

    def test_split_reconnects_neighbors(self, simple_tree):
        index = a0_index(simple_tree)
        c_node = index.node_containing(4)
        index.replace_node(c_node.nid, [({4, 5}, 1), ({6}, 1)])
        a_node = index.node_containing(1)
        b_node = index.node_containing(3)
        assert index.children_of(a_node.nid) == {index.node_of[4]}
        assert index.children_of(b_node.nid) == {index.node_of[6]}

    def test_single_part_updates_k_in_place(self, simple_tree):
        index = a0_index(simple_tree)
        c_node = index.node_containing(4)
        new_ids = index.replace_node(c_node.nid, [({4, 5, 6}, 2)])
        assert new_ids == [c_node.nid]
        assert index.node_containing(4).k == 2
        index.check_edges()

    def test_bad_parts_rejected(self, simple_tree):
        index = a0_index(simple_tree)
        c_node = index.node_containing(4)
        with pytest.raises(ValueError):
            index.replace_node(c_node.nid, [({4}, 1)])  # misses 5, 6
        with pytest.raises(ValueError):
            index.replace_node(c_node.nid, [({4, 5}, 1), ({5, 6}, 1)])

    def test_rejected_parts_leave_the_index_intact(self, simple_tree):
        index = a0_index(simple_tree)
        c_node = index.node_containing(4)
        for bad in ([({4, 5}, 1), ({5, 6}, 1)],      # 5 claimed twice
                    [({4, 5}, 1), ({6, 1}, 1)],      # 1 is another node's
                    [({4, 5, 6}, 1), (set(), 1)],    # an empty part
                    [({4, 5}, 1)]):                  # single part, short
            with pytest.raises(ValueError):
                index.replace_node(c_node.nid, bad)
            assert index.node_containing(4) is c_node
            assert c_node.extent == {4, 5, 6} and c_node.k == 0
            assert index.mutations == 0
            index.check_partition()
            index.check_edges()

    def test_self_loop_split(self):
        from repro.graph.builder import graph_from_edges
        graph = graph_from_edges(["r", "a", "a"], [(0, 1), (1, 2)],
                                 references=[(2, 1)])
        index = a0_index(graph)
        a_node = index.node_containing(1)
        assert a_node.nid in index.children_of(a_node.nid)  # self-loop
        index.replace_node(a_node.nid, [({1}, 1), ({2}, 1)])
        index.check_partition()
        index.check_edges()
        first, second = index.node_of[1], index.node_of[2]
        assert second in index.children_of(first)
        assert first in index.children_of(second)

    def test_by_label_updated(self, simple_tree):
        index = a0_index(simple_tree)
        c_node = index.node_containing(4)
        index.replace_node(c_node.nid, [({4, 5}, 1), ({6}, 1)])
        assert len(index.nodes_with_label("c")) == 2
        assert c_node.nid not in index.nodes_with_label("c")


class TestEvaluate:
    def test_descendant_query(self, simple_tree):
        index = a0_index(simple_tree)
        targets = index.evaluate(PathExpression.parse("//a/c"))
        assert [node.label for node in targets] == ["c"]

    def test_counts_index_visits(self, simple_tree):
        index = a0_index(simple_tree)
        counter = CostCounter()
        index.evaluate(PathExpression.parse("//a/c"), counter)
        # 1 start node (label a) + 1 child examined.
        assert counter.index_visits == 2

    def test_rooted_query_starts_at_root(self, simple_tree):
        index = a0_index(simple_tree)
        targets = index.evaluate(PathExpression.parse("/b/c"))
        assert len(targets) == 1

    def test_wildcard(self, simple_tree):
        index = a0_index(simple_tree)
        targets = index.evaluate(PathExpression.parse("//*/c"))
        assert [node.label for node in targets] == ["c"]

    def test_no_match(self, simple_tree):
        index = a0_index(simple_tree)
        assert index.evaluate(PathExpression.parse("//c/a")) == []


class TestAnswer:
    def test_precise_when_k_sufficient(self, simple_tree):
        index = IndexGraph.from_extents(
            simple_tree,
            [({0}, 0), ({1, 2}, 1), ({3}, 1), ({4, 5}, 1), ({6}, 1)])
        result = index.answer(PathExpression.parse("//a/c"))
        assert result.answers == {4, 5}
        assert not result.validated
        assert result.cost.data_visits == 0

    def test_validates_when_k_insufficient(self, simple_tree):
        index = a0_index(simple_tree)
        result = index.answer(PathExpression.parse("//a/c"))
        assert result.answers == {4, 5}
        assert result.validated
        assert result.cost.data_visits > 0

    def test_rooted_needs_one_more_level(self, simple_tree):
        # /b/c implicitly crosses the root edge: k=1 is NOT enough.
        index = IndexGraph.from_extents(
            simple_tree,
            [({0}, 1), ({1, 2}, 1), ({3}, 1), ({4, 5}, 1), ({6}, 1)])
        result = index.answer(PathExpression.parse("/b/c"))
        assert result.answers == {6}
        assert result.validated

    def test_safety_on_coarse_index(self, fig1):
        """The A(0)-level index never loses answers (no false negatives)."""
        from repro.queries.evaluator import evaluate_on_data_graph
        index = a0_index(fig1)
        for text in ("//person", "//auction/seller", "//regions/*/item",
                     "/site/people/person", "//people/person"):
            expr = PathExpression.parse(text)
            truth = evaluate_on_data_graph(fig1, expr)
            assert index.answer(expr).answers == truth


class TestInvariantCheckers:
    def test_property3_violation_detected(self, simple_tree):
        index = IndexGraph.from_extents(
            simple_tree,
            [({0}, 0), ({1, 2}, 0), ({3}, 0), ({4, 5}, 2), ({6}, 2)])
        assert index.property3_violations()

    def test_property1_violation_detected(self, fig2):
        # {6, 7} are only 1-bisimilar; claiming k=2 is a violation.
        blocks = label_blocks(fig2)
        index = IndexGraph.from_blocks(fig2, blocks, k=2)
        violating = index.property1_violations()
        d_nid = index.node_of[6]
        assert d_nid in violating

    def test_clean_index_has_no_violations(self, fig1):
        from repro.indexes.partition import kbisimulation_blocks
        index = IndexGraph.from_blocks(fig1, kbisimulation_blocks(fig1, 2), k=2)
        assert index.property1_violations() == []
        assert index.property3_violations() == []
