"""Regression tests for the update/cache staleness bugs.

The headline bug: ``maintenance`` accepted any index exposing an
``.index`` IndexGraph — including the 1-index, F&B, and UD(k,l), whose
query paths never consult the per-node similarity claims demotion
lowers.  "Maintaining" one of those left a live index silently serving
stale answers after an update.  They are now rejected with ``TypeError``
(these tests fail on the pre-fix code, which accepted them), and every
maintenance entry point commits an epoch bump so cached results can
never survive an update.
"""

import pytest

from repro.core.engine import AdaptiveIndexEngine
from repro.graph.builder import GraphBuilder
from repro.indexes.fbindex import FBIndex
from repro.indexes.maintenance import (
    _reclamp_links,
    add_reference,
    insert_subtree,
)
from repro.indexes.mindex import MkIndex
from repro.indexes.mstarindex import MStarIndex
from repro.indexes.oneindex import OneIndex
from repro.indexes.udindex import UDIndex
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import PathExpression


def cross_edge_graph():
    """r -> (a, a, c); each a -> b; one b -> d.  Adding the reference
    c -> b(3) makes the two b nodes distinguishable by //c/b."""
    builder = GraphBuilder()
    builder.node("r")            # 0
    builder.node("a", parent=0)  # 1
    builder.node("a", parent=0)  # 2
    builder.node("b", parent=1)  # 3
    builder.node("b", parent=2)  # 4
    builder.node("c", parent=0)  # 5
    builder.node("d", parent=3)  # 6
    return builder.build()


class TestUnmaintainableFamiliesRejected:
    """Satellite 1: the staleness bug itself.  Pre-fix, these calls were
    accepted silently; the assertions below all failed."""

    FACTORIES = [OneIndex, FBIndex, lambda graph: UDIndex(graph, 2, 2)]

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_insert_rejected_before_graph_mutation(self, fig1, factory):
        index = factory(fig1)
        nodes, edges = fig1.num_nodes, fig1.num_edges
        with pytest.raises(TypeError, match="rebuild"):
            insert_subtree(fig1, 3, ("person", []), indexes=[index])
        # Rejection happens up front: the document must be untouched, or
        # the caller is left with a half-applied update.
        assert (fig1.num_nodes, fig1.num_edges) == (nodes, edges)

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_add_reference_rejected_before_graph_mutation(self, fig1,
                                                          factory):
        index = factory(fig1)
        edges = fig1.num_edges
        with pytest.raises(TypeError, match="rebuild"):
            add_reference(fig1, 20, 7, indexes=[index])
        assert fig1.num_edges == edges

    def test_mixed_batch_rejected_atomically(self, fig1):
        """One bad index in the batch must not leave the good ones (or
        the graph) updated."""
        mk = MkIndex(fig1)
        one = OneIndex(fig1)
        nodes = fig1.num_nodes
        epoch = mk.index.epoch
        with pytest.raises(TypeError):
            insert_subtree(fig1, 3, ("person", []), indexes=[mk, one])
        assert fig1.num_nodes == nodes
        assert mk.index.epoch == epoch

    def test_one_index_really_would_serve_stale_answers(self):
        """Documents what the rejection prevents: apply the same update
        past a 1-index and it serves wrong answers with no signal."""
        graph = cross_edge_graph()
        one = OneIndex(graph)
        expr = PathExpression.parse("//c/b")
        with pytest.raises(TypeError):
            add_reference(graph, 5, 3, indexes=[one])
        add_reference(graph, 5, 3)  # update the document only
        truth = evaluate_on_data_graph(graph, expr)
        assert truth == {3}
        assert one.query(expr).answers != truth


class TestEngineCacheInvalidation:
    """Cached answer -> update -> the next execute must miss and return
    the new document's truth."""

    def test_insert_subtree_invalidates(self, fig1):
        engine = AdaptiveIndexEngine(fig1, index_factory=MStarIndex,
                                     cache=True)
        expr = PathExpression.parse("//people/person")
        for _ in range(4):  # warm: hits once refinement settles
            engine.execute(expr)
        assert engine.stats.cache_hits == 2
        new = insert_subtree(fig1, 3, ("person", [("name", [])]),
                             indexes=[engine.index])
        result = engine.execute(expr)
        assert engine.stats.cache_hits == 2  # stale entry did not serve
        assert new[0] in result.answers
        assert result.answers == evaluate_on_data_graph(fig1, expr)

    def test_add_reference_invalidates(self, fig1):
        engine = AdaptiveIndexEngine(fig1, index_factory=MStarIndex,
                                     cache=True)
        expr = PathExpression.parse("//auctions/auction/seller/person")
        for _ in range(4):
            engine.execute(expr)
        assert engine.stats.cache_hits == 2
        add_reference(fig1, 15, 9, indexes=[engine.index])
        result = engine.execute(expr)
        assert engine.stats.cache_hits == 2
        assert result.answers == evaluate_on_data_graph(fig1, expr)

    def test_index_level_answer_cache_invalidates(self, fig1):
        """The single-graph M(k) family: maintenance must move the
        index-level token the engine cache keys on."""
        engine = AdaptiveIndexEngine(fig1, index_factory=MkIndex,
                                     cache=True)
        expr = PathExpression.parse("//people/person")
        for _ in range(4):
            engine.execute(expr)
        hits = engine.stats.cache_hits
        assert hits >= 1
        token = engine.index.index.cache_token(expr)
        new = insert_subtree(fig1, 3, ("person", []), indexes=[engine.index])
        assert engine.index.index.cache_token(expr) != token
        result = engine.execute(expr)
        assert engine.stats.cache_hits == hits  # stale entry did not serve
        assert new[0] in result.answers

    def test_every_component_epoch_bumps(self, fig1):
        index = MStarIndex(fig1)
        index.extend_components(2)
        before = [component.epoch for component in index.components]
        insert_subtree(fig1, 3, ("person", []), indexes=[index])
        middle = [component.epoch for component in index.components]
        assert all(now > then for now, then in zip(middle, before))
        add_reference(fig1, 20, 7, indexes=[index])
        after = [component.epoch for component in index.components]
        assert all(now > then for now, then in zip(after, middle))


class TestDemotionBoundary:
    """Satellite 2: ``k = min(k, d)`` at the boundary — the edge target
    itself is at distance 0 and must drop to ``k = 0``."""

    def test_target_demoted_to_zero(self):
        graph = cross_edge_graph()
        mk = MkIndex(graph)
        index_graph = mk.index
        index_graph.nodes[index_graph.node_of[3]].k = 1  # sound: both b's
        add_reference(graph, 5, 3, indexes=[mk])
        assert index_graph.nodes[index_graph.node_of[3]].k == 0

    def test_distance_one_keeps_k_one(self):
        graph = cross_edge_graph()
        mk = MkIndex(graph)
        index_graph = mk.index
        index_graph.nodes[index_graph.node_of[6]].k = 2  # d, one below b(3)
        add_reference(graph, 5, 3, indexes=[mk])
        # min(2, 1): demoted to its distance, not clobbered to zero.
        assert index_graph.nodes[index_graph.node_of[6]].k == 1

    def test_off_by_one_would_be_unsound(self):
        """The counterfactual: were the target only demoted to 1 (BFS
        starting at distance 1), //c/b would be answered verbatim from a
        claim the new edge just broke."""
        graph = cross_edge_graph()
        mk = MkIndex(graph)
        index_graph = mk.index
        index_graph.nodes[index_graph.node_of[3]].k = 1
        add_reference(graph, 5, 3, indexes=[mk])
        expr = PathExpression.parse("//c/b")
        assert mk.query(expr).answers == {3}  # demoted claim re-validates
        index_graph.nodes[index_graph.node_of[3]].k = 1  # simulate the bug
        assert mk.query(expr).answers == {3, 4}  # wrong: 4 has no c parent


class TestMStarRegistration:
    """Satellite 3: a fresh data node must be linked supernode ->
    subnode through *every* component I0..Ik."""

    def test_new_node_linked_in_every_component(self, fig1):
        index = MStarIndex(fig1)
        index.extend_components(2)
        new = insert_subtree(fig1, 3, ("person", [("name", [])]),
                             indexes=[index])
        for oid in new:
            previous = None
            for i, component in enumerate(index.components):
                nid = component.node_of[oid]
                node = component.nodes[nid]
                assert node.extent == {oid}
                assert node.k == 0
                if i > 0:
                    assert index.supernode[i][nid] == previous
                    assert index.subnodes[i - 1][previous] == {nid}
                if i < index.max_resolution:
                    assert nid in index.subnodes[i]
                previous = nid
        index.check_invariants()

    def test_reclamp_goes_through_replace_node(self):
        """Clamping a k claim is a cache-relevant mutation: it must bump
        the mutation counter and the label version, not just node.k."""
        from repro.graph.examples import figure1_auction_site

        graph = figure1_auction_site()
        index = MStarIndex(graph)
        expr = PathExpression.parse("//site/people/person")
        index.refine(expr, index.query(expr))
        component = index.components[2]
        nid = next(nid for nid, node in component.nodes.items()
                   if node.k >= 1)
        label = component.nodes[nid].label
        # Lowering the supernode's claim is always sound; afterwards the
        # fine node exceeds its Property-5 ceiling and must be clamped.
        index.components[1].nodes[index.supernode[2][nid]].k = 0
        mutations = component.mutations
        version = component.label_versions.get(label, 0)
        _reclamp_links(index)
        assert component.nodes[nid].k == 0
        assert component.mutations > mutations
        assert component.label_versions.get(label, 0) > version
