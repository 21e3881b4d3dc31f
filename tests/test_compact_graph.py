"""Tests for the compact graph data plane (repro.graph.datagraph +
repro.graph.compact): label interning, CSR freeze/thaw parity,
read-only adjacency views, O(1) duplicate-edge checks, and the
quadratic-bulk-insert regression the refactor flushed out.
"""

from __future__ import annotations

import time

import pytest

from tests.conftest import random_graph
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import PathExpression


def _chain_and_star() -> DataGraph:
    graph = DataGraph()
    root = graph.add_node("root")
    a = graph.add_node("a")
    b = graph.add_node("b")
    c = graph.add_node("b")
    graph.add_edge(root, a)
    graph.add_edge(a, b)
    graph.add_edge(a, c)
    graph.add_edge(b, c, kind=EdgeKind.REFERENCE)
    return graph


class TestLabelInterning:
    def test_table_is_first_occurrence_order(self):
        graph = _chain_and_star()
        assert graph.label_table == ("root", "a", "b")
        assert graph.label_ids() == [0, 1, 2, 2]

    def test_label_id_of(self):
        graph = _chain_and_star()
        assert graph.label_id_of("a") == 1
        assert graph.label_id_of("nope") == -1

    def test_interning_survives_freeze(self):
        graph = _chain_and_star().freeze()
        assert graph.label_table == ("root", "a", "b")
        assert graph.labels == ["root", "a", "b", "b"]


class TestFreezeThawParity:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_adjacency_identical_across_freeze(self, seed):
        graph = random_graph(seed, num_nodes=40, num_labels=5,
                             extra_edges=12)
        before_children = [list(graph.children(oid))
                           for oid in graph.nodes()]
        before_parents = [list(graph.parents(oid)) for oid in graph.nodes()]
        before_edges = sorted(graph.edges())
        graph.freeze()
        assert graph.frozen
        assert [list(graph.children(oid)) for oid in graph.nodes()] \
            == before_children
        assert [list(graph.parents(oid)) for oid in graph.nodes()] \
            == before_parents
        assert sorted(graph.edges()) == before_edges
        graph.thaw()
        assert not graph.frozen
        assert [list(graph.children(oid)) for oid in graph.nodes()] \
            == before_children

    def test_queries_agree_across_freeze(self):
        graph = random_graph(7, num_nodes=50, num_labels=4, extra_edges=10)
        label = graph.label(1)
        expr = PathExpression.parse(f"//{label}")
        before = evaluate_on_data_graph(graph, expr)
        assert evaluate_on_data_graph(graph.freeze(), expr) == before

    def test_freeze_is_idempotent_and_reports_bytes(self):
        graph = _chain_and_star()
        assert graph.adjacency_nbytes() is None
        graph.freeze()
        payload = graph.adjacency_nbytes()
        assert payload is not None and payload > 0
        graph.freeze()  # no-op
        assert graph.adjacency_nbytes() == payload

    def test_mutation_auto_thaws(self):
        graph = _chain_and_star().freeze()
        new = graph.add_node("late")
        assert not graph.frozen
        graph.add_edge(0, new)
        assert new in graph.children(0)


class TestReadonlyViews:
    @pytest.mark.parametrize("frozen", [False, True])
    def test_row_mutation_raises(self, frozen):
        graph = _chain_and_star()
        if frozen:
            graph.freeze()
        row = graph.children(1)
        for mutate in (lambda: row.append(9),
                       lambda: row.extend([9]),
                       lambda: row.insert(0, 9),
                       lambda: row.remove(2),
                       lambda: row.pop(),
                       lambda: row.clear()):
            with pytest.raises(TypeError):
                mutate()
        with pytest.raises(TypeError):
            row[0] = 9
        with pytest.raises(TypeError):
            del row[0]

    @pytest.mark.parametrize("frozen", [False, True])
    def test_list_view_mutation_raises(self, frozen):
        graph = _chain_and_star()
        if frozen:
            graph.freeze()
        view = graph.child_lists
        with pytest.raises(TypeError):
            view[1] = [9]
        with pytest.raises(TypeError):
            view.append([9])
        with pytest.raises(TypeError):
            view[1].append(9)

    def test_views_compare_like_lists(self):
        graph = _chain_and_star()
        assert graph.children(1) == [2, 3]
        assert graph.children(1) == (2, 3)
        assert graph.children(0) == graph.children(0)
        assert graph.child_lists == [[1], [2, 3], [3], []]

    def test_view_stays_valid_across_freeze(self):
        """The list views delegate per access, so one handle observes
        the graph through freeze/thaw/mutation transitions."""
        graph = _chain_and_star()
        view = graph.child_lists
        assert view[1] == [2, 3]
        graph.freeze()
        assert view[1] == [2, 3]
        new = graph.add_node("late")  # auto-thaws
        graph.add_edge(1, new)
        assert view[1] == [2, 3, new]


class TestEdgeChecks:
    def test_has_edge(self):
        graph = _chain_and_star()
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(2, 1)
        graph.freeze()
        assert graph.has_edge(1, 2)

    def test_duplicate_edges_rejected(self):
        graph = _chain_and_star()
        with pytest.raises(ValueError):
            graph.add_edge(1, 2)

    def test_edge_kinds_preserved(self):
        graph = _chain_and_star().freeze()
        assert graph.edge_kind(2, 3) is EdgeKind.REFERENCE
        assert graph.edge_kind(1, 2) is EdgeKind.REGULAR


def _build_star(fanout: int) -> float:
    """Seconds to build a single hub with ``fanout`` spokes."""
    graph = DataGraph()
    hub = graph.add_node("hub")
    spokes = [graph.add_node("leaf") for _ in range(fanout)]
    start = time.perf_counter()
    for spoke in spokes:
        graph.add_edge(hub, spoke)
    return time.perf_counter() - start


class TestBulkInsertRegression:
    def test_star_insert_is_near_linear(self):
        """``add_edge`` used to scan the parent's child list for
        duplicates, so a high-fanout star cost O(degree^2).  With the
        packed edge-set probe an 8x bigger star must cost ~8x, far from
        the ~64x of the quadratic scan; 24x is the alarm threshold with
        headroom for timer noise."""
        _build_star(2_000)  # warm-up: allocator + bytecode caches
        small = max(min(_build_star(2_000) for _ in range(3)), 1e-4)
        big = min(_build_star(16_000) for _ in range(3))
        assert big / small < 24, \
            f"star insert scaled {big / small:.1f}x for 8x the fanout"
