"""The REFINE kernel's own contracts (``repro.indexes.refine``).

``test_refine_equivalence.py`` pins *what* every refine call produces;
this file tests the properties the kernel's shape rests on:

* phase 0 walks the FUP once per round and then refines every target of
  that walk, so a target can be stale (split by an earlier descent of
  the same round) by the time its turn comes — ``descend`` must cope;
* that walk count does not grow with the number of target nodes;
* ``partition_by_succ`` groups a node's extent from the extent side and
  must equal, part for part and in order, the chain of binary
  ``Succ``-splits it replaced (kept here as the reference).
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.extents import Extent
from repro.cost.counters import CostCounter
from repro.graph.builder import graph_from_edges
from repro.graph.datagraph import DataGraph
from repro.graph.paths import succ_set
from repro.indexes import refine as refine_module
from repro.indexes.aindex import AkIndex
from repro.indexes.base import IndexGraph
from repro.indexes.dindex import DkIndex
from repro.indexes.mindex import MkIndex
from repro.indexes.mstarindex import MStarIndex
from repro.indexes.refine import fup_requirement, partition_by_succ
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import PathExpression
from repro.queries.workload import Workload
from repro.verify.fuzz import profile_named, random_data_graph
from tests.test_refine_equivalence import _cycle_graph

FAMILIES = {
    "dk": DkIndex,
    "mk": MkIndex,
    "mk_nomerge": lambda graph: MkIndex(graph, merge_remainder=False),
    "mstar": MStarIndex,
}
TARGET_AWARE = ("mk", "mk_nomerge", "mstar")


def _components(index) -> list[IndexGraph]:
    return index.components if isinstance(index, MStarIndex) \
        else [index.index]


def assert_supported(index, graph: DataGraph, expr: PathExpression) -> None:
    """What ``refine(expr)`` promises, whatever order it met its targets in."""
    required = fup_requirement(expr)
    truth = evaluate_on_data_graph(graph, expr)
    finest = _components(index)[-1]
    for node in finest.evaluate(expr):
        assert node.k >= required or not node.extent & truth, \
            f"{node} still holds relevant data below k={required}"
    for component in _components(index):
        component.check_partition()
        component.check_edges()
    if isinstance(index, MStarIndex):
        index.check_invariants()
    result = index.query(expr)
    assert result.answers == truth
    assert not result.validated


def _shared_cyclic_ancestor_graph() -> DataGraph:
    """After ``//a/b`` the ``b`` nodes are ``{6}`` and ``{2, 4}``, both
    targets of ``//a/b/a/b``; ``a5 -> b4`` closes a cycle through the
    parents of both, so refining ``{6}`` splits ``{2, 4}``."""
    return graph_from_edges(["r", "a", "b", "a", "b", "a", "b"],
                            [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 6)],
                            references=[(5, 4), (4, 6)])


@pytest.fixture
def stale_targets(monkeypatch) -> list[tuple[list[int], list[int]]]:
    """Record every phase-0 target that is no longer a live index node
    when ``descend`` gets to it: ``(its extent, the live node's extent)``."""
    stale: list[tuple[list[int], list[int]]] = []
    descend = refine_module._Refinement.descend
    depth = 0

    def spy(self, k, extent, relevant):
        nonlocal depth
        if depth == 0 and relevant is not None:
            level = self.levels[k]
            live = level.nodes[level.node_of[min(extent)]].extent
            if live != set(extent):
                stale.append((sorted(extent), list(live)))
        depth += 1
        try:
            return descend(self, k, extent, relevant)
        finally:
            depth -= 1

    monkeypatch.setattr(refine_module._Refinement, "descend", spy)
    return stale


class TestStaleTargets:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_target_that_is_its_own_ancestor(self, family):
        # a/b/a/b closed into a reference cycle: the one target node of
        # //a/b/a/b is its own ancestor.
        graph = _cycle_graph()
        index = FAMILIES[family](graph)
        expr = PathExpression.parse("//a/b/a/b")
        index.refine(expr, index.query(expr))
        assert_supported(index, graph, expr)

    @pytest.mark.parametrize("family", TARGET_AWARE)
    def test_refining_the_first_target_splits_the_second(self, family,
                                                         stale_targets):
        graph = _shared_cyclic_ancestor_graph()
        index = FAMILIES[family](graph)
        first = PathExpression.parse("//a/b")
        index.refine(first, index.query(first))
        assert not stale_targets
        expr = PathExpression.parse("//a/b/a/b")
        index.refine(expr, index.query(expr))
        # The second target of the round's one walk was handed to
        # ``descend`` after the first one's descent had split it.
        assert stale_targets == [([2, 4], [2])]
        assert_supported(index, graph, expr)
        assert_supported(index, graph, first)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10_000), st.integers(0, 99),
           st.sampled_from(["dk", "mk", "mstar"]))
    def test_cyclic_graphs_are_supported_after_every_refine(
            self, graph_seed, workload_seed, family):
        graph = random_data_graph(profile_named("cyclic"), graph_seed)
        index = FAMILIES[family](graph)
        for position, expr in enumerate(Workload.generate(
                graph, num_queries=6, max_length=5, seed=workload_seed)):
            index.refine(expr, index.query(expr) if position % 2 else None)
            assert_supported(index, graph, expr)


def _fan_document(num_targets: int) -> tuple[DataGraph, list[PathExpression]]:
    """``r/a/b/c`` chains whose ``c`` each has a second parent with a
    label of its own: refining ``//y<i>/c`` for every ``i`` leaves
    ``num_targets`` singleton ``c`` nodes at ``k = 1``, all of them
    under-refined targets of ``//a/b/c``."""
    graph = DataGraph()
    root = graph.add_node("r")
    for i in range(num_targets):
        a = graph.add_node("a")
        b = graph.add_node("b")
        c = graph.add_node("c")
        y = graph.add_node(f"y{i}")
        for parent, child in ((root, a), (a, b), (b, c), (root, y), (y, c)):
            graph.add_edge(parent, child)
    return graph, [PathExpression.parse(f"//y{i}/c")
                   for i in range(num_targets)]


def _refine_fan(family: str, num_targets: int) -> tuple[int, int]:
    """``(index visits, phase-0 walks)`` of refining ``//a/b/c`` over
    ``num_targets`` pending target nodes."""
    graph, splitters = _fan_document(num_targets)
    index = FAMILIES[family](graph)
    for expr in splitters:
        index.refine(expr, index.query(expr))
    expr = PathExpression.parse("//a/b/c")
    finest = _components(index)[-1]
    pending = [node for node in finest.evaluate(expr) if node.k < 2]
    assert len(pending) == num_targets
    counter = CostCounter()
    walks = 0
    evaluate = IndexGraph.evaluate

    def counting(self, expr, cost=None):
        nonlocal walks
        # Phase 0 is the only caller that walks with the refinement's
        # own counter on M*(k) (phases 1-2 take the top-down route and
        # the long-jump probe is unmetered).
        walks += cost is counter
        return evaluate(self, expr, cost)

    IndexGraph.evaluate = counting
    try:
        index.refine(expr, index.query(expr), counter)
    finally:
        IndexGraph.evaluate = evaluate
    assert_supported(index, graph, expr)
    return counter.index_visits, walks


class TestWalkCost:
    def test_one_walk_per_round_not_per_target(self):
        # One round refines all 50 targets; the second walk finds
        # nothing pending.  Re-walking per target made this 51.
        _, walks = _refine_fan("mstar", 50)
        assert walks == 2

    @pytest.mark.parametrize("family", TARGET_AWARE)
    def test_walk_cost_grows_linearly_with_targets(self, family):
        small, _ = _refine_fan(family, 50)
        large, _ = _refine_fan(family, 200)
        # 4x the targets: ~4x the visits.  A re-walk after every target
        # is quadratic (~16x).
        assert large < 6 * small


def _partition_by_succ_chain(graph: DataGraph, extent, parent_nodes
                             ) -> list[set[int]]:
    """Reference: the chain of inside/outside binary splits, one per
    parent, that ``partition_by_succ`` used to be (built from the parent
    side as ``Succ(parent.extent)`` sets)."""
    parts: list[set[int]] = [set(extent)]
    for parent in parent_nodes:
        succ = succ_set(graph, parent.extent)
        refined: list[set[int]] = []
        for part in parts:
            inside = part & succ
            outside = part - succ
            if inside:
                refined.append(inside)
            if outside:
                refined.append(outside)
        parts = refined
    return parts


class TestPartitionBySucc:
    @staticmethod
    def _check(graph: DataGraph, index: IndexGraph, extent,
               parent_nodes) -> list[list[int]]:
        parts = [part.tolist() for part in partition_by_succ(
            graph, Extent.from_iterable(extent), parent_nodes,
            index.node_of)]
        assert [set(part) for part in parts] == \
            _partition_by_succ_chain(graph, extent, parent_nodes)
        for part in parts:
            assert part == sorted(part)
        return parts

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(["cyclic", "dag", "tree"]),
           st.integers(0, 10_000), st.integers(0, 3), st.randoms())
    def test_matches_the_binary_split_chain(self, profile, graph_seed,
                                            k, rng):
        """Same parts *in the same order*, for whole nodes and arbitrary
        sub-extents, full parent lists, strict subsets and shuffles —
        on thawed list rows and frozen CSR rows alike."""
        graph = random_data_graph(profile_named(profile), graph_seed)
        index = AkIndex(graph, k).index
        for frozen in (False, True):
            if frozen:
                graph.freeze()
            for nid in sorted(index.nodes):
                node = index.nodes[nid]
                parents = [index.nodes[parent]
                           for parent in sorted(index.parents_of(nid))]
                self._check(graph, index, node.extent, parents)
                subset = [parent for parent in parents if rng.random() < 0.5]
                self._check(graph, index, node.extent, subset)
                rng.shuffle(parents)
                some = [oid for oid in node.extent if rng.random() < 0.7]
                if some:
                    self._check(graph, index, some, parents)

    def test_subset_of_parents_and_parentless_member(self):
        #      r0 -> a1 -> c4      a1 holds c4 and c5; b3 holds c5 too;
        #      r0 -> a2 -> c6      c7 has no parent at all
        #      r0 -> b3 -> c5 <- a1
        graph = DataGraph()
        for label in ("r", "a", "a", "b", "c", "c", "c", "c"):
            graph.add_node(label)
        for parent, child in ((0, 1), (0, 2), (0, 3), (1, 4), (3, 5),
                              (2, 6), (1, 5)):
            graph.add_edge(parent, child)
        index = IndexGraph.from_extents(graph, [
            ({0}, 0), ({1}, 0), ({2}, 0), ({3}, 0), ({4, 5, 6, 7}, 0)])
        a1, a2, b3 = (index.node_containing(oid) for oid in (1, 2, 3))
        extent = index.node_containing(4).extent
        assert self._check(graph, index, extent, [a1, a2, b3]) == \
            [[5], [4], [6], [7]]
        assert self._check(graph, index, extent, [b3, a2, a1]) == \
            [[5], [6], [4], [7]]
        # A strict subset of the real parents: c4's only parent is not
        # listed, so it joins the parentless c7 in the last part.
        assert self._check(graph, index, extent, [a2, b3]) == \
            [[6], [5], [4, 7]]
        assert self._check(graph, index, extent, []) == [[4, 5, 6, 7]]

    def test_keying_a_large_extent_triggers_no_collection(self):
        """One garbage-collector-tracked key per member (a rank tuple)
        is 20,000 young objects held at once here — some 28 collections
        — and on a serving heap those escalate to full passes that land
        inside whatever is being timed.  Members under one listed parent
        are keyed by the rank itself."""
        graph = DataGraph()
        for label in ("r", "a", "a"):
            graph.add_node(label)
        graph.add_edge(0, 1)
        graph.add_edge(0, 2)
        members = []
        for position in range(20_000):
            oid = graph.add_node("c")
            graph.add_edge(1 + position % 2, oid)
            if position % 1000 == 0:    # a few under both parents
                graph.add_edge(2 - position % 2, oid)
            members.append(oid)
        index = IndexGraph.from_extents(
            graph, [({0}, 0), ({1}, 0), ({2}, 0), (set(members), 0)])
        parents = [index.node_containing(1), index.node_containing(2)]
        extent = index.node_containing(members[0]).extent

        collections = []

        def watch(phase: str, info: dict) -> None:
            if phase == "start":
                collections.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(watch)
        try:
            parts = partition_by_succ(graph, extent, parents, index.node_of)
        finally:
            gc.callbacks.remove(watch)
            if not was_enabled:
                gc.disable()
        assert collections == []
        assert [len(part) for part in parts] == [20, 9980, 10_000]
