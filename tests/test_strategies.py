"""Tests for the M*(k) query strategies (repro.indexes.strategies)."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cost.counters import CostCounter
from repro.graph.builder import graph_from_edges
from repro.indexes import strategies
from repro.indexes.base import IndexGraph
from repro.indexes.mstarindex import MStarIndex
from repro.indexes.strategies import choose_subpath, query_prefilter
from repro.queries.evaluator import (
    evaluate_on_data_graph,
    required_similarity,
    validate_candidate,
)
from repro.queries.pathexpr import WILDCARD, PathExpression
from repro.queries.workload import Workload
from repro.verify.fuzz import profile_named, random_data_graph

STRATEGIES = ("naive", "topdown", "prefilter", "bottomup", "hybrid")


def refined_index(graph, workload):
    index = MStarIndex(graph)
    for expr in workload:
        index.refine(expr, index.query(expr))
    return index


class TestAgreement:
    """All strategies must return identical answers."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_ground_truth_on_refined_index(self, small_xmark,
                                                   strategy):
        workload = Workload.generate(small_xmark, num_queries=40,
                                     max_length=6, seed=21)
        index = refined_index(small_xmark, workload)
        for expr in workload:
            result = index.query(expr, strategy=strategy)
            assert result.answers == evaluate_on_data_graph(small_xmark, expr)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_safe_on_unrefined_index(self, small_nasa, strategy):
        index = MStarIndex(small_nasa)
        index.extend_components(3)
        workload = Workload.generate(small_nasa, num_queries=30,
                                     max_length=5, seed=22)
        for expr in workload:
            result = index.query(expr, strategy=strategy)
            assert result.answers == evaluate_on_data_graph(small_nasa, expr)

    def test_unknown_strategy_rejected(self, fig1):
        with pytest.raises(ValueError):
            MStarIndex(fig1).query(PathExpression.parse("//person"),
                                   strategy="bogus")

    def test_unknown_strategy_rejected_for_descendant_queries(self, fig1):
        """The ``//a//b`` shortcut used to return before the check."""
        with pytest.raises(ValueError, match="unknown strategy"):
            MStarIndex(fig1).query(PathExpression.parse("//site//person"),
                                   strategy="bogus")


class TestTopDown:
    def test_short_query_stays_in_coarse_component(self, fig7):
        index = MStarIndex(fig7)
        index.refine(PathExpression.parse("//b/a/c"))
        short = PathExpression.parse("//a")
        result = index.query(short, strategy="topdown")
        # I0 has a single 'a' node: exactly one visit.
        assert result.cost.index_visits == 1
        assert result.answers == {1, 2}

    def test_competitive_with_naive_on_refined_index(self, small_xmark):
        """On tiny documents the descent overhead can offset the coarse
        start advantage; top-down must stay in the same ballpark here (the
        strict topdown < naive comparison is asserted at benchmark scale
        in benchmarks/bench_ablation_strategies.py)."""
        workload = Workload.generate(small_xmark, num_queries=60,
                                     max_length=9, seed=23)
        index = refined_index(small_xmark, workload)
        naive = topdown = 0
        for expr in workload:
            naive += index.query(expr, strategy="naive").cost.total
            topdown += index.query(expr, strategy="topdown").cost.total
        assert topdown < naive * 1.5

    def test_wins_exist_on_refined_index(self, small_xmark):
        """Top-down must beat naive on at least some multi-step queries
        whose start labels got fragmented in the fine components."""
        workload = Workload.generate(small_xmark, num_queries=60,
                                     max_length=9, seed=23)
        index = refined_index(small_xmark, workload)
        wins = 0
        for expr in workload:
            if expr.length == 0:
                continue  # both strategies answer length-0 queries in I0
            topdown = index.query(expr, strategy="topdown").cost.index_visits
            naive = index.query(expr, strategy="naive").cost.index_visits
            wins += topdown < naive
        assert wins > 0

    def test_rooted_query(self, fig1):
        index = MStarIndex(fig1)
        expr = PathExpression.parse("/site/people/person")
        index.refine(expr, index.query(expr))
        result = index.query(expr, strategy="topdown")
        assert result.answers == {7, 8, 9}
        assert not result.validated

    def test_query_longer_than_components_clamps(self, fig1):
        index = MStarIndex(fig1)  # only I0 exists
        expr = PathExpression.parse("//site/people/person")
        result = index.query(expr, strategy="topdown")
        assert result.answers == {7, 8, 9}
        assert result.validated  # k=0 < 2: needs validation


class TestPrefilter:
    def test_choose_subpath_prefers_rare_labels(self, fig1):
        index = MStarIndex(fig1)
        # Weights: item=6, seller=2, person=3 -> the half-length window
        # [seller, person] (weight 5) beats [item, seller] (weight 8).
        expr = PathExpression.parse("//item/seller/person")
        start, window = choose_subpath(index, expr)
        assert (start, window) == (1, 2)

    def test_choose_subpath_window_bounds(self, fig1):
        index = MStarIndex(fig1)
        for text in ("//person", "//people/person",
                     "//site/people/person/name"):
            expr = PathExpression.parse(text)
            start, window = choose_subpath(index, expr)
            assert 1 <= window <= len(expr.labels)
            assert 0 <= start <= len(expr.labels) - window

    def test_explicit_subpath(self, small_xmark):
        workload = Workload.generate(small_xmark, num_queries=20,
                                     max_length=6, seed=24)
        index = refined_index(small_xmark, workload)
        for expr in workload:
            if len(expr.labels) < 3:
                continue
            result = query_prefilter(index, expr, subpath=(1, 2))
            assert result.answers == evaluate_on_data_graph(small_xmark, expr)

    def test_single_label_falls_back(self, fig1):
        index = MStarIndex(fig1)
        expr = PathExpression.parse("//person")
        result = index.query(expr, strategy="prefilter")
        assert result.answers == {7, 8, 9}

    def test_rooted_falls_back_to_topdown(self, fig1):
        index = MStarIndex(fig1)
        expr = PathExpression.parse("/site/people")
        result = index.query(expr, strategy="prefilter")
        assert result.answers == {3}

    def test_empty_backward_cone_short_circuits(self, fig1):
        index = MStarIndex(fig1)
        index.extend_components(2)
        # 'person/item' never occurs: subpath filtering finds nothing.
        expr = PathExpression.parse("//person/item/name")
        result = index.query(expr, strategy="prefilter")
        assert result.answers == set()


class TestEagerValidation:
    """The paper's remark after QUERYTOPDOWN: validating per prefix can
    prune dead branches early."""

    def test_same_answers_as_plain_topdown(self, small_xmark):
        from repro.indexes.strategies import query_topdown
        workload = Workload.generate(small_xmark, num_queries=40,
                                     max_length=6, seed=29)
        index = MStarIndex(small_xmark)
        for expr in list(workload)[:20]:
            index.refine(expr, index.query(expr))
        for expr in workload:
            eager = query_topdown(index, expr, eager_validation=True)
            assert eager.answers == evaluate_on_data_graph(small_xmark, expr)

    def test_prunes_dead_branches_on_unrefined_index(self, small_xmark):
        """On a coarse index, a query whose prefix dies in the data gets
        cheaper index navigation with eager validation (the pruning may
        itself cost data visits; the index side must not grow)."""
        from repro.indexes.strategies import query_topdown
        index = MStarIndex(small_xmark)
        index.extend_components(4)
        expr = PathExpression.parse("//site/people/person/name/last")
        plain = query_topdown(index, expr)
        eager = query_topdown(index, expr, eager_validation=True)
        assert eager.answers == plain.answers
        assert eager.cost.index_visits <= plain.cost.index_visits

    def test_rooted_eager_validation(self, fig1):
        from repro.indexes.strategies import query_topdown
        index = MStarIndex(fig1)
        index.extend_components(3)
        expr = PathExpression.parse("/site/people/person")
        eager = query_topdown(index, expr, eager_validation=True)
        assert eager.answers == {7, 8, 9}


class TestBottomUpAndHybrid:
    """Section 4.1 "other approaches": correct but slower than top-down."""

    def test_bottomup_matches_truth_after_refinement(self, small_xmark):
        workload = Workload.generate(small_xmark, num_queries=30,
                                     max_length=5, seed=26)
        index = refined_index(small_xmark, workload)
        for expr in workload:
            index.refine(expr, index.query(expr))  # fresh support
            result = index.query(expr, strategy="bottomup")
            assert result.answers == evaluate_on_data_graph(small_xmark, expr)

    def test_hybrid_matches_truth_after_refinement(self, small_xmark):
        workload = Workload.generate(small_xmark, num_queries=30,
                                     max_length=5, seed=27)
        index = refined_index(small_xmark, workload)
        for expr in workload:
            index.refine(expr, index.query(expr))
            result = index.query(expr, strategy="hybrid")
            assert result.answers == evaluate_on_data_graph(small_xmark, expr)

    def test_bottomup_costlier_than_topdown_on_average(self, small_xmark):
        """The paper's argument: the downward re-checks make bottom-up
        lose to top-down."""
        workload = Workload.generate(small_xmark, num_queries=60,
                                     max_length=9, seed=28)
        index = refined_index(small_xmark, workload)
        topdown = bottomup = 0
        for expr in workload:
            topdown += index.query(expr, strategy="topdown").cost.total
            bottomup += index.query(expr, strategy="bottomup").cost.total
        assert bottomup > topdown

    def test_rooted_falls_back_to_topdown(self, fig1):
        index = MStarIndex(fig1)
        expr = PathExpression.parse("/site/people/person")
        for strategy in ("bottomup", "hybrid"):
            assert index.query(expr, strategy=strategy).answers == {7, 8, 9}

    def test_short_hybrid_falls_back(self, fig1):
        index = MStarIndex(fig1)
        expr = PathExpression.parse("//people/person")
        assert index.query(expr, strategy="hybrid").answers == {7, 8, 9}

    def test_hybrid_explicit_split(self, fig7):
        from repro.indexes.strategies import query_hybrid
        index = MStarIndex(fig7)
        expr = PathExpression.parse("//b/a/c")
        index.refine(expr, index.query(expr))
        result = query_hybrid(index, expr, split=1)
        assert result.answers == {5}

    def test_bottomup_no_match(self, fig1):
        index = MStarIndex(fig1)
        expr = PathExpression.parse("//person/item/name")
        assert index.query(expr, strategy="bottomup").answers == set()


class TestCostAccounting:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_costs_are_positive_and_recorded(self, small_xmark, strategy):
        workload = Workload.generate(small_xmark, num_queries=10,
                                     max_length=5, seed=25)
        index = refined_index(small_xmark, workload)
        for expr in workload:
            result = index.query(expr, strategy=strategy)
            assert result.cost.index_visits > 0

    def test_external_counter_accumulates(self, fig1):
        from repro.cost.counters import CostCounter
        index = MStarIndex(fig1)
        counter = CostCounter()
        index.query(PathExpression.parse("//person"), counter=counter)
        first = counter.index_visits
        index.query(PathExpression.parse("//auction"), counter=counter)
        assert counter.index_visits > first


# ----------------------------------------------------------------------
# Reference: the per-child loops the set-algebra step and descent
# replaced, kept verbatim.  Everything they call is unchanged code.
# ----------------------------------------------------------------------
def _reference_topdown_frontier(index, expr, cost, eager_validation=False):
    frontier, positions = strategies._start_frontier(index, expr, cost)
    last = index.max_resolution
    current = 0
    edge_offset = 1 if expr.rooted else 0
    for position in positions:
        target_component = min(position + edge_offset, last)
        while current < target_component and frontier:
            descended: set[int] = set()
            for nid in frontier:
                subs = index.subnodes[current][nid]
                cost.index_visits += len(subs)
                descended |= subs
            frontier = descended
            current += 1
        comp = index.components[current]
        label = expr.labels[position]
        stepped: set[int] = set()
        nodes = comp.nodes
        examined = 0
        if label == WILDCARD:
            for nid in frontier:
                row = comp.children_of(nid)
                examined += len(row)
                stepped |= row
        else:
            for nid in frontier:
                row = comp.children_of(nid)
                examined += len(row)
                for child in row:
                    if nodes[child].label == label:
                        stepped.add(child)
        cost.index_visits += examined
        frontier = stepped
        if not frontier:
            break
        if eager_validation and position < len(expr.labels) - 1:
            prefix = expr.prefix(position + 1)
            prefix_required = required_similarity(index.graph, prefix)
            pruned: set[int] = set()
            for nid in frontier:
                node = comp.nodes[nid]
                if node.k >= prefix_required:
                    pruned.add(nid)
                    continue
                if any(validate_candidate(index.graph, prefix, oid, cost)
                       for oid in node.extent):
                    pruned.add(nid)
            frontier = pruned
            if not frontier:
                break
    return current, frontier


def _reference_descend_one(index, component, frontier, cost):
    descended: set[int] = set()
    for nid in frontier:
        subs = index.subnodes[component][nid]
        cost.index_visits += len(subs)
        descended |= subs
    return descended


def _reference_forward(comp, frontier, labels, first, cost):
    for position in range(first, len(labels)):
        label = labels[position]
        stepped: set[int] = set()
        for nid in frontier:
            for child in comp.children_of(nid):
                cost.index_visits += 1
                if label == WILDCARD or comp.nodes[child].label == label:
                    stepped.add(child)
        frontier = stepped
        if not frontier:
            break
    return frontier


def _reference_topdown(index, expr, eager_validation=False):
    cost = CostCounter()
    component, frontier = _reference_topdown_frontier(
        index, expr, cost, eager_validation)
    return strategies._finish(index, expr, component, frontier, cost)


def _reference_bottomup(index, expr):
    cost = CostCounter()
    if expr.rooted:
        return _reference_topdown(index, expr)
    required = expr.length
    target_component = min(required, index.max_resolution)
    last_label = expr.labels[-1]
    comp0 = index.components[0]
    if last_label == WILDCARD:
        heads = set(comp0.nodes)
    else:
        heads = set(comp0.nodes_with_label(last_label))
    cost.index_visits += len(heads)
    current = 0
    for suffix_edges in range(1, required + 1):
        needed = min(suffix_edges, target_component)
        while current < needed and heads:
            heads = _reference_descend_one(index, current, heads, cost)
            current += 1
        comp = index.components[current]
        label = expr.labels[required - suffix_edges]
        climbed: set[int] = set()
        for nid in heads:
            for parent in comp.parents_of(nid):
                cost.index_visits += 1
                if label == WILDCARD or comp.nodes[parent].label == label:
                    climbed.add(parent)
        heads = strategies._filter_by_outgoing(
            index, current, climbed, expr.labels[required - suffix_edges:],
            cost)
        if not heads:
            return strategies._finish(index, expr, target_component, set(),
                                      cost)
    comp = index.components[current]
    frontier = _reference_forward(comp, heads, expr.labels, 1, cost)
    return strategies._finish(index, expr, current, frontier, cost)


def _reference_hybrid(index, expr):
    cost = CostCounter()
    if expr.rooted or len(expr.labels) < 3:
        return _reference_topdown(index, expr)
    graph = index.graph
    weights = [graph.num_nodes if label == WILDCARD
               else len(graph.nodes_with_label(label))
               for label in expr.labels]
    split = min(range(1, len(expr.labels) - 1),
                key=lambda position: weights[position])
    target_component = min(expr.length, index.max_resolution)
    component, prefix_frontier = _reference_topdown_frontier(
        index, expr.prefix(split + 1), cost)
    while component < target_component and prefix_frontier:
        prefix_frontier = _reference_descend_one(index, component,
                                                 prefix_frontier, cost)
        component += 1
    comp = index.components[target_component]
    join_label = expr.labels[split]
    if join_label == WILDCARD:
        candidates = set(comp.nodes)
    else:
        candidates = set(comp.nodes_with_label(join_label))
    cost.index_visits += len(candidates)
    heads = strategies._filter_by_outgoing(index, target_component,
                                           candidates, expr.labels[split:],
                                           cost)
    frontier = _reference_forward(comp, prefix_frontier & heads,
                                  expr.labels, split + 1, cost)
    return strategies._finish(index, expr, target_component, frontier, cost)


def _reference_prefilter(index, expr):
    cost = CostCounter()
    required = expr.length + (1 if expr.rooted else 0)
    target_component = min(required, index.max_resolution)
    if expr.rooted or len(expr.labels) == 1:
        return _reference_topdown(index, expr)
    start, window = choose_subpath(index, expr)
    sub_expr = expr.subpath(start, window)
    sub_component = min(sub_expr.length, index.max_resolution)
    candidates = {node.nid for node in
                  index.components[sub_component].evaluate(sub_expr, cost)}
    current = sub_component
    while current < target_component and candidates:
        candidates = _reference_descend_one(index, current, candidates, cost)
        current += 1
    comp = index.components[target_component]
    end = start + window - 1
    levels: list[set[int]] = [set() for _ in range(end)] + [set(candidates)]
    for position in range(end - 1, -1, -1):
        above: set[int] = set()
        label = expr.labels[position]
        for nid in levels[position + 1]:
            for parent in comp.parents_of(nid):
                cost.index_visits += 1
                if label == WILDCARD or comp.nodes[parent].label == label:
                    above.add(parent)
        levels[position] = above
        if not above:
            return strategies._finish(index, expr, target_component, set(),
                                      cost)
    frontier = levels[0]
    for position in range(1, len(expr.labels)):
        stepped: set[int] = set()
        label = expr.labels[position]
        cone = levels[position] if position <= end else None
        for nid in frontier:
            for child in comp.children_of(nid):
                cost.index_visits += 1
                if cone is not None and child not in cone:
                    continue
                if label == WILDCARD or comp.nodes[child].label == label:
                    stepped.add(child)
        frontier = stepped
        if not frontier:
            break
    return strategies._finish(index, expr, target_component, frontier, cost)


REFERENCES = {
    "topdown": _reference_topdown,
    "eager": lambda index, expr: _reference_topdown(index, expr, True),
    "bottomup": _reference_bottomup,
    "hybrid": _reference_hybrid,
    "prefilter": _reference_prefilter,
}
UNDER_TEST = {
    "topdown": strategies.query_topdown,
    "eager": lambda index, expr: strategies.query_topdown(
        index, expr, eager_validation=True),
    "bottomup": strategies.query_bottomup,
    "hybrid": strategies.query_hybrid,
    "prefilter": strategies.query_prefilter,
}
#: Always probe, the shipped choice, never probe.
PROBE_RATIOS = (0, strategies._PROBE_RATIO, 10 ** 9)


def assert_matches_reference(index, expr) -> None:
    for name, reference in REFERENCES.items():
        got = UNDER_TEST[name](index, expr)
        want = reference(index, expr)
        assert [node.nid for node in got.target_nodes] == \
            [node.nid for node in want.target_nodes], (name, str(expr))
        assert got.cost.index_visits == want.cost.index_visits, \
            (name, str(expr))
        assert got.cost.data_visits == want.cost.data_visits, \
            (name, str(expr))
        assert got.answers == want.answers, (name, str(expr))


def _variants(expr: PathExpression, position: int) -> list[PathExpression]:
    """``expr``, rooted, and with one label made a wildcard."""
    labels = list(expr.labels)
    labels[position % len(labels)] = WILDCARD
    return [expr, PathExpression(expr.labels, rooted=True),
            PathExpression(tuple(labels))]


@pytest.fixture
def probed(monkeypatch) -> list[IndexGraph]:
    """The components a step probed from the label side, one per probe."""
    calls: list[IndexGraph] = []
    parent_rows = IndexGraph.parent_rows

    def spy(self):
        calls.append(self)
        return parent_rows(self)

    monkeypatch.setattr(IndexGraph, "parent_rows", spy)
    return calls


class TestSetAlgebraMatchesPerChildLoops:
    """The step and descent compute the same frontiers and charge the
    same visits as the per-child loops they replaced, in either
    direction and whichever direction the ratio picks."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(["tree", "dag", "cyclic", "skewed"]),
           st.integers(0, 10_000), st.integers(0, 99),
           st.sampled_from(PROBE_RATIOS), st.randoms())
    def test_random_documents_and_refinement_sequences(
            self, profile, graph_seed, seed, ratio, rng):
        graph = random_data_graph(profile_named(profile), graph_seed)
        queries = list(Workload.generate(graph, num_queries=10,
                                         max_length=5, seed=seed))
        fups = rng.sample(queries, rng.randint(0, len(queries)))
        index = MStarIndex(graph)
        with mock.patch.object(strategies, "_PROBE_RATIO", ratio):
            for fup in [None] + fups:
                if fup is not None:
                    index.refine(fup, index.query(fup))
                for number, expr in enumerate(queries):
                    for variant in _variants(expr, number):
                        assert_matches_reference(index, variant)

    def test_refined_document_takes_both_directions(self, small_xmark,
                                                    probed, monkeypatch):
        workload = Workload.generate(small_xmark, num_queries=40,
                                     max_length=9, seed=23)
        index = refined_index(small_xmark, workload)
        steps = 0
        step = strategies._step

        def count(*args):
            nonlocal steps
            steps += 1
            return step(*args)

        monkeypatch.setattr(strategies, "_step", count)
        for expr in workload:
            assert_matches_reference(index, expr)
        assert 0 < len(probed) < steps


def _fan_graph():
    """``r`` with six children of distinct labels; ``x`` has one child."""
    return graph_from_edges(["r", "a", "b", "c", "d", "e", "x", "y"],
                            [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
                             (6, 7)])


class TestStepDirections:
    def test_few_label_nodes_probe_from_the_label(self, probed):
        # One x node against six examined children: 1 * 4 < 6.
        index = MStarIndex(_fan_graph())
        expr = PathExpression.parse("//r/x")
        result = strategies.query_topdown(index, expr)
        assert probed
        assert result.answers == {6}
        assert result.cost.index_visits == 1 + 6
        assert_matches_reference(index, expr)

    def test_many_label_nodes_step_forward(self, probed):
        # One y node against one examined child: 1 * 4 >= 1.
        index = MStarIndex(_fan_graph())
        expr = PathExpression.parse("//x/y")
        result = strategies.query_topdown(index, expr)
        assert not probed
        assert result.answers == {7}
        assert result.cost.index_visits == 1 + 1
        assert_matches_reference(index, expr)

    def test_label_absent_from_the_component(self, probed):
        """No node carries the label: nothing is stepped to, but every
        child examined is still charged."""
        index = MStarIndex(_fan_graph())
        index.extend_components(2)
        expr = PathExpression.parse("//r/zzz")
        result = strategies.query_topdown(index, expr)
        assert probed
        assert result.answers == set()
        assert result.target_nodes == []
        assert result.cost.index_visits == 1 + 1 + 6
        assert_matches_reference(index, PathExpression.parse("//r/zzz/y"))
        assert_matches_reference(index, expr)
