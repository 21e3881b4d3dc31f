"""Tests for the M*(k) query strategies (repro.indexes.strategies)."""

import pytest

from repro.indexes.mstarindex import MStarIndex
from repro.indexes.strategies import choose_subpath, query_prefilter
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import PathExpression
from repro.queries.workload import Workload

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
