"""Tests for the strategy optimizer (repro.indexes.optimizer)."""

from repro.indexes.mstarindex import MStarIndex
from repro.indexes.optimizer import CANDIDATES, StrategyOptimizer, collect_stats
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import PathExpression
from repro.queries.workload import Workload


def refined(graph, num_queries=50, max_length=6, seed=101):
    workload = Workload.generate(graph, num_queries=num_queries,
                                 max_length=max_length, seed=seed)
    index = MStarIndex(graph)
    for expr in workload:
        index.refine(expr, index.query(expr))
    return index, workload


class TestStats:
    def test_counts_and_fanout(self, fig1):
        index = MStarIndex(fig1)
        stats = collect_stats(index)[0]
        assert stats.count("person") == 1  # one coarse index node
        assert stats.count("nope") == 0
        assert stats.count("*") == stats.total_nodes
        assert stats.fanout("people") == 1.0  # people-node -> person-node

    def test_stats_refresh_after_mutation(self, fig1):
        index = MStarIndex(fig1)
        optimizer = StrategyOptimizer(index)
        before = optimizer.stats()
        expr = PathExpression.parse("//site/people/person")
        index.refine(expr, index.query(expr))
        after = optimizer.stats()
        assert len(after) > len(before)  # components were created


class TestEstimates:
    def test_all_candidates_estimated(self, small_xmark):
        index, workload = refined(small_xmark)
        optimizer = StrategyOptimizer(index)
        for expr in list(workload)[:20]:
            estimates = optimizer.estimate(expr)
            assert set(estimates) == set(CANDIDATES)
            assert all(value >= 0 for value in estimates.values())

    def test_bottomup_estimated_most_expensive_on_long_paths(self,
                                                             small_xmark):
        index, workload = refined(small_xmark, max_length=9)
        optimizer = StrategyOptimizer(index)
        long_queries = [expr for expr in workload if expr.length >= 3][:10]
        assert long_queries
        for expr in long_queries:
            estimates = optimizer.estimate(expr)
            assert estimates["bottomup"] >= estimates["topdown"]

    def test_rooted_prefers_topdown(self, fig1):
        index = MStarIndex(fig1)
        optimizer = StrategyOptimizer(index)
        assert optimizer.choose(PathExpression.parse("/site/people")) == \
            "topdown"


class TestAutoStrategy:
    def test_auto_answers_exactly_on_fresh_fups(self, small_xmark):
        index, workload = refined(small_xmark)
        for expr in list(workload)[:25]:
            index.refine(expr, index.query(expr))
            assert index.query(expr, strategy="auto").answers == \
                evaluate_on_data_graph(small_xmark, expr)

    def test_auto_competitive_with_best_single_strategy(self, small_xmark):
        index, workload = refined(small_xmark, num_queries=80, max_length=9)
        totals = {}
        for strategy in ("naive", "topdown", "prefilter", "auto"):
            totals[strategy] = sum(
                index.query(expr, strategy=strategy).cost.total
                for expr in workload)
        best_single = min(totals[s] for s in ("naive", "topdown", "prefilter"))
        assert totals["auto"] <= best_single * 1.2

    def test_auto_survives_serialisation(self, small_xmark, tmp_path):
        from repro.storage.diskindex import DiskMStarIndex
        index, workload = refined(small_xmark, num_queries=20)
        with DiskMStarIndex.build(index, str(tmp_path / "i.seg")) as disk:
            loaded = disk.to_memory()
        expr = list(workload)[0]
        assert loaded.query(expr, strategy="auto").answers == \
            index.query(expr).answers
