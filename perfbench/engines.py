"""How each engine is built, refined and warmed before timing.

Caches are warm and the list's FUPs refined before any timed phase; the
cost lands in ``setup_s`` (and, on a traced run, in the refine spans).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from time import perf_counter

from repro import MStarIndex, PathExpression
from repro.cost.counters import CostCounter
from repro.serving import ServingEngine
from repro.sharding import ShardedEngine

from perfbench.harness import Env
from perfbench.inputs import Inputs
from perfbench.taps import tap_index, tap_serving, tap_sharded


def warm(query: Callable[[PathExpression], object],
         refine_pending: Callable[[], object],
         queries: Iterable) -> None:
    """One pass, refine what it queued, one pass to fill the caches."""
    queries = list(queries)
    for expr in queries:
        query(expr)
    refine_pending()
    for expr in queries:
        query(expr)


def refined_index(env: Env, inputs: Inputs) -> MStarIndex:
    """An M*(k)-index refined once per query of the list (Figs 10-13)."""
    started = perf_counter()
    index = MStarIndex(inputs.graph)
    env.layers["indexes.build_s"] = perf_counter() - started
    tap_index(env, index)
    for query in inputs.queries:
        index.refine(query, index.query(query), counter=CostCounter())
    return index


def warm_serving(env: Env, inputs: Inputs) -> ServingEngine:
    """A ServingEngine with the list's FUPs refined and its cache full."""
    started = perf_counter()
    serving = ServingEngine(inputs.graph)
    env.layers["indexes.build_s"] = perf_counter() - started
    tap_serving(env, serving)
    warm(serving.query, serving.refine_pending, inputs.queries)
    return serving


def warm_sharded(env: Env, inputs: Inputs, num_shards: int) -> ShardedEngine:
    """A ShardedEngine with every shard's FUPs refined and caches full."""
    layers = env.layers
    started = perf_counter()
    frozen = inputs.graph.freeze()
    layers["graph.freeze_s"] = perf_counter() - started
    engine = ShardedEngine(frozen, num_shards=num_shards)
    layers["sharding.build_s"] = engine.construction_s
    layers["sharding.cross_edges"] = engine.num_cross_edges
    tap_sharded(env, engine)
    warm(engine.query, engine.refine_pending, inputs.queries)
    return engine
