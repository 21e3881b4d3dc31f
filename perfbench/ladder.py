"""The layer ladder: one draw sequence through six rungs, one document.

Each rung answers the same shuffled passes over the query list on the
refined document serve_hot just used; a rung's delta over the one below
is what its layer adds per query.
"""

from __future__ import annotations

import random
from dataclasses import replace
from time import perf_counter

from repro.net import IndexServer, NetClient
from repro.queries.evaluator import evaluate_on_data_graph
from repro.serving import ServingEngine

from perfbench.engines import warm_sharded
from perfbench.harness import Env
from perfbench.inputs import Inputs
from perfbench.script import shuffled_passes

RUNGS = ("direct", "kernel", "core", "serving", "shard1", "wire")


def _per_query_us(call, draws: list) -> float:
    started = perf_counter()
    for query in draws:
        call(query)
    return (perf_counter() - started) / len(draws) * 1e6


def run_ladder(env: Env, inputs: Inputs, serving: ServingEngine,
               rng: random.Random) -> dict[str, float]:
    graph = inputs.graph
    draws = [query
             for one_pass in shuffled_passes(inputs.queries,
                                             env.sizes.ladder_passes, rng)
             for query in one_pass]
    rungs: dict[str, float] = {}
    # Every pass holds the same queries, so one pass costs what the mean
    # draw costs; the index-less baseline is too slow to replay in full.
    rungs["direct"] = _per_query_us(
        lambda query: evaluate_on_data_graph(graph, query), inputs.queries)
    rungs["kernel"] = _per_query_us(serving.index.query, draws)
    rungs["core"] = _per_query_us(serving.engine.execute, draws)
    rungs["serving"] = _per_query_us(serving.query, draws)

    # A scratch ``layers``: this rung's build numbers are not serve_hot's.
    sharded = warm_sharded(replace(env, layers={}), inputs, num_shards=1)
    rungs["shard1"] = _per_query_us(sharded.query, draws)

    texts = [str(query) for query in draws]
    with IndexServer(serving, port=0) as server:
        with NetClient(*server.address) as client:
            for text in texts[:len(inputs.queries)]:
                client.query(text)
            rungs["wire"] = _per_query_us(client.query, texts)
    return {f"ladder.{rung}_us": rungs[rung] for rung in RUNGS}


def deltas(layers: dict[str, float]) -> dict[str, str]:
    """``+x us over <rung below>`` notes for the printed ladder rows."""
    notes = {}
    for below, rung in zip(RUNGS, RUNGS[1:]):
        step = layers[f"ladder.{rung}_us"] - layers[f"ladder.{below}_us"]
        notes[f"ladder.{rung}_us"] = f"{step:+.1f} us over {below}"
    return notes
