"""Where a traced run records spans: the layers' public callables.

Each ``tap_*`` wraps the methods of one object the benchmark itself
constructed (or was handed through a public attribute) and taps the
layers beneath it.  Tags keep only what a per-layer metric reads.
"""

from __future__ import annotations

from typing import Any

from perfbench.harness import Env


def _kernel_tag(_args: tuple, _kwargs: dict, result: Any) -> tuple:
    cost = result.cost
    return cost.index_visits, cost.data_visits, result.validated


def _refine_tag(_args: tuple, kwargs: dict, _result: Any) -> int | None:
    counter = kwargs.get("counter")
    return None if counter is None else counter.total


def tap_index(env: Env, index: Any) -> None:
    env.trace(index, "query", "indexes.query", _kernel_tag)
    env.trace(index, "refine", "indexes.refine", _refine_tag)


def tap_core(env: Env, engine: Any) -> None:
    env.trace(engine, "execute", "core.execute")
    tap_index(env, engine.index)


def tap_serving(env: Env, serving: Any) -> None:
    env.trace(serving, "query", "serving.query",
              lambda _a, _k, result: result.cache_hit)
    env.trace(serving, "insert_subtree", "serving.insert_subtree")
    env.trace(serving, "add_reference", "serving.add_reference")
    env.trace(serving, "refine_pending", "serving.refine_pending",
              lambda _a, _k, applied: applied)
    tap_core(env, serving.engine)


def tap_sharded(env: Env, sharded: Any) -> None:
    env.trace(sharded, "query", "sharding.query",
              lambda _a, _k, result: result.fallback)
    for shard in sharded.shards:
        tap_serving(env, shard.serving)


def tap_client(env: Env, client: Any) -> None:
    env.trace(client, "query", "net.query",
              lambda _a, _k, reply: (reply["duration_s"],
                                     len(reply["answers"])))
    env.trace(client, "ping", "net.ping")
    env.trace(client, "refine", "net.refine")
    env.trace(client, "insert_subtree", "net.insert_subtree")
    env.trace(client, "add_reference", "net.add_reference")


def tap_disk(env: Env, disk: Any) -> None:
    env.trace(disk, "query", "storage.query")
