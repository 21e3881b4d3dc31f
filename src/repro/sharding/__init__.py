"""Sharded index service.

Partitions a document into N shards by deterministic subtree-hash
placement (:mod:`repro.sharding.placement`), gives each shard its own
index family over its own freezable :class:`~repro.graph.datagraph.DataGraph`,
and fronts the fleet with a combiner (:class:`ShardedEngine`) that fans
queries out and merges the per-shard answers with the compact data
plane's sorted-extent union kernel.  Updates are routed to the owning
shard inside one combiner write window.  See ``docs/sharding.md``.
"""

from repro.sharding.engine import ShardedEngine
from repro.sharding.placement import Placement, compute_placement

__all__ = [
    "Placement",
    "ShardedEngine",
    "compute_placement",
]
