"""The sharded combiner over the same traffic as serve_hot."""

from __future__ import annotations

from repro.sharding import ShardedEngine

from perfbench.engines import warm_sharded
from perfbench.harness import Samples, run_reads
from perfbench.workloads.base import Workload
from perfbench.workloads.serving import check_pinned, serving_counters


def shard_serving_totals(engine: ShardedEngine) -> dict[str, int]:
    """The shards' own serving counters, summed."""
    totals: dict[str, int] = {}
    for shard in engine.shards:
        for key, value in shard.serving.stats.snapshot().items():
            totals[key] = totals.get(key, 0) + value
    return totals


class Shard4(Workload):
    name = "shard4"
    num_shards = 4

    def setup(self) -> None:
        self.make_inputs()
        self.engine = warm_sharded(self.env, self.inputs, self.num_shards)
        self.script = self.blocks(self.env.sizes.shard_block_passes)

    def timed(self) -> Samples:
        samples = Samples()
        self.before = (self.engine.stats.snapshot(),
                       shard_serving_totals(self.engine))
        run_reads(self.engine.query, self.script, samples)
        self.after = (self.engine.stats.snapshot(),
                      shard_serving_totals(self.engine))
        return samples

    def check(self) -> int:
        return check_pinned(self.engine, self.inputs.distinct,
                            self.env.layers)

    def indexes(self) -> list:
        return [shard.serving.index for shard in self.engine.shards]

    def finish(self) -> None:
        super().finish()
        layers = self.env.layers
        (combiner_before, shards_before) = self.before
        (combiner_after, shards_after) = self.after
        queries = combiner_after["queries"] - combiner_before["queries"]
        layers["sharding.fallback_share"] = \
            (combiner_after["fallbacks"] - combiner_before["fallbacks"]) \
            / max(1, queries)
        layers["sharding.refinements"] = combiner_after["refinements"]
        serving_counters(layers, shards_before, shards_after)
