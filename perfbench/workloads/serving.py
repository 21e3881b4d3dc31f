"""In-process serving: cache-hit reads, and reads beside writes."""

from __future__ import annotations

import random
from time import perf_counter

from repro import PathExpression
from repro.serving.replay import random_update

from perfbench import ladder
from perfbench.check import count_mismatches
from perfbench.config import UPDATE_SEED
from perfbench.engines import warm_serving
from perfbench.harness import Samples, read_burst, run_reads
from perfbench.workloads.base import Workload


def check_pinned(engine, distinct: list[PathExpression],
                 layers: dict[str, float]) -> int:
    """Served answers against the oracle of the same pinned epoch.

    The pin holds a reentrant writer mutex, so this thread may still
    query (even on the locked fallback path) while it is open.
    """
    with engine.pin() as snapshot:
        return count_mismatches(
            distinct, lambda query: engine.query(query).answers,
            snapshot.oracle, layers)


def serving_counters(layers: dict[str, float], before: dict,
                     after: dict) -> None:
    """Stats-snapshot deltas over one timed phase."""
    delta = {key: after[key] - before[key] for key in after}
    layers["serving.cache_hit_share"] = \
        delta["cache_hits"] / max(1, delta["queries"])
    for key in ("conflicts", "degraded", "timeouts"):
        layers[f"serving.{key}"] = delta[key]


class _OneServingEngine(Workload):
    """Shared by the workloads that own one warmed ``ServingEngine``;
    ``timed`` leaves stats snapshots in ``before`` / ``after``."""

    def setup(self) -> None:
        self.make_inputs()
        self.serving = warm_serving(self.env, self.inputs)

    def check(self) -> int:
        return check_pinned(self.serving, self.inputs.distinct,
                            self.env.layers)

    def indexes(self) -> list:
        return [self.serving.index]

    def finish(self) -> None:
        super().finish()
        layers = self.env.layers
        serving_counters(layers, self.before, self.after)
        core = self.serving.engine.stats.snapshot()
        layers["core.cache_hit_share"] = \
            core.cache_hits / max(1, core.queries)
        layers["core.refinements"] = core.refinements


class ServeHot(_OneServingEngine):
    name = "serve_hot"

    def setup(self) -> None:
        super().setup()
        self.script = self.blocks(self.env.sizes.hot_block_passes)

    def timed(self) -> Samples:
        samples = Samples()
        self.before = self.serving.stats.snapshot()
        run_reads(self.serving.query, self.script, samples)
        self.after = self.serving.stats.snapshot()
        return samples

    def extra(self) -> dict[str, str]:
        rungs = ladder.run_ladder(self.env, self.inputs, self.serving,
                                  self.rng)
        self.env.layers.update(rungs)
        return ladder.deltas(rungs)


class MixedRW(_OneServingEngine):
    """Rounds of reads then one write, refine_pending every few writes.

    One thread, so every counter repeats exactly for a seed.  Like
    adapt_cold's stream this is one non-repeating unit — a block that
    holds a costly update is not the equal of one that does not — so it
    is timed as a single block.
    """

    name = "mixed_rw"

    def setup(self) -> None:
        super().setup()
        self.rng = random.Random(self.env.seed)
        self.updates = random.Random(UPDATE_SEED)
        self.backlog: list[PathExpression] = []

    def reset(self) -> None:
        self.setup()

    def _next_reads(self, count: int) -> list[PathExpression]:
        queries = self.inputs.queries
        while len(self.backlog) < count:
            self.backlog.extend(self.rng.sample(queries, len(queries)))
        reads, self.backlog = self.backlog[:count], self.backlog[count:]
        return reads

    def timed(self) -> Samples:
        sizes = self.env.sizes
        serving = self.serving
        samples = Samples()
        self.before = serving.stats.snapshot()
        started = perf_counter()
        for number in range(1, sizes.mixed_rounds + 1):
            read_burst(serving.query,
                       self._next_reads(sizes.mixed_round_reads), samples)
            write_started = perf_counter()
            try:
                random_update(serving, self.updates)
            except Exception:  # noqa: BLE001 - counted, run goes on
                samples.fail()
            else:
                samples.write_lat.append(perf_counter() - write_started)
            operations = 1
            if number % sizes.mixed_refine_every == 0:
                operations += 1
                try:
                    serving.refine_pending()
                except Exception:  # noqa: BLE001 - counted, run goes on
                    samples.fail()
            samples.attempted += operations
        samples.block_s.append(perf_counter() - started)
        samples.block_ops.append(samples.attempted)
        self.after = serving.stats.snapshot()
        return samples
