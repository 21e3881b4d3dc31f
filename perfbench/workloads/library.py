"""Library use: the paper's own two settings, no serving layer."""

from __future__ import annotations

from time import perf_counter

from repro import AdaptiveIndexEngine

from perfbench.engines import refined_index
from perfbench.harness import Samples, run_reads
from perfbench.taps import tap_core
from perfbench.workloads.base import Workload


class LibReplay(Workload):
    name = "lib_replay"
    dataset = "nasa"

    def setup(self) -> None:
        self.make_inputs()
        self.index = refined_index(self.env, self.inputs)
        self.script = self.blocks(self.env.sizes.lib_block_passes)

    def timed(self) -> Samples:
        samples = Samples()
        run_reads(self.index.query, self.script, samples)
        return samples

    def check(self) -> int:
        return self.check_against_graph(
            lambda query: self.index.query(query).answers)

    def indexes(self) -> list:
        return [self.index]


class AdaptCold(Workload):
    """A stream executed once, in order, by an engine that has seen nothing.

    The stream is one non-repeating unit (refinements thin out along it),
    so it is timed as a single block: its rate is operations over elapsed
    time, not a median of unequal blocks.  It runs in the order the
    paper's generator emits it whatever the ``--seed``: which query comes
    first decides which refinements are the costly ones, and a per-seed
    shuffle moved ``read_p99_us`` by 20 %.
    """

    name = "adapt_cold"

    def setup(self) -> None:
        self.stream = self.make_inputs(self.env.sizes.adapt_stream).queries
        self.engine = self._fresh_engine()

    def reset(self) -> None:
        self.engine = self._fresh_engine()

    def _fresh_engine(self) -> AdaptiveIndexEngine:
        started = perf_counter()
        engine = AdaptiveIndexEngine(self.inputs.graph)
        self.env.layers["indexes.build_s"] = perf_counter() - started
        tap_core(self.env, engine)
        return engine

    def timed(self) -> Samples:
        samples = Samples()
        run_reads(self.engine.execute, [self.stream], samples)
        return samples

    def check(self) -> int:
        return self.check_against_graph(
            lambda query: self.engine.execute(query).answers)

    def indexes(self) -> list:
        return [self.engine.index]

    def finish(self) -> None:
        super().finish()
        layers = self.env.layers
        stats = self.engine.stats.snapshot()
        layers["core.cache_hit_share"] = stats.cache_hits / stats.queries
        layers["core.refinements"] = stats.refinements
