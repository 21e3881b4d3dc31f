"""What every workload provides to the runner."""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable

from repro import PathExpression, index_size
from repro.queries.evaluator import evaluate_on_data_graph

from perfbench.check import count_mismatches
from perfbench.config import BLOCKS
from perfbench.harness import Env, Samples
from perfbench.inputs import Inputs, make_inputs
from perfbench.script import read_blocks


class Workload:
    """Set-up, a re-runnable timed phase, an answer check, and counters.

    A traced run calls :meth:`timed` twice — first with the wrappers
    removed, for the reference rate, then :meth:`reset`, then traced — and
    both calls must do the same work.
    """

    dataset = "xmark"
    inputs: Inputs

    def __init__(self, env: Env) -> None:
        self.env = env
        self.rng = random.Random(env.seed)

    def make_inputs(self, num_queries: int | None = None) -> Inputs:
        self.inputs = make_inputs(self.dataset, self.env.sizes,
                                  self.env.layers, num_queries)
        return self.inputs

    def blocks(self, passes_per_block: int) -> list[list[PathExpression]]:
        return read_blocks(self.inputs.queries, BLOCKS, passes_per_block,
                           self.rng)

    def check_against_graph(self, ask: Callable[[PathExpression],
                                                Iterable[int]]) -> int:
        graph = self.inputs.graph
        return count_mismatches(
            self.inputs.distinct, ask,
            lambda query: evaluate_on_data_graph(graph, query),
            self.env.layers)

    # -- the runner's interface -----------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def timed(self) -> Samples:
        raise NotImplementedError

    def check(self) -> int:
        """Mismatching distinct queries after the last timed phase."""
        raise NotImplementedError

    def indexes(self) -> list:
        """The indexes this workload can reach (one per shard)."""
        return []

    def finish(self) -> None:
        """Read the layers' public counters into ``env.layers``; here,
        the paper's size metric summed over :meth:`indexes`."""
        sizes = [index_size(index) for index in self.indexes()]
        if sizes:
            self.env.layers["indexes.nodes"] = sum(s.nodes for s in sizes)
            self.env.layers["indexes.edges"] = sum(s.edges for s in sizes)

    def reset(self) -> None:
        """Called between the two timed phases of a traced run, by
        workloads whose timed phase leaves state behind."""

    def extra(self) -> dict[str, str] | None:
        """Ungated measurements of a traced run (wrappers removed);
        may return notes to print beside its metrics."""

    def close(self) -> None:
        """Release processes and files; must be safe after any failure."""

