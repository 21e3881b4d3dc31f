"""Out-of-core reads through a buffer pool smaller than the index file."""

from __future__ import annotations

import os
from time import perf_counter

from repro.storage import DiskMStarIndex

from perfbench.engines import refined_index
from perfbench.harness import Samples, read_burst, run_reads
from perfbench.taps import tap_disk
from perfbench.workloads.base import Workload

_POOL_COUNTERS = ("hits", "misses", "reads", "evictions")


class DiskSmallPool(Workload):
    name = "disk_small_pool"
    disk: DiskMStarIndex | None = None

    def setup(self) -> None:
        sizes, layers = self.env.sizes, self.env.layers
        self.make_inputs()
        self.index = refined_index(self.env, self.inputs)
        self.path = os.path.join(self.env.scratch, "xmark.rpdi")
        started = perf_counter()
        with DiskMStarIndex.build(self.index, self.path,
                                  page_size=sizes.page_size) as built:
            layers["storage.build_s"] = perf_counter() - started
            self.pages = built.page_count
        layers["storage.pages"] = self.pages
        layers["storage.file_bytes"] = os.path.getsize(self.path)
        layers["storage.bytes_per_data_node"] = \
            layers["storage.file_bytes"] / self.inputs.graph.num_nodes
        self.disk = self._open(max(1, self.pages // 10))
        self.script = self.blocks(sizes.disk_block_passes)

    def _open(self, buffer_pages: int) -> DiskMStarIndex:
        disk = DiskMStarIndex(self.path, self.inputs.graph,
                              buffer_pages=buffer_pages)
        tap_disk(self.env, disk)
        return disk

    def _pool(self, disk: DiskMStarIndex) -> dict[str, int]:
        return {key: getattr(disk.pool, key) for key in _POOL_COUNTERS}

    def timed(self) -> Samples:
        samples = Samples()
        self.before = self._pool(self.disk)
        run_reads(self.disk.query, self.script, samples)
        self.after = self._pool(self.disk)
        self.reads = len(samples.read_lat)
        return samples

    def check(self) -> int:
        return self.check_against_graph(
            lambda query: self.disk.query(query).answers)

    def indexes(self) -> list:
        return [self.index]

    def finish(self) -> None:
        super().finish()
        layers = self.env.layers
        delta = {key: self.after[key] - self.before[key]
                 for key in _POOL_COUNTERS}
        layers["storage.page_reads_per_query"] = \
            delta["reads"] / max(1, self.reads)
        layers["storage.pool_hit_share"] = \
            delta["hits"] / max(1, delta["hits"] + delta["misses"])
        layers["storage.evictions"] = delta["evictions"]

    def extra(self) -> None:
        """From cold with a pool twice the file: every page is decoded
        once and none evicted, which separates page-format cost from
        pager policy."""
        fit = self._open(2 * self.pages)
        try:
            samples = Samples()
            queries = self.inputs.queries
            started = perf_counter()
            read_burst(fit.query, queries, samples)
            elapsed = perf_counter() - started
            layers = self.env.layers
            layers["storage.fit_query_us"] = elapsed / len(queries) * 1e6
            layers["storage.fit_page_reads_per_query"] = \
                fit.pool.reads / len(queries)
        finally:
            fit.close()

    def close(self) -> None:
        if self.disk is not None:
            self.disk.close()
