"""The served product: a server child process and two connections."""

from __future__ import annotations

import threading
from time import perf_counter

from repro.net import NetClient

from perfbench import stats
from perfbench.config import DATASET_SEED
from perfbench.engines import warm
from perfbench.harness import Samples, run_reads
from perfbench.taps import tap_client
from perfbench.wire import ServerProcess
from perfbench.workloads.base import Workload
from perfbench.workloads.serving import serving_counters


class Wire2Conn(Workload):
    """Closed loop, one thread per connection (2 = this host's cores).

    The document generated here from the same seed is the local mirror
    the served answers are checked against; the query list needs it too.
    """

    name = "wire_2conn"
    connections = 2
    server: ServerProcess | None = None

    def setup(self) -> None:
        sizes = self.env.sizes
        self.clients: list[NetClient] = []
        self.make_inputs()
        started = perf_counter()
        self.server = ServerProcess(self.env.repo_root, self.dataset,
                                    sizes.scale, DATASET_SEED)
        self.env.layers["net.server_start_s"] = perf_counter() - started
        for _ in range(self.connections):
            client = NetClient(self.server.host, self.server.port)
            self.clients.append(client)
            tap_client(self.env, client)
        first = self.clients[0]
        warm(first.query, first.refine,
             [str(query) for query in self.inputs.queries])
        self.scripts = [
            [[str(query) for query in block]
             for block in self.blocks(sizes.wire_block_passes)]
            for _ in self.clients]

    def timed(self) -> Samples:
        per_client = [Samples() for _ in self.clients]
        barrier = threading.Barrier(len(self.clients))

        def drive(client: NetClient, script: list, samples: Samples) -> None:
            barrier.wait()
            # The reply carries no cost, so visits are not observable.
            run_reads(client.query, script, samples, cost_of=None)

        self.before = self.clients[0].stats()
        threads = [threading.Thread(target=drive, args=job,
                                    name=f"perfbench-conn-{number}")
                   for number, job in enumerate(
                       zip(self.clients, self.scripts, per_client))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.after = self.clients[0].stats()

        merged = Samples(ops_per_s=sum(
            stats.median_rate(one.block_ops, one.block_s)
            for one in per_client))
        for one in per_client:
            merged.read_lat += one.read_lat
            merged.block_ops += one.block_ops
            merged.block_s += one.block_s
            merged.attempted += one.attempted
            merged.failed += one.failed
            merged.first_error = merged.first_error or one.first_error
        return merged

    def check(self) -> int:
        client = self.clients[0]
        return self.check_against_graph(
            lambda query: client.query(str(query))["answers"])

    def finish(self) -> None:
        layers = self.env.layers
        serving_counters(layers, self.before["engine"], self.after["engine"])
        for key in ("shed", "errors"):
            layers[f"net.{key}"] = \
                self.after["server"][key] - self.before["server"][key]

    def extra(self) -> None:
        client = self.clients[0]
        pings = self.env.sizes.pings
        started = perf_counter()
        for _ in range(pings):
            client.ping()
        self.env.layers["net.ping_us"] = \
            (perf_counter() - started) / pings * 1e6

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.stop()
