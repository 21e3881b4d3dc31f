"""Network front-end for the serving engines.

Layers, bottom up:

* :mod:`repro.net.protocol` — the length-prefixed binary frame format
  and request/response codecs (pure functions over sockets + bytes; no
  engine knowledge);
* :mod:`repro.net.server` — :class:`~repro.net.server.IndexServer`, a
  threaded accept loop feeding a bounded work queue drained by workers
  that call into a :class:`~repro.serving.engine.ServingEngine` or
  :class:`~repro.sharding.engine.ShardedEngine`;
* :mod:`repro.net.client` — :class:`~repro.net.client.NetClient`, a
  blocking single-connection RPC client;
* :mod:`repro.net.loadgen` — the ``repro loadgen`` workload driver:
  replays a workload over N connections and reports
  p50/p95/p99 latency, saturation throughput, and the over-the-wire
  ``content_digest`` for comparison with in-process replay.

See ``docs/network.md`` for the frame format and deadline semantics.
"""

from repro.net.client import LoadShedError, NetClient, NetError, RemoteError
from repro.net.protocol import (FrameTooLarge, Opcode, ProtocolError, Status)
from repro.net.server import IndexServer

__all__ = [
    "FrameTooLarge", "IndexServer", "LoadShedError", "NetClient",
    "NetError", "Opcode", "ProtocolError", "RemoteError", "Status",
]
