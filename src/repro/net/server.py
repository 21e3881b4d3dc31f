"""`IndexServer`: a threaded TCP front-end over a serving engine.

Thread anatomy (all daemon threads, owned by :meth:`IndexServer.start`
/ :meth:`IndexServer.stop`):

* one **accept** thread polls the listener (0.2 s timeout, so a stop
  request is honoured promptly) and spawns a reader per connection;
* one **reader** thread per connection parses frames and enqueues
  decoded requests on a *bounded* work queue.  A full queue is the
  admission-control signal: the reader answers
  :attr:`~repro.net.protocol.Status.SHED` itself, without touching the
  engine, and keeps the connection alive.  A malformed frame gets
  :attr:`~repro.net.protocol.Status.BAD_REQUEST` and the connection is
  closed — framing cannot be resynchronised after a bad header;
* ``workers`` **worker** threads drain the queue and call the engine.
  The wire ``budget_ms`` is converted to the engine's ``timeout``
  as *remaining* budget — measured from the moment the request was
  read off the socket, so queueing delay under overload eats into the
  deadline exactly as it should.  No budget on the wire round-trips to
  the engine's ``_UNSET`` sentinel (server ``default_timeout``
  applies).

A worker failure while executing a request, and a reply too large for
one frame, is answered with
:attr:`~repro.net.protocol.Status.ERROR`; a send failure (peer went
away mid-response) is counted and the worker moves on — neither wedges
the worker, and no code path between dequeue and response holds a
pinned snapshot, so an abusive client cannot stall writers.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.net import protocol as _p
from repro.obs import trace as _trace
from repro.serving.engine import _UNSET

if TYPE_CHECKING:
    from repro.indexes.maintenance import SubtreeSpec
    from repro.serving.engine import SnapshotReader

#: Submitted work items carry everything a worker needs; the reader
#: never blocks on the engine and the worker never touches the socket
#: except to send (under the connection's send lock).
class _Request:
    __slots__ = ("conn", "opcode", "request_id", "deadline", "body",
                 "received_at")

    def __init__(self, conn: "_Connection", opcode: int,
                 request_id: int, deadline: float | None, body: dict,
                 received_at: float) -> None:
        self.conn = conn
        self.opcode = opcode
        self.request_id = request_id
        self.deadline = deadline
        self.body = body
        self.received_at = received_at


class _Connection:
    """One accepted socket plus its send lock and liveness flag."""

    __slots__ = ("sock", "send_lock", "alive", "peer")

    def __init__(self, sock: socket.socket,
                 peer: "tuple[str, int]") -> None:
        self.sock = sock
        self.send_lock = threading.Lock()
        self.alive = True
        self.peer = peer

    def send(self, payload: bytes, io_timeout_s: float) -> bool:
        """Send one frame; ``False`` (and mark dead) on any send error."""
        with self.send_lock:
            if not self.alive:
                return False
            try:
                _p.write_frame(self.sock, payload, io_timeout_s)
                return True
            except OSError:
                self.alive = False
                return False

    def close(self) -> None:
        with self.send_lock:
            self.alive = False
            try:
                self.sock.close()
            except OSError:
                pass


def _as_subtree(node: "list | tuple") -> "SubtreeSpec":
    """JSON ``[label, [children...]]`` back to the tuple form."""
    label, children = node
    return (label, [_as_subtree(child) for child in children])


class IndexServer:
    """Serve a ``ServingEngine`` / ``ShardedEngine`` over TCP.

    ``max_queue`` bounds admitted-but-unserved requests; beyond it the
    server sheds instead of queueing unboundedly (see module docstring).
    ``port=0`` binds an ephemeral port — read :attr:`address` after
    :meth:`start`.  Usable as a context manager::

        with IndexServer(engine, port=0) as server:
            client = NetClient(*server.address)
    """

    def __init__(self, engine: "SnapshotReader",
                 host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 4, max_queue: int = 64,
                 io_timeout_s: float = 30.0) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.engine = engine
        self.host = host
        self.port = port
        self.workers = workers
        self.io_timeout_s = io_timeout_s
        self._queue: queue.Queue[_Request] = queue.Queue(maxsize=max_queue)
        self._stop = threading.Event()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        self._conn_ids = itertools.count(1)
        #: Server-side counters, guarded by ``_counter_lock``; exposed
        #: (with the engine's own stats) through the STATS RPC.
        self._counter_lock = threading.Lock()
        self.counters = {"connections": 0, "requests": 0, "responses": 0,
                         "shed": 0, "bad_requests": 0, "errors": 0,
                         "send_failures": 0}

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[:2]

    def _count(self, key: str, delta: int = 1) -> None:
        with self._counter_lock:
            self.counters[key] += delta

    def start(self) -> "IndexServer":
        if self._listener is not None:
            raise RuntimeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(128)
            listener.settimeout(0.2)
        except BaseException:
            # bind/listen can fail (port taken, bad host); without this
            # the fd leaks because stop() never sees the socket.
            listener.close()
            raise
        self._listener = listener
        self._stop.clear()
        self._threads = [threading.Thread(target=self._accept_loop,
                                          name="net-accept", daemon=True)]
        for worker_id in range(self.workers):
            self._threads.append(threading.Thread(
                target=self._worker_loop, name=f"net-worker-{worker_id}",
                daemon=True))
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        if self._listener is None:
            return
        self._stop.set()
        for thread in self._threads:
            thread.join()
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            conn.close()
        try:
            self._listener.close()
        finally:
            self._listener = None
            self._threads = []

    def __enter__(self) -> "IndexServer":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Accept + reader threads
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        # Re-armed here (not just in start()) so the lint liveness rule
        # can see the accept is bounded in the function that blocks.
        self._listener.settimeout(0.2)
        while not self._stop.is_set():
            try:
                sock, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, peer)
            with self._conn_lock:
                self._conns.add(conn)
            self._count("connections")
            reader = threading.Thread(
                target=self._reader_loop, args=(conn,),
                name=f"net-reader-{next(self._conn_ids)}", daemon=True)
            reader.start()

    def _reader_loop(self, conn: _Connection) -> None:
        try:
            while not self._stop.is_set():
                try:
                    payload = _p.read_frame(conn.sock, stop=self._stop)
                except (_p.ProtocolError, ConnectionAbortedError, OSError):
                    # Mid-frame EOF, oversized frame, abort on stop, or
                    # a socket error: nothing more can be parsed.
                    if not self._stop.is_set():
                        self._count("bad_requests")
                        self._send_error(conn, _p.Status.BAD_REQUEST, 0, 0,
                                         "unreadable frame")
                    return
                if payload is None:  # clean EOF between frames
                    return
                received_at = time.monotonic()
                try:
                    opcode, request_id, budget_ms, body = \
                        _p.decode_request(payload)
                except _p.ProtocolError as exc:
                    self._count("bad_requests")
                    self._send_error(conn, _p.Status.BAD_REQUEST, 0, 0,
                                     str(exc))
                    return
                self._count("requests")
                deadline = None if budget_ms is None else \
                    received_at + budget_ms / 1000.0
                request = _Request(conn, opcode, request_id, deadline,
                                   body, received_at)
                try:
                    self._queue.put_nowait(request)
                except queue.Full:
                    # Admission control: answer SHED from the reader —
                    # the engine is never touched, the connection lives.
                    self._count("shed")
                    shed = _p.encode_response(_p.Status.SHED, opcode,
                                              request_id, {})
                    if not conn.send(shed, self.io_timeout_s):
                        self._count("send_failures")
                        return
        finally:
            conn.close()
            with self._conn_lock:
                self._conns.discard(conn)

    def _send_error(self, conn: _Connection, status: _p.Status,
                    opcode: int, request_id: int, message: str) -> None:
        payload = _p.encode_response(status, opcode, request_id,
                                     {"error": message})
        if not conn.send(payload, self.io_timeout_s):
            self._count("send_failures")

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            try:
                request = self._queue.get(timeout=0.2)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            tracer = _trace.TRACER
            span = tracer.span("net.request", request_id=request.request_id,
                               opcode=_p.Opcode(request.opcode).name) \
                if tracer.enabled else _trace.NULL_SPAN
            with span:
                status, payload = self._respond(request)
                span.tag(status=status.name)
            if request.conn.send(payload, self.io_timeout_s):
                self._count("responses")
            else:
                self._count("send_failures")

    def _respond(self, request: _Request) -> tuple[_p.Status, bytes]:
        """Execute and encode; any failure, an unsendable reply included,
        becomes an ``ERROR`` reply so the worker keeps serving."""
        try:
            status, body = self._execute(request)
            payload = _p.encode_response(status, request.opcode,
                                         request.request_id, body)
        except Exception as exc:  # noqa: BLE001 - reported to client
            message = repr(exc)
        else:
            if len(payload) <= _p.MAX_FRAME:
                return status, payload
            message = f"reply of {len(payload)} bytes exceeds MAX_FRAME"
        self._count("errors")
        return _p.Status.ERROR, _p.encode_response(
            _p.Status.ERROR, request.opcode, request.request_id,
            {"error": message})

    def _timeout_for(self, request: _Request) -> Any:
        """Remaining budget at execution time (or the shared sentinel)."""
        if request.deadline is None:
            return _UNSET
        return max(request.deadline - time.monotonic(), 0.0)

    def _execute(self, request: _Request) -> tuple[_p.Status, dict]:
        body = request.body
        opcode = request.opcode
        if opcode == _p.Opcode.PING:
            return _p.Status.OK, {"pong": body.get("payload", "")}
        if opcode == _p.Opcode.QUERY:
            result = self.engine.query(body["expr"],
                                       timeout=self._timeout_for(request))
            return _p.Status.OK, {
                "answers": result.answers,
                "validated": result.validated,
                "epoch": result.epoch,
                "degraded": result.degraded,
                "timed_out": result.timed_out,
                "cache_hit": result.cache_hit,
                "fallback": result.fallback,
                "attempts": result.attempts,
                "conflicts": result.conflicts,
                "duration_s": result.duration_s,
            }
        if opcode == _p.Opcode.INSERT_SUBTREE:
            new_oids = self.engine.insert_subtree(
                int(body["parent_oid"]), _as_subtree(body["subtree"]))
            return _p.Status.OK, {"new_oids": list(new_oids)}
        if opcode == _p.Opcode.ADD_REFERENCE:
            self.engine.add_reference(int(body["source_oid"]),
                                      int(body["target_oid"]))
            return _p.Status.OK, {}
        if opcode == _p.Opcode.REFINE:
            limit = body.get("limit")
            applied = self.engine.refine_pending(
                None if limit is None else int(limit))
            return _p.Status.OK, {"applied": applied}
        if opcode == _p.Opcode.STATS:
            with self._counter_lock:
                server = dict(self.counters)
            server["queued"] = self._queue.qsize()
            return _p.Status.OK, {"engine": self.engine.stats.snapshot(),
                                  "epoch": self.engine.epoch,
                                  "server": server}
        return _p.Status.BAD_REQUEST, {"error": f"unhandled opcode {opcode}"}
