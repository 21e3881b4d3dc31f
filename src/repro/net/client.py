"""`NetClient`: blocking single-connection RPC client.

One outstanding request at a time (request ids still increment and are
validated on every response, so a desynchronised stream is an error,
never a wrong answer).  Thread-compatible the same way a file object
is: guard with your own lock or give each thread its own client — the
load generator does the latter, one client per connection thread.
"""

from __future__ import annotations

import itertools
import socket
import time
from typing import TYPE_CHECKING

from repro.net import protocol as _p

if TYPE_CHECKING:
    from repro.indexes.maintenance import SubtreeSpec


class NetError(ConnectionError):
    """Transport-level failure (connection lost, protocol violation)."""


class RemoteError(RuntimeError):
    """The server executed the request and reported a failure."""


class LoadShedError(RuntimeError):
    """Admission control rejected the request (server overloaded).

    The connection remains usable; back off and retry if appropriate.
    """


class NetClient:
    """Connect to an :class:`~repro.net.server.IndexServer`.

    ``budget_ms`` (per call or via ``default_budget_ms``) is the
    deadline granted to the server; ``io_timeout_s`` bounds this
    client's own socket waits and must comfortably exceed any budget.
    """

    def __init__(self, host: str, port: int, *,
                 default_budget_ms: int | None = None,
                 io_timeout_s: float = 30.0,
                 connect_timeout_s: float = 5.0) -> None:
        self.default_budget_ms = default_budget_ms
        self.io_timeout_s = io_timeout_s
        self._ids = itertools.count(1)
        self._sock = socket.create_connection((host, port),
                                              timeout=connect_timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _call(self, opcode: _p.Opcode, body: dict,
              budget_ms: int | None = None) -> dict:
        if budget_ms is None:
            budget_ms = self.default_budget_ms
        wire_budget = _p.NO_BUDGET if budget_ms is None else int(budget_ms)
        request_id = next(self._ids)
        payload = _p.encode_request(opcode, request_id, body, wire_budget)
        deadline = time.monotonic() + self.io_timeout_s
        try:
            _p.write_frame(self._sock, payload, self.io_timeout_s)
            response = _p.read_frame(self._sock, deadline=deadline)
        except (OSError, _p.ProtocolError) as exc:
            raise NetError(f"transport failure during "
                           f"{opcode.name}: {exc}") from exc
        if response is None:
            raise NetError(f"server closed the connection during "
                           f"{opcode.name}")
        try:
            status, r_opcode, r_id, r_body = _p.decode_response(response)
        except _p.ProtocolError as exc:
            raise NetError(f"bad response frame: {exc}") from exc
        if r_id != request_id:
            raise NetError(f"response id {r_id} does not match "
                           f"request id {request_id}")
        if status is _p.Status.OK:
            return r_body
        if status is _p.Status.SHED:
            raise LoadShedError(f"{opcode.name} load-shed by server")
        message = r_body.get("error", "<no detail>")
        if status is _p.Status.BAD_REQUEST:
            raise NetError(f"server rejected {opcode.name}: {message}")
        raise RemoteError(f"{opcode.name} failed remotely: {message}")

    # ------------------------------------------------------------------
    def ping(self, payload: str = "") -> str:
        return self._call(_p.Opcode.PING, {"payload": payload})["pong"]

    def query(self, expr: str, budget_ms: int | None = None) -> dict:
        """Answer a path expression; see the QUERY response schema in
        ``docs/network.md``.  ``answers`` arrives as the reply's packed
        run and comes back as an ascending ``list[int]``."""
        return self._call(_p.Opcode.QUERY, {"expr": str(expr)}, budget_ms)

    def insert_subtree(self, parent_oid: int,
                       subtree: "SubtreeSpec") -> list[int]:
        body = {"parent_oid": int(parent_oid),
                "subtree": _as_jsonable(subtree)}
        return self._call(_p.Opcode.INSERT_SUBTREE, body)["new_oids"]

    def add_reference(self, source_oid: int, target_oid: int) -> None:
        self._call(_p.Opcode.ADD_REFERENCE,
                   {"source_oid": int(source_oid),
                    "target_oid": int(target_oid)})

    def refine(self, limit: int | None = None) -> int:
        return self._call(_p.Opcode.REFINE, {"limit": limit})["applied"]

    def stats(self) -> dict:
        return self._call(_p.Opcode.STATS, {})


def _as_jsonable(subtree: "SubtreeSpec") -> list:
    """Tuple subtree ``(label, [children])`` to JSON-ready nested lists."""
    label, children = subtree
    return [label, [_as_jsonable(child) for child in children]]
