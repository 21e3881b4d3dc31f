"""Wire format: length-prefixed frames with a fixed binary header.

Every message — request or response — is one *frame*::

    +----------------+---------------------------------------+
    | length: u32 BE | payload (length bytes)                |
    +----------------+---------------------------------------+

and every payload starts with a fixed header followed by a UTF-8 JSON
body.  Request header (``>HBBQI``, 16 bytes)::

    magic: u16 = 0x5258 ("RX") | version: u8 | opcode: u8
    request_id: u64            | budget_ms: u32

``budget_ms`` carries the per-request deadline: the number of
milliseconds the *client* grants the server, measured from the moment
the server finishes reading the frame.  :data:`NO_BUDGET`
(``0xFFFFFFFF``) means "no deadline" and round-trips to the engine's
``_UNSET`` sentinel, so the server-side ``default_timeout`` applies
exactly as for an in-process caller.

Response header (``>HBBBQ``, 13 bytes)::

    magic: u16 | version: u8 | status: u8 | opcode: u8 | request_id: u64

then one ``u32list`` (``u32 count``, ``count × u32``, little-endian —
the codec of :mod:`repro.storage.serialization`), then the JSON body.
The list carries the answer run of a ``QUERY`` ``OK`` reply (the
body's ``"answers"`` on both sides of the codec) and is empty on every
other reply, so the oids of a reply are never spelled in JSON.

The echoed ``request_id`` lets a client (and the trace spans tagged
with it) correlate responses under pipelining; ``status`` is a
:class:`Status` code — notably :attr:`Status.SHED` when admission
control rejected the request before it reached a worker.

Version 1 spelled the answers in the JSON body and had no list; a v1
frame is refused (``unsupported version 1``), never read.

All socket reads here are *bounded*: :func:`recv_exact` re-arms
``settimeout`` before every ``recv`` so a stalled peer raises
``socket.timeout`` instead of wedging a thread forever (this is also
what the ``repro lint`` determinism rule enforces for ``src/repro/net``
at large).
"""

from __future__ import annotations

import json
import socket
import struct
import time
from enum import IntEnum
from typing import TYPE_CHECKING

from repro.storage.serialization import pack_u32list, unpack_u32list

if TYPE_CHECKING:
    import threading

MAGIC = 0x5258  # "RX"
VERSION = 2
#: Hard ceiling on one frame's payload; anything larger is a protocol
#: error (the peer is broken or malicious), not a retry.
MAX_FRAME = 8 * 1024 * 1024
#: ``budget_ms`` wire value meaning "no deadline".
NO_BUDGET = 0xFFFFFFFF

_LENGTH = struct.Struct(">I")
_REQUEST = struct.Struct(">HBBQI")
_RESPONSE = struct.Struct(">HBBBQ")


class Opcode(IntEnum):
    PING = 1
    QUERY = 2
    INSERT_SUBTREE = 3
    ADD_REFERENCE = 4
    REFINE = 5
    STATS = 6


class Status(IntEnum):
    OK = 0
    #: Server-side failure while executing the request; body carries
    #: ``{"error": ...}``.
    ERROR = 1
    #: Admission control rejected the request (work queue full).  The
    #: connection stays usable — the client may retry or back off.
    SHED = 2
    #: The request could not be decoded.  The server closes the
    #: connection after sending this: framing cannot be resynchronised.
    BAD_REQUEST = 3


class ProtocolError(ValueError):
    """The byte stream violates the frame or header format."""


class FrameTooLarge(ProtocolError):
    """A frame announced a payload larger than :data:`MAX_FRAME`."""


# ----------------------------------------------------------------------
# Bounded socket I/O
# ----------------------------------------------------------------------
def recv_exact(sock: socket.socket, count: int,
               deadline: float | None = None,
               poll_s: float = 0.5,
               stop: "threading.Event | None" = None) -> bytes | None:
    """Read exactly ``count`` bytes, or ``None`` on EOF at offset 0.

    EOF *mid-buffer* raises :class:`ProtocolError` (the peer died in
    the middle of a frame).  ``deadline`` (a ``time.monotonic`` value)
    bounds the total wait; every individual ``recv`` is additionally
    capped at ``poll_s`` so ``stop`` (a ``threading.Event``-like object
    with ``is_set``) is honoured even against a silent peer — a set
    stop flag raises :class:`ConnectionAbortedError`.  Past the
    deadline raises ``socket.timeout``.
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        if stop is not None and stop.is_set():
            raise ConnectionAbortedError("reader stopped")
        wait = poll_s
        if deadline is not None:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise socket.timeout("recv deadline exceeded")
            wait = min(wait, budget)
        sock.settimeout(wait)
        try:
            chunk = sock.recv(remaining)
        except socket.timeout:
            if deadline is None:
                continue
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise
            continue
        if not chunk:
            if chunks:
                raise ProtocolError(
                    f"connection closed mid-frame ({count - remaining}"
                    f" of {count} bytes read)")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket,
               deadline: float | None = None,
               poll_s: float = 0.5,
               stop: "threading.Event | None" = None) -> bytes | None:
    """Read one frame's payload; ``None`` on clean EOF between frames."""
    header = recv_exact(sock, _LENGTH.size, deadline, poll_s, stop)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME:
        raise FrameTooLarge(f"frame of {length} bytes exceeds "
                            f"MAX_FRAME={MAX_FRAME}")
    if length == 0:
        raise ProtocolError("zero-length frame")
    payload = recv_exact(sock, length, deadline, poll_s, stop)
    if payload is None:
        raise ProtocolError("connection closed between length and payload")
    return payload


def write_frame(sock: socket.socket, payload: bytes,
                timeout_s: float = 30.0) -> None:
    """Send one frame (bounded by ``timeout_s`` against a stuck peer)."""
    if len(payload) > MAX_FRAME:
        raise FrameTooLarge(f"refusing to send {len(payload)}-byte frame")
    sock.settimeout(timeout_s)
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


# ----------------------------------------------------------------------
# Request / response codecs (bytes <-> python values; no socket)
# ----------------------------------------------------------------------
def encode_request(opcode: Opcode, request_id: int, body: dict,
                   budget_ms: int = NO_BUDGET) -> bytes:
    """One request payload (header + JSON body), ready for a frame."""
    if not 0 <= budget_ms <= NO_BUDGET:
        raise ProtocolError(f"budget_ms out of range: {budget_ms}")
    header = _REQUEST.pack(MAGIC, VERSION, int(opcode), request_id,
                           budget_ms)
    return header + json.dumps(body, sort_keys=True).encode("utf-8")


def decode_request(payload: bytes) -> tuple[Opcode, int, int | None, dict]:
    """``(opcode, request_id, budget_ms-or-None, body)`` from a payload.

    Raises :class:`ProtocolError` on bad magic/version/opcode or a body
    that is not a JSON object.
    """
    if len(payload) < _REQUEST.size:
        raise ProtocolError(f"request payload of {len(payload)} bytes is "
                            f"shorter than the {_REQUEST.size}-byte header")
    magic, version, opcode, request_id, budget_ms = _REQUEST.unpack_from(
        payload)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:04x}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    try:
        opcode = Opcode(opcode)
    except ValueError:
        raise ProtocolError(f"unknown opcode {opcode}") from None
    body = _json_object(payload[_REQUEST.size:], "request")
    budget = None if budget_ms == NO_BUDGET else budget_ms
    return opcode, request_id, budget, body


def _json_object(data: bytes, what: str) -> dict:
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"malformed {what} body: {exc}") from None
    if not isinstance(body, dict):
        raise ProtocolError(f"{what} body must be a JSON object")
    return body


def _carries_answers(status: int, opcode: int) -> bool:
    return status == Status.OK and opcode == Opcode.QUERY


def encode_response(status: Status, opcode: int, request_id: int,
                    body: dict) -> bytes:
    """One response payload: header, answer run, JSON body.

    On a ``QUERY`` ``OK`` reply ``body["answers"]`` (an ``Extent`` or
    any ascending ints) travels as the ``u32list``; every other key,
    and every other reply, is JSON behind an empty list.
    """
    answers = ()
    if _carries_answers(status, opcode) and "answers" in body:
        body = dict(body)
        answers = body.pop("answers")
    header = _RESPONSE.pack(MAGIC, VERSION, int(status), int(opcode),
                            request_id)
    return b"".join((header, pack_u32list(answers),
                     json.dumps(body, sort_keys=True).encode("utf-8")))


def decode_response(payload: bytes) -> tuple[Status, int, int, dict]:
    """``(status, opcode, request_id, body)`` from a response payload.

    A ``QUERY`` ``OK`` reply's run comes back as ``body["answers"]``, an
    ascending ``list[int]``.  Any payload that is not exactly a header,
    one ``u32list`` and a JSON object raises :class:`ProtocolError`.
    """
    if len(payload) < _RESPONSE.size:
        raise ProtocolError(f"response payload of {len(payload)} bytes is "
                            f"shorter than the {_RESPONSE.size}-byte header")
    magic, version, status, opcode, request_id = _RESPONSE.unpack_from(
        payload)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:04x}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    try:
        status = Status(status)
    except ValueError:
        raise ProtocolError(f"unknown status {status}") from None
    try:
        answers, start = unpack_u32list(payload, _RESPONSE.size)
    except ValueError as exc:
        raise ProtocolError(f"malformed answer run: {exc}") from None
    body = _json_object(payload[start:], "response")
    if _carries_answers(status, opcode):
        if "answers" in body:
            raise ProtocolError("QUERY reply spells its answers in JSON")
        body["answers"] = list(answers)
    elif answers:
        raise ProtocolError(f"{status.name} reply to opcode {opcode} "
                            f"carries a {len(answers)}-member answer run")
    return status, opcode, request_id, body
