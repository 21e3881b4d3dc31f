"""Wire-format tests: codecs and bounded framing (repro.net.protocol).

The codec half runs on bytes alone; the framing half drives
:func:`read_frame` / :func:`write_frame` over a local ``socketpair`` so
partial frames, oversized announcements, and mid-frame disconnects are
exercised against real socket semantics.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.extents import Extent
from repro.net import protocol as _p
from tests.conftest import MAX_OID, ascending_runs

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "net")


def v1_fixture(name: str) -> bytes:
    with open(os.path.join(FIXTURES, name), "rb") as handle:
        return handle.read()


def query_reply(answers, request_id: int = 7) -> bytes:
    """A QUERY OK payload shaped like the server's."""
    return _p.encode_response(_p.Status.OK, _p.Opcode.QUERY, request_id, {
        "answers": answers, "validated": True, "epoch": 3,
        "degraded": False, "timed_out": False, "cache_hit": True,
        "fallback": False, "attempts": 1, "conflicts": 0,
        "duration_s": 1.5e-05})


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestRequestCodec:
    def test_round_trip_with_budget(self):
        payload = _p.encode_request(_p.Opcode.QUERY, 42,
                                    {"expr": "//a/c"}, budget_ms=250)
        opcode, request_id, budget, body = _p.decode_request(payload)
        assert opcode is _p.Opcode.QUERY
        assert request_id == 42
        assert budget == 250
        assert body == {"expr": "//a/c"}

    def test_no_budget_round_trips_to_none(self):
        payload = _p.encode_request(_p.Opcode.PING, 1, {})
        _, _, budget, _ = _p.decode_request(payload)
        assert budget is None

    def test_budget_zero_is_not_none(self):
        """A zero budget means "already due", not "no deadline"."""
        payload = _p.encode_request(_p.Opcode.QUERY, 1, {"expr": "/r"},
                                    budget_ms=0)
        _, _, budget, _ = _p.decode_request(payload)
        assert budget == 0

    def test_budget_out_of_range_rejected(self):
        with pytest.raises(_p.ProtocolError):
            _p.encode_request(_p.Opcode.PING, 1, {},
                              budget_ms=_p.NO_BUDGET + 1)
        with pytest.raises(_p.ProtocolError):
            _p.encode_request(_p.Opcode.PING, 1, {}, budget_ms=-1)

    def test_bad_magic_rejected(self):
        payload = _p.encode_request(_p.Opcode.PING, 1, {})
        corrupted = b"\x00\x00" + payload[2:]
        with pytest.raises(_p.ProtocolError, match="magic"):
            _p.decode_request(corrupted)

    def test_bad_version_rejected(self):
        payload = _p.encode_request(_p.Opcode.PING, 1, {})
        corrupted = payload[:2] + bytes([99]) + payload[3:]
        with pytest.raises(_p.ProtocolError, match="version"):
            _p.decode_request(corrupted)

    def test_unknown_opcode_rejected(self):
        payload = _p.encode_request(_p.Opcode.PING, 1, {})
        corrupted = payload[:3] + bytes([0xEE]) + payload[4:]
        with pytest.raises(_p.ProtocolError, match="opcode"):
            _p.decode_request(corrupted)

    def test_truncated_header_rejected(self):
        with pytest.raises(_p.ProtocolError, match="shorter"):
            _p.decode_request(b"\x52\x58\x01")

    def test_malformed_json_body_rejected(self):
        payload = _p.encode_request(_p.Opcode.PING, 1, {})
        header = payload[:16]
        with pytest.raises(_p.ProtocolError, match="malformed"):
            _p.decode_request(header + b"{not json")

    def test_non_object_body_rejected(self):
        payload = _p.encode_request(_p.Opcode.PING, 1, {})
        header = payload[:16]
        with pytest.raises(_p.ProtocolError, match="object"):
            _p.decode_request(header + b"[1, 2]")


class TestResponseCodec:
    def test_round_trip(self):
        payload = _p.encode_response(_p.Status.OK, _p.Opcode.QUERY, 7,
                                     {"answers": [4, 5]})
        status, opcode, request_id, body = _p.decode_response(payload)
        assert status is _p.Status.OK
        assert opcode == _p.Opcode.QUERY
        assert request_id == 7
        assert body == {"answers": [4, 5]}

    def test_every_status_round_trips(self):
        for status in _p.Status:
            payload = _p.encode_response(status, _p.Opcode.PING, 3, {})
            decoded, _, _, _ = _p.decode_response(payload)
            assert decoded is status

    def test_unknown_status_rejected(self):
        payload = _p.encode_response(_p.Status.OK, _p.Opcode.PING, 3, {})
        corrupted = payload[:3] + bytes([0xEE]) + payload[4:]
        with pytest.raises(_p.ProtocolError, match="status"):
            _p.decode_response(corrupted)

    def test_truncated_header_rejected(self):
        with pytest.raises(_p.ProtocolError, match="shorter"):
            _p.decode_response(b"\x52\x58")


class TestAnswerRun:
    """A QUERY reply carries its answers as one packed ``u32list``
    between the header and the JSON body, never as JSON."""

    @settings(max_examples=60, deadline=None)
    @given(ascending_runs())
    @example([])
    @example([0])
    @example([MAX_OID])
    @example(list(range(100_000)))
    def test_round_trip(self, answers):
        payload = query_reply(Extent.from_sorted(answers))
        assert payload == query_reply(answers)
        status, opcode, request_id, body = _p.decode_response(payload)
        assert (status, opcode, request_id) == (_p.Status.OK,
                                                _p.Opcode.QUERY, 7)
        assert body["answers"] == answers
        assert type(body["answers"]) is list
        assert body["epoch"] == 3 and body["cache_hit"] is True

    def test_layout_is_header_then_run_then_json(self):
        payload = query_reply([4, 5])
        assert payload[13:25] == struct.pack("<3I", 2, 4, 5)
        assert b"answers" not in payload
        assert payload[25:26] == b"{"

    def test_other_replies_carry_an_empty_run(self):
        for status, opcode in ((_p.Status.OK, _p.Opcode.PING),
                               (_p.Status.ERROR, _p.Opcode.QUERY),
                               (_p.Status.SHED, _p.Opcode.QUERY)):
            payload = _p.encode_response(status, opcode, 1, {"x": 1})
            assert payload[13:17] == b"\0\0\0\0"
            assert _p.decode_response(payload)[3] == {"x": 1}

    def test_every_truncation_raises_protocol_error(self):
        payload = query_reply(list(range(0, 600, 3)))
        for cut in range(len(payload)):
            with pytest.raises(_p.ProtocolError):
                _p.decode_response(payload[:cut])

    def test_every_overrunning_count_raises_protocol_error(self):
        answers = list(range(0, 600, 3))
        payload = query_reply(answers)
        room = (len(payload) - 17) // 4
        counts = list(range(room + 1, room + 64)) + [2**31, 2**32 - 1]
        for count in counts:
            forged = payload[:13] + struct.pack("<I", count) + payload[17:]
            with pytest.raises(_p.ProtocolError, match="answer run"):
                _p.decode_response(forged)

    def test_answers_spelled_in_json_are_refused(self):
        header = query_reply([])[:17]
        with pytest.raises(_p.ProtocolError, match="JSON"):
            _p.decode_response(header + b'{"answers": [1, 2]}')

    def test_a_run_on_a_reply_without_answers_is_refused(self):
        payload = _p.encode_response(_p.Status.OK, _p.Opcode.PING, 1, {})
        forged = payload[:13] + struct.pack("<2I", 1, 9) + payload[17:]
        with pytest.raises(_p.ProtocolError, match="answer run"):
            _p.decode_response(forged)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(_p.Status)),
           st.sampled_from(list(_p.Opcode)), st.binary(max_size=96))
    def test_arbitrary_bytes_after_a_header_decode_or_raise_protocol_error(
            self, status, opcode, tail):
        header = _p.encode_response(status, opcode, 5, {})[:13]
        try:
            _p.decode_response(header + tail)
        except _p.ProtocolError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=96))
    def test_bytes_after_a_valid_run_decode_or_raise_protocol_error(
            self, tail):
        header = query_reply([1, 2, 3])[:29]
        try:
            _p.decode_response(header + tail)
        except _p.ProtocolError:
            pass

    def test_deeply_nested_json_is_a_protocol_error(self):
        header = query_reply([])[:17]
        with pytest.raises(_p.ProtocolError, match="malformed"):
            _p.decode_response(header + b"[" * 100_000)


class TestVersionOneRefused:
    """Fixtures written by the version 1 encoder (see
    ``tests/fixtures/net/README.md``): there is no v1 decode path."""

    def test_v1_reply_is_refused(self):
        with pytest.raises(_p.ProtocolError, match="unsupported version 1"):
            _p.decode_response(v1_fixture("v1_query_reply.bin"))

    def test_v1_request_is_refused(self):
        with pytest.raises(_p.ProtocolError, match="unsupported version 1"):
            _p.decode_request(v1_fixture("v1_query_request.bin"))

    def test_fixtures_are_version_1_frames(self):
        assert v1_fixture("v1_query_request.bin")[:3] == b"RX\x01"
        reply = v1_fixture("v1_query_reply.bin")
        assert reply[:3] == b"RX\x01" and b'"answers": [4, 5]' in reply


class TestFraming:
    def test_write_then_read_round_trips(self, pair):
        left, right = pair
        _p.write_frame(left, b"hello frame")
        assert _p.read_frame(right) == b"hello frame"

    def test_back_to_back_frames_stay_separated(self, pair):
        left, right = pair
        _p.write_frame(left, b"one")
        _p.write_frame(left, b"two")
        assert _p.read_frame(right) == b"one"
        assert _p.read_frame(right) == b"two"

    def test_clean_eof_between_frames_returns_none(self, pair):
        left, right = pair
        _p.write_frame(left, b"last")
        left.close()
        assert _p.read_frame(right) == b"last"
        assert _p.read_frame(right) is None

    def test_eof_inside_length_prefix_is_protocol_error(self, pair):
        left, right = pair
        left.sendall(b"\x00\x00")  # half a length prefix, then gone
        left.close()
        with pytest.raises(_p.ProtocolError, match="mid-frame"):
            _p.read_frame(right)

    def test_eof_inside_payload_is_protocol_error(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 100) + b"only ten b")
        left.close()
        with pytest.raises(_p.ProtocolError, match="mid-frame"):
            _p.read_frame(right)

    def test_eof_between_length_and_payload_is_protocol_error(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 8))
        left.close()
        with pytest.raises(_p.ProtocolError, match="between length"):
            _p.read_frame(right)

    def test_oversized_announcement_raises_frame_too_large(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", _p.MAX_FRAME + 1))
        with pytest.raises(_p.FrameTooLarge):
            _p.read_frame(right)

    def test_zero_length_frame_is_protocol_error(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 0))
        with pytest.raises(_p.ProtocolError, match="zero-length"):
            _p.read_frame(right)

    def test_write_refuses_oversized_payload(self, pair):
        left, _ = pair
        with pytest.raises(_p.FrameTooLarge):
            _p.write_frame(left, b"\x00" * (_p.MAX_FRAME + 1))

    def test_deadline_expiry_raises_socket_timeout(self, pair):
        _, right = pair  # the peer stays silent
        started = time.monotonic()
        with pytest.raises(socket.timeout):
            _p.read_frame(right, deadline=time.monotonic() + 0.1,
                          poll_s=0.02)
        assert time.monotonic() - started < 5.0

    def test_stop_event_aborts_a_blocked_read(self, pair):
        """A reader parked on a silent peer honours the stop flag — the
        mechanism ``IndexServer.stop`` relies on to join its readers."""
        _, right = pair
        stop = threading.Event()
        outcome: list[BaseException] = []

        def read() -> None:
            try:
                _p.read_frame(right, poll_s=0.02, stop=stop)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome.append(exc)

        thread = threading.Thread(target=read)
        thread.start()
        time.sleep(0.05)
        stop.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(outcome) == 1
        assert isinstance(outcome[0], ConnectionAbortedError)

    def test_split_delivery_reassembles(self, pair):
        """A frame trickled in byte-sized chunks still reads whole."""
        left, right = pair
        payload = _p.encode_request(_p.Opcode.PING, 9, {"payload": "x"})
        frame = struct.pack(">I", len(payload)) + payload

        def trickle() -> None:
            for offset in range(len(frame)):
                left.sendall(frame[offset:offset + 1])
                time.sleep(0.001)

        thread = threading.Thread(target=trickle)
        thread.start()
        received = _p.read_frame(right, deadline=time.monotonic() + 10.0)
        thread.join(timeout=5.0)
        assert received == payload
        opcode, request_id, _, body = _p.decode_request(received)
        assert (opcode, request_id, body) == (_p.Opcode.PING, 9,
                                              {"payload": "x"})
