"""IndexServer + NetClient behaviour tests (repro.net).

Covers the RPC surface end-to-end over loopback, plus the abuse matrix
the ISSUE calls out: partial and oversized frames, malformed payloads,
disconnects mid-exchange, and admission-control shedding — none of
which may wedge a worker thread or leave the engine's writers stalled
behind a leaked pinned snapshot.
"""

from __future__ import annotations

import contextlib
import os
import socket
import struct
import threading
import time
from array import array
from collections.abc import Callable

import pytest

from repro.core.extents import Extent
from repro.net import protocol as _p
from repro.net.client import LoadShedError, NetClient, NetError, RemoteError
from repro.net.server import IndexServer
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import as_expression
from repro.serving.engine import _UNSET, ServingEngine


@pytest.fixture
def served(simple_tree):
    serving = ServingEngine(simple_tree)
    with IndexServer(serving, port=0, workers=2) as server:
        yield serving, server


@pytest.fixture
def client(served):
    _, server = served
    with NetClient(*server.address) as net_client:
        yield net_client


def raw_connect(server: IndexServer) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def raw_response(sock: socket.socket):
    payload = _p.read_frame(sock, deadline=time.monotonic() + 10.0)
    assert payload is not None, "server closed before responding"
    return _p.decode_response(payload)


def v1_fixture(name: str) -> bytes:
    path = os.path.join(os.path.dirname(__file__), "fixtures", "net", name)
    with open(path, "rb") as handle:
        return handle.read()


@contextlib.contextmanager
def one_reply_server(reply: "Callable[[int], bytes]"):
    """A fake server for one request: it answers with the payload
    ``reply(request_id)`` builds and closes.  Yields its address."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def answer() -> None:
        sock, _ = listener.accept()
        with sock:
            payload = _p.read_frame(sock, deadline=time.monotonic() + 5)
            _, request_id, _, _ = _p.decode_request(payload)
            _p.write_frame(sock, reply(request_id))

    thread = threading.Thread(target=answer)
    thread.start()
    try:
        yield listener.getsockname()[:2]
    finally:
        thread.join(timeout=5.0)
        listener.close()


def assert_writers_not_stalled(serving: ServingEngine) -> None:
    """A leaked pinned snapshot would park this insert forever."""
    box: list[list[int]] = []
    thread = threading.Thread(
        target=lambda: box.append(
            serving.insert_subtree(0, ("probe", []))))
    thread.start()
    thread.join(timeout=5.0)
    assert not thread.is_alive(), "writer stalled: a snapshot pin leaked"
    assert box and box[0]


class TestRpcSurface:
    def test_ping_round_trips(self, client):
        assert client.ping("hello") == "hello"

    def test_query_matches_oracle(self, served, client):
        serving, _ = served
        response = client.query("//a/c")
        expected = evaluate_on_data_graph(serving.graph, as_expression("//a/c"))
        assert set(response["answers"]) == expected
        assert response["answers"] == sorted(response["answers"])
        assert response["validated"] is True
        assert response["timed_out"] is False

    def test_insert_subtree_and_requery(self, served, client):
        serving, _ = served
        new_oids = client.insert_subtree(1, ("c", []))
        assert len(new_oids) == 1
        assert serving.graph.label(new_oids[0]) == "c"
        assert new_oids[0] in set(client.query("//a/c")["answers"])

    def test_add_reference_and_refine(self, served, client):
        serving, _ = served
        client.add_reference(4, 3)
        assert serving.epoch >= 1
        assert client.refine() >= 0

    def test_stats_exposes_engine_and_server_counters(self, client):
        client.query("//a/c")
        stats = client.stats()
        assert stats["engine"]["queries"] >= 1
        assert stats["engine"]["queries"] == \
            stats["engine"]["cache_hits"] + stats["engine"]["misses"]
        # One stats type on the wire: a plain ServingEngine reports the
        # combiner's counter too, pinned at zero.
        assert stats["engine"]["fallbacks"] == 0
        assert stats["server"]["connections"] >= 1
        assert stats["server"]["requests"] >= 1
        assert "queued" in stats["server"]

    def test_request_ids_increment_and_are_validated(self, served):
        _, server = served
        with NetClient(*server.address) as net_client:
            for _ in range(5):
                net_client.ping()
            assert next(net_client._ids) == 6

    def test_zero_budget_is_late_but_exact(self, served, client):
        """budget_ms=0 means the deadline passed on arrival: the answer
        must still be exact, classified timed_out, never dropped."""
        serving, _ = served
        response = client.query("//a/c", budget_ms=0)
        assert response["timed_out"] is True
        assert set(response["answers"]) == \
            evaluate_on_data_graph(serving.graph, as_expression("//a/c"))

    def test_engine_failure_reports_error_and_connection_survives(
            self, served):
        _, server = served
        sock = raw_connect(server)
        try:
            # QUERY with no "expr" key: the worker's KeyError must come
            # back as Status.ERROR, not take the worker down.
            _p.write_frame(sock, _p.encode_request(_p.Opcode.QUERY, 1, {}))
            status, _, request_id, body = raw_response(sock)
            assert status is _p.Status.ERROR
            assert request_id == 1
            assert "error" in body
            # Same connection keeps working.
            _p.write_frame(sock, _p.encode_request(_p.Opcode.PING, 2, {}))
            status, _, request_id, _ = raw_response(sock)
            assert status is _p.Status.OK and request_id == 2
        finally:
            sock.close()

    def test_client_maps_error_status_to_remote_error(self, served):
        serving, server = served

        def explode(expr, timeout=_UNSET):
            raise RuntimeError("engine on fire")

        serving.query = explode
        with NetClient(*server.address) as net_client:
            with pytest.raises(RemoteError, match="engine on fire"):
                net_client.query("//a/c")


class TestQueryReplies:
    """The packed run a live server sends is the engine's answer."""

    @pytest.fixture(scope="class")
    def xmark_served(self, small_xmark):
        serving = ServingEngine(small_xmark)
        with IndexServer(serving, port=0, workers=2) as server:
            with NetClient(*server.address) as net_client:
                yield serving, net_client

    def test_zero_answer_query(self, xmark_served):
        serving, net_client = xmark_served
        expr = "//no_such_label"
        assert serving.query(expr).answers.tolist() == []
        assert net_client.query(expr)["answers"] == []

    def test_largest_answer_in_the_document(self, xmark_served):
        serving, net_client = xmark_served
        candidates = ["//*"] + [f"//{label}"
                                for label in serving.graph.alphabet()]
        expr = max(candidates,
                   key=lambda each: len(serving.query(each).answers))
        expected = serving.query(expr).answers.tolist()
        assert len(expected) == serving.graph.num_nodes
        assert net_client.query(expr)["answers"] == expected


class TestMalformedInput:
    def test_garbage_payload_gets_bad_request_then_close(self, served):
        serving, server = served
        sock = raw_connect(server)
        try:
            _p.write_frame(sock, b"\xde\xad\xbe\xef not a header")
            status, _, _, _ = raw_response(sock)
            assert status is _p.Status.BAD_REQUEST
            # Framing is unsyncable: the server closes the connection.
            assert _p.read_frame(
                sock, deadline=time.monotonic() + 5.0) is None
        finally:
            sock.close()
        with NetClient(*server.address) as net_client:
            assert net_client.ping("still alive") == "still alive"
        assert_writers_not_stalled(serving)

    def test_oversized_frame_gets_bad_request(self, served):
        serving, server = served
        sock = raw_connect(server)
        try:
            sock.sendall(struct.pack(">I", _p.MAX_FRAME + 1))
            status, _, _, _ = raw_response(sock)
            assert status is _p.Status.BAD_REQUEST
        finally:
            sock.close()
        assert server.counters["bad_requests"] >= 1
        with NetClient(*server.address) as net_client:
            assert net_client.ping() == ""
        assert_writers_not_stalled(serving)

    def test_partial_frame_then_disconnect_does_not_wedge(self, served):
        serving, server = served
        sock = raw_connect(server)
        sock.sendall(struct.pack(">I", 100) + b"ten bytes!")
        sock.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if server.counters["bad_requests"] >= 1:
                break
            time.sleep(0.02)
        assert server.counters["bad_requests"] >= 1
        with NetClient(*server.address) as net_client:
            assert set(net_client.query("//a/c")["answers"]) == \
                evaluate_on_data_graph(serving.graph, as_expression("//a/c"))
        assert_writers_not_stalled(serving)

    def test_client_rejects_desynchronised_response_id(self):
        """A (mis)server echoing the wrong request id is a transport
        error at the client, never a silently misattributed answer."""
        def reply(request_id: int) -> bytes:
            return _p.encode_response(_p.Status.OK, _p.Opcode.PING,
                                      request_id + 41, {"pong": ""})

        with one_reply_server(reply) as address:
            with NetClient(*address) as net_client:
                with pytest.raises(NetError, match="does not match"):
                    net_client.ping()

    def test_v1_request_gets_bad_request_then_close(self, served):
        serving, server = served
        sock = raw_connect(server)
        try:
            _p.write_frame(sock, v1_fixture("v1_query_request.bin"))
            status, _, _, body = raw_response(sock)
            assert status is _p.Status.BAD_REQUEST
            assert body["error"] == "unsupported version 1"
            assert _p.read_frame(
                sock, deadline=time.monotonic() + 5.0) is None
        finally:
            sock.close()
        assert server.counters["requests"] == 0
        assert_writers_not_stalled(serving)

    def test_client_surfaces_a_v1_reply_as_net_error(self):
        reply = v1_fixture("v1_query_reply.bin")
        with one_reply_server(lambda _id: reply) as address:
            with NetClient(*address) as net_client:
                with pytest.raises(NetError, match="unsupported version 1"):
                    net_client.query("//a/c")

    @pytest.mark.parametrize("damage", [
        "inside header", "after header", "inside run", "after run",
        "inside body", "count overruns"])
    def test_client_never_returns_a_shorter_answer_list(self, damage):
        def reply(request_id: int) -> bytes:
            payload = _p.encode_response(
                _p.Status.OK, _p.Opcode.QUERY, request_id,
                {"answers": list(range(40)), "validated": True})
            run_end = 13 + 4 + 4 * 40
            return {"inside header": payload[:8],
                    "after header": payload[:13],
                    "inside run": payload[:13 + 4 + 4 * 20],
                    "after run": payload[:run_end],
                    "inside body": payload[:-3],
                    "count overruns": payload[:13] + struct.pack("<I", 400)
                    + payload[17:]}[damage]

        with one_reply_server(reply) as address:
            with NetClient(*address) as net_client:
                with pytest.raises(NetError, match="bad response frame"):
                    net_client.query("//a/c")


class _StubStats:
    def snapshot(self) -> dict:
        return {}


class _BlockingEngine:
    """Engine whose first query parks until released (for shed tests)."""

    def __init__(self) -> None:
        self.started = threading.Event()
        self.release = threading.Event()
        self.stats = _StubStats()
        self.epoch = 0

    def query(self, expr, timeout=_UNSET):
        self.started.set()
        assert self.release.wait(timeout=10.0), "never released"

        class _Result:
            answers = Extent.from_sorted([0])
            validated = True
            epoch = 0
            degraded = False
            timed_out = False
            cache_hit = False
            fallback = False
            attempts = 1
            conflicts = 0
            duration_s = 0.0

        return _Result()


class TestAdmissionControl:
    def test_full_queue_sheds_and_connection_survives(self):
        engine = _BlockingEngine()
        with IndexServer(engine, port=0, workers=1, max_queue=1) as server:
            sock = raw_connect(server)
            try:
                # 1 occupies the worker, 2 fills the queue, 3 must shed.
                _p.write_frame(sock, _p.encode_request(
                    _p.Opcode.QUERY, 1, {"expr": "/r"}))
                assert engine.started.wait(timeout=5.0)
                _p.write_frame(sock, _p.encode_request(
                    _p.Opcode.QUERY, 2, {"expr": "/r"}))
                _p.write_frame(sock, _p.encode_request(
                    _p.Opcode.QUERY, 3, {"expr": "/r"}))
                # The reader answers SHED itself, while the worker is
                # still parked — so the first response on the wire is
                # for request 3.
                status, _, request_id, _ = raw_response(sock)
                assert status is _p.Status.SHED and request_id == 3
                engine.release.set()
                statuses = {}
                for _ in range(2):
                    status, _, request_id, _ = raw_response(sock)
                    statuses[request_id] = status
                assert statuses == {1: _p.Status.OK, 2: _p.Status.OK}
                # Shedding never closes the connection.
                _p.write_frame(sock, _p.encode_request(
                    _p.Opcode.PING, 4, {}))
                status, _, request_id, _ = raw_response(sock)
                assert status is _p.Status.OK and request_id == 4
            finally:
                sock.close()
            assert server.counters["shed"] == 1

    def test_client_surfaces_shed_as_load_shed_error(self):
        engine = _BlockingEngine()
        with IndexServer(engine, port=0, workers=1, max_queue=1) as server:
            blocker = NetClient(*server.address)
            filler = NetClient(*server.address)
            shed = NetClient(*server.address)
            try:
                results: list[dict] = []
                t1 = threading.Thread(
                    target=lambda: results.append(blocker.query("/r")))
                t1.start()
                assert engine.started.wait(timeout=5.0)
                t2 = threading.Thread(
                    target=lambda: results.append(filler.query("/r")))
                t2.start()
                # Wait for request 2 to actually occupy the queue slot.
                deadline = time.monotonic() + 5.0
                while server._queue.qsize() < 1 and \
                        time.monotonic() < deadline:
                    time.sleep(0.01)
                with pytest.raises(LoadShedError):
                    shed.query("/r")
                engine.release.set()
                t1.join(timeout=5.0)
                t2.join(timeout=5.0)
                assert len(results) == 2
            finally:
                for each in (blocker, filler, shed):
                    each.close()


class _HugeAnswerEngine:
    """Answers ``/huge`` with a run too long for one frame even packed
    (past ``MAX_FRAME / 4`` oids), anything else with ``[0]``."""

    HUGE = 2_200_000

    def __init__(self) -> None:
        self.stats = _StubStats()
        self.epoch = 0
        self.huge = Extent.from_sorted(array("i", range(self.HUGE)))

    def query(self, expr, timeout=_UNSET):
        class _Result:
            answers = self.huge if expr == "/huge" \
                else Extent.from_sorted([0])
            validated = True
            epoch = 0
            degraded = False
            timed_out = False
            cache_hit = False
            fallback = False
            attempts = 1
            conflicts = 0
            duration_s = 0.0

        return _Result()


class TestOversizedReply:
    def test_reply_past_max_frame_is_an_error_and_the_worker_lives(self):
        """Regression: the oversized reply's ``FrameTooLarge`` used to
        escape the worker loop and end the only worker thread, so this
        query and every later one timed out at the client."""
        assert 4 * _HugeAnswerEngine.HUGE > _p.MAX_FRAME
        with IndexServer(_HugeAnswerEngine(), port=0, workers=1) as server:
            with NetClient(*server.address, io_timeout_s=10.0) as client:
                with pytest.raises(RemoteError, match="exceeds MAX_FRAME"):
                    client.query("/huge")
                assert client.query("/r")["answers"] == [0]
            assert server.counters["errors"] == 1
            assert all(thread.is_alive() for thread in server._threads)


class TestLifecycle:
    def test_stop_joins_threads_with_idle_connection(self, simple_tree):
        """An idle connected peer must not block shutdown: every read
        in the server is bounded, so stop() returns promptly."""
        serving = ServingEngine(simple_tree)
        server = IndexServer(serving, port=0, workers=2).start()
        sock = raw_connect(server)  # connects, then stays silent
        try:
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 5.0
            assert server._threads == []
        finally:
            sock.close()

    def test_disconnect_after_request_does_not_wedge_worker(self, served):
        serving, server = served
        sock = raw_connect(server)
        _p.write_frame(sock, _p.encode_request(
            _p.Opcode.QUERY, 1, {"expr": "//a/c"}))
        sock.close()  # gone before the response can land
        with NetClient(*server.address) as net_client:
            assert set(net_client.query("//a/c")["answers"]) == \
                evaluate_on_data_graph(serving.graph, as_expression("//a/c"))
        assert_writers_not_stalled(serving)

    def test_failed_start_closes_listener_socket(self, simple_tree,
                                                 monkeypatch):
        """Regression: a bind failure (port already taken) used to leak
        the freshly created listener fd — stop() never saw it because
        self._listener was only assigned after bind/listen succeeded."""
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        created: list[socket.socket] = []
        real_socket = socket.socket

        class Recorder(real_socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(socket, "socket", Recorder)
        server = IndexServer(ServingEngine(simple_tree),
                             host="127.0.0.1", port=port)
        try:
            with pytest.raises(OSError):
                server.start()
        finally:
            blocker.close()
        assert len(created) == 1
        assert created[0].fileno() == -1, "listener leaked on bind failure"
        assert server._listener is None
        server.stop()  # must be a no-op after the failed start

    def test_address_requires_started_server(self, simple_tree):
        server = IndexServer(ServingEngine(simple_tree))
        with pytest.raises(RuntimeError, match="not started"):
            server.address

    def test_constructor_validates_knobs(self, simple_tree):
        serving = ServingEngine(simple_tree)
        with pytest.raises(ValueError):
            IndexServer(serving, workers=0)
        with pytest.raises(ValueError):
            IndexServer(serving, max_queue=0)
