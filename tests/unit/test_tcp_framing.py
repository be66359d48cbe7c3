"""Framing and turn discipline of the TCP transport, without sockets.

The accepted side of a connection is an :class:`asyncio.Protocol`, so a
test can hand ``data_received`` any chunking of the byte stream it
likes -- no loop, no listener.  The connecting side is exercised the
same way through a stand-in transport.
"""

import struct
from typing import Any, List, Tuple

import pytest

from repro.core.messages import Request
from repro.runtime.codec import BinaryCodec
from repro.runtime.tcp import TcpCluster, _Conn, _Inbound
from repro.sim.process import Process

pytestmark = pytest.mark.unit


class Recorder(Process):
    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.received: List[Tuple[str, Any]] = []

    def on_message(self, src: str, payload: Any) -> None:
        self.received.append((src, payload))


class Transport:
    """What ``_flush`` needs of a transport: ``write`` and ``is_closing``."""

    def __init__(self) -> None:
        self.written: List[bytes] = []

    def is_closing(self) -> bool:
        return False

    def write(self, data: bytes) -> None:
        self.written.append(data)


def frame(payload: Any, src: str = "a") -> bytes:
    body = BinaryCodec.encode_frame(src, payload)
    return struct.pack(">I", len(body)) + body


def accepted(process: Process) -> Tuple[TcpCluster, _Inbound]:
    cluster = TcpCluster(trace_level="off")
    cluster.add_process(process)
    return cluster, _Inbound(cluster, process.pid)


def test_header_split_across_chunks():
    b = Recorder("b")
    cluster, inbound = accepted(b)
    data = frame("first") + frame(Request("c1:1", "c1", ("set", "k", 1)))
    cut = len(frame("first")) + 2  # two bytes into the second header
    inbound.data_received(data[:cut])
    assert [payload for _src, payload in b.received] == ["first"]
    assert inbound.tail == data[cut - 2 : cut]
    inbound.data_received(data[cut:])
    assert b.received == [("a", "first"), ("a", Request("c1:1", "c1", ("set", "k", 1)))]
    assert inbound.tail == b""
    assert cluster.stats()["frames_received"] == 2
    assert cluster.stats()["wakeups"] == 2


def test_body_split_across_chunks():
    b = Recorder("b")
    _cluster, inbound = accepted(b)
    data = frame("x" * 1000)
    for start in range(0, len(data), 100):  # eleven chunks, one frame
        assert b.received == []
        inbound.data_received(data[start : start + 100])
    assert b.received == [("a", "x" * 1000)]
    assert inbound.tail == b""


def test_a_thousand_frames_in_one_chunk_arrive_in_order():
    b = Recorder("b")
    cluster, inbound = accepted(b)
    inbound.data_received(b"".join(frame(index) for index in range(1000)))
    assert [payload for _src, payload in b.received] == list(range(1000))
    stats = cluster.stats()
    assert (stats["frames_received"], stats["wakeups"]) == (1000, 1)


def test_chunk_ending_on_a_frame_boundary_leaves_no_tail():
    b = Recorder("b")
    _cluster, inbound = accepted(b)
    inbound.data_received(frame("one") + frame("two"))
    assert inbound.tail == b""
    inbound.data_received(frame("three")[:-1])
    assert inbound.tail == frame("three")[:-1]
    inbound.data_received(frame("three")[-1:])
    assert inbound.tail == b""
    assert [payload for _src, payload in b.received] == ["one", "two", "three"]


def test_frames_for_a_crashed_pid_are_counted_not_dispatched():
    b = Recorder("b")
    cluster, inbound = accepted(b)
    cluster.crash("b")
    inbound.data_received(frame("one") + frame("two"))
    assert b.received == []
    assert cluster.stats()["frames_received"] == 2


def test_a_crash_mid_chunk_stops_dispatch_at_that_frame():
    class Fragile(Recorder):
        def on_message(self, src: str, payload: Any) -> None:
            super().on_message(src, payload)
            if payload == "fatal":
                cluster.crash(self.pid)

    b = Fragile("b")
    cluster, inbound = accepted(b)
    inbound.data_received(frame("fine") + frame("fatal") + frame("too late"))
    assert [payload for _src, payload in b.received] == ["fine", "fatal"]
    assert cluster.stats()["frames_received"] == 3


def test_an_exception_in_a_handler_does_not_leave_the_turn_open():
    class Faulty(Recorder):
        def on_message(self, src: str, payload: Any) -> None:
            raise RuntimeError("handler bug")

    cluster, inbound = accepted(Faulty("b"))
    with pytest.raises(RuntimeError, match="handler bug"):
        inbound.data_received(frame("boom") + frame("never parsed"))
    assert cluster._in_turn is False
    assert cluster.stats()["frames_received"] == 1


def echoing(pid: str, peer: str) -> Tuple[TcpCluster, _Inbound, _Conn, Transport]:
    """``pid`` answers every frame with two frames to ``peer``, over an
    established connection whose transport is a stand-in.  The cluster
    is never started, so it has no loop: a flush that needed
    ``call_soon`` would raise."""

    class Echo(Process):
        def on_message(self, src: str, payload: Any) -> None:
            cluster.send_frame(self.pid, peer, ("ack", payload))
            cluster.send_frame(self.pid, peer, ("done", payload))

    cluster, inbound = accepted(Echo(pid))
    cluster._addresses[peer] = ("127.0.0.1", 0)
    conn = cluster._conns[pid, peer] = _Conn(cluster, (pid, peer))
    transport = Transport()
    conn.connection_made(transport)  # type: ignore[arg-type]
    return cluster, inbound, conn, transport


def test_a_turns_sends_are_written_before_data_received_returns():
    cluster, inbound, conn, transport = echoing("b", "a")
    inbound.data_received(frame(1) + frame(2))
    # Two deliveries, four sends, one write: the pass at the end of the turn.
    assert transport.written == [
        b"".join(frame(reply, src="b") for reply in
                 (("ack", 1), ("done", 1), ("ack", 2), ("done", 2)))
    ]
    assert conn.buf == [] and not conn.dirty and cluster._dirty == []
    stats = cluster.stats()
    assert (stats["frames_sent"], stats["flushes"]) == (4, 1)
    assert stats["bytes_sent"] == len(transport.written[0])


def test_a_single_frame_flush_writes_the_frame_itself():
    cluster, _inbound, _conn, transport = echoing("b", "a")
    payload = ("solo",)
    cluster.turn(lambda: cluster.send_frame("b", "a", payload))
    (written,) = transport.written
    assert written is cluster._enc_frame  # no join, no copy


# ----------------------------------------------------------------------
# Deferred work (``ProcessEnv.defer`` on the TCP host)
# ----------------------------------------------------------------------


class Loop:
    """What ``defer`` needs of a loop: ``call_soon``, run here by hand."""

    def __init__(self) -> None:
        self.ready: List[Any] = []

    def call_soon(self, callback: Any, *args: Any) -> None:
        self.ready.append((callback, args))

    def run_once(self) -> None:
        ready, self.ready = self.ready, []
        for callback, args in ready:
            callback(*args)


def test_work_deferred_while_handling_chunks_runs_once_they_are_consumed():
    class Batcher(Recorder):
        def __init__(self, pid: str) -> None:
            super().__init__(pid)
            self.batches: List[List[Any]] = []
            self.pending = False

        def on_message(self, src: str, payload: Any) -> None:
            super().on_message(src, payload)
            if not self.pending:
                self.pending = True
                cluster.defer(self.pid, self.drain)

        def drain(self) -> None:
            self.pending = False
            self.batches.append([payload for _src, payload in self.received])
            self.received.clear()

    b = Batcher("b")
    cluster, inbound = accepted(b)
    loop = cluster.loop = Loop()  # type: ignore[assignment]
    inbound.data_received(frame(1) + frame(2))
    inbound.data_received(frame(3))  # a second chunk, readable in the same iteration
    assert b.batches == [] and len(loop.ready) == 1  # one call_soon for the burst
    loop.run_once()
    assert b.batches == [[1, 2, 3]]
    assert loop.ready == [] and cluster._deferred == []
    inbound.data_received(frame(4))
    loop.run_once()
    assert b.batches == [[1, 2, 3], [4]]


def test_a_batch_of_deferred_callbacks_is_one_turn_with_one_flush():
    cluster, _inbound, _conn, transport = echoing("b", "a")
    loop = cluster.loop = Loop()  # type: ignore[assignment]
    for index in range(3):
        cluster.defer("b", lambda index=index: cluster.send_frame("b", "a", index))
    assert len(loop.ready) == 1
    loop.run_once()
    assert transport.written == [b"".join(frame(index, src="b") for index in range(3))]
    assert cluster._in_turn is False
    assert loop.ready == []  # flushed by the turn, not by a scheduled pass


def test_a_pid_that_crashes_before_the_drain_never_runs_its_callback():
    cluster, _inbound = accepted(Recorder("b"))
    cluster.add_process(Recorder("c"))
    loop = cluster.loop = Loop()  # type: ignore[assignment]
    ran: List[str] = []
    cluster.defer("b", lambda: ran.append("b"))
    cluster.defer("c", lambda: ran.append("c"))
    cluster.crash("b")
    loop.run_once()
    assert ran == ["c"]


def test_a_raising_callback_strands_nothing_and_closes_the_turn():
    cluster, _inbound, _conn, transport = echoing("b", "a")
    loop = cluster.loop = Loop()  # type: ignore[assignment]
    ran: List[str] = []

    def first() -> None:
        ran.append("first")
        cluster.send_frame("b", "a", "sent before the bug")

    def faulty() -> None:
        raise RuntimeError("deferred bug")

    cluster.defer("b", first)
    cluster.defer("b", faulty)
    cluster.defer("b", lambda: ran.append("third"))
    with pytest.raises(RuntimeError, match="deferred bug"):
        loop.run_once()
    assert ran == ["first"]
    assert cluster._in_turn is False
    assert transport.written == [frame("sent before the bug", src="b")]
    # The callback behind the faulty one has a drain of its own, ahead
    # of anything deferred since.
    cluster.defer("b", lambda: ran.append("fourth"))
    assert len(loop.ready) == 1
    loop.run_once()
    assert ran == ["first", "third", "fourth"]
    assert loop.ready == [] and cluster._deferred == []


def test_work_deferred_during_a_drain_waits_for_the_next():
    cluster, _inbound = accepted(Recorder("b"))
    loop = cluster.loop = Loop()  # type: ignore[assignment]
    ran: List[str] = []

    def outer() -> None:
        ran.append("outer")
        cluster.defer("b", lambda: ran.append("inner"))

    cluster.defer("b", outer)
    loop.run_once()
    assert ran == ["outer"] and len(loop.ready) == 1
    loop.run_once()
    assert ran == ["outer", "inner"] and loop.ready == []
