"""Framing and turn discipline of the TCP transport, without sockets.

The accepted side of a connection reads in two halves (``get_buffer``,
then ``buffer_updated`` with the byte count), so a test can play the
socket (:func:`feed`: ``get_buffer``, copy in, ``buffer_updated``) with
any chunking of the byte stream it likes -- no loop, no listener.  The
connecting side is exercised the same way through a stand-in socket,
and the ``defer`` drain by calling it where the loop would.
"""

import struct
import tracemalloc
from typing import Any, List, Tuple

import pytest

from repro.core.messages import Request
from repro.runtime.codec import BinaryCodec
from repro.runtime.tcp import _RECV_BYTES, TcpCluster, _Conn, _Inbound
from repro.sim.process import Process

pytestmark = pytest.mark.unit


class Recorder(Process):
    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.received: List[Tuple[str, Any]] = []

    def on_message(self, src: str, payload: Any) -> None:
        self.received.append((src, payload))


class Sock:
    """What ``_flush`` needs of a connected socket: a ``send`` that takes
    everything."""

    def __init__(self) -> None:
        self.written: List[bytes] = []

    def send(self, data: bytes) -> int:
        self.written.append(data)
        return len(data)


def frame(payload: Any, src: str = "a") -> bytes:
    body = BinaryCodec.encode_frame(src, payload)
    return struct.pack(">I", len(body)) + body


def sized(size: int) -> Tuple[str, bytes]:
    """A payload whose frame is ``size`` bytes long, header included."""
    overhead = len(frame("x" * 1000)) - 1000
    payload = "x" * (size - overhead)
    data = frame(payload)
    assert len(data) == size
    return payload, data


def accepted(process: Process) -> Tuple[TcpCluster, _Inbound]:
    cluster = TcpCluster(trace_level="off")
    cluster.add_process(process)
    return cluster, _Inbound(cluster, process.pid)


def feed(inbound: _Inbound, chunk: bytes) -> None:
    """Deliver ``chunk`` the way ``_Inbound.on_readable`` does, one read
    per poll: ask for a buffer, put in what fits (``recv_into``), report
    how much -- until the socket is empty."""
    pending = memoryview(chunk)
    while pending:
        view = inbound.get_buffer(-1)
        assert len(view) > 0  # a read into an empty view returns 0: taken as EOF
        count = min(len(view), len(pending))
        view[:count] = pending[:count]
        pending = pending[count:]
        inbound.buffer_updated(count)


def test_header_split_across_chunks():
    b = Recorder("b")
    cluster, inbound = accepted(b)
    data = frame("first") + frame(Request("c1:1", "c1", ("set", "k", 1)))
    cut = len(frame("first")) + 2  # two bytes into the second header
    feed(inbound, data[:cut])
    assert [payload for _src, payload in b.received] == ["first"]
    assert inbound.tail == data[cut - 2 : cut]
    feed(inbound, data[cut:])
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
        feed(inbound, data[start : start + 100])
    assert b.received == [("a", "x" * 1000)]
    assert inbound.tail == b""


def test_a_thousand_frames_in_one_chunk_arrive_in_order():
    b = Recorder("b")
    cluster, inbound = accepted(b)
    feed(inbound, b"".join(frame(index) for index in range(1000)))
    assert [payload for _src, payload in b.received] == list(range(1000))
    stats = cluster.stats()
    assert (stats["frames_received"], stats["wakeups"]) == (1000, 1)


def test_chunk_ending_on_a_frame_boundary_leaves_no_tail():
    b = Recorder("b")
    _cluster, inbound = accepted(b)
    feed(inbound, frame("one") + frame("two"))
    assert inbound.tail == b""
    feed(inbound, frame("three")[:-1])
    assert inbound.tail == frame("three")[:-1]
    feed(inbound, frame("three")[-1:])
    assert inbound.tail == b""
    assert [payload for _src, payload in b.received] == ["one", "two", "three"]


def test_frames_for_a_crashed_pid_are_counted_not_dispatched():
    b = Recorder("b")
    cluster, inbound = accepted(b)
    cluster.crash("b")
    feed(inbound, frame("one") + frame("two"))
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
    feed(inbound, frame("fine") + frame("fatal") + frame("too late"))
    assert [payload for _src, payload in b.received] == ["fine", "fatal"]
    assert cluster.stats()["frames_received"] == 3


def test_an_exception_in_a_handler_does_not_leave_the_turn_open():
    class Faulty(Recorder):
        def on_message(self, src: str, payload: Any) -> None:
            raise RuntimeError("handler bug")

    cluster, inbound = accepted(Faulty("b"))
    with pytest.raises(RuntimeError, match="handler bug"):
        feed(inbound, frame("boom") + frame("never parsed"))
    assert cluster._in_turn is False
    assert cluster.stats()["frames_received"] == 1
    assert inbound.tail == frame("never parsed")  # out of the shared buffer


# ----------------------------------------------------------------------
# The standing receive buffer: one per cluster, every connection's reads
# ----------------------------------------------------------------------


def test_interleaved_connections_keep_their_own_tails():
    b = Recorder("b")
    cluster, first = accepted(b)
    second = _Inbound(cluster, "b")
    split = frame("split " * 50, src="a")
    feed(first, frame("a1", src="a") + split[:40])
    feed(second, frame("c1", src="c") + frame("c2" * 500, src="c"))  # over first's bytes
    assert first.tail == split[:40] and second.tail == b""
    feed(second, frame("c3", src="c")[:3])
    feed(first, split[40:] + frame("a2", src="a"))
    feed(second, frame("c3", src="c")[3:])
    assert b.received == [
        ("a", "a1"), ("c", "c1"), ("c", "c2" * 500),
        ("a", "split " * 50), ("a", "a2"), ("c", "c3"),
    ]
    assert first.tail == second.tail == b""
    assert len(cluster._recv) == _RECV_BYTES  # small tails never grow it


@pytest.mark.parametrize(
    "size", [_RECV_BYTES - 1, _RECV_BYTES, _RECV_BYTES + 1, 4 * _RECV_BYTES]
)
def test_a_frame_as_long_as_the_buffer_or_longer_arrives_intact(size):
    b = Recorder("b")
    cluster, inbound = accepted(b)
    payload, data = sized(size)
    feed(inbound, data + frame("behind it"))
    assert b.received == [("a", payload), ("a", "behind it")]
    assert inbound.tail == b""
    assert cluster.stats()["frames_received"] == 2
    # ... and the connection after it reads into the same (grown) buffer.
    other = _Inbound(cluster, "b")
    feed(other, frame("next"))
    assert b.received[-1] == ("a", "next")


@pytest.mark.parametrize(
    "held", [1, _RECV_BYTES // 2, _RECV_BYTES // 2 + 1, _RECV_BYTES, 3 * _RECV_BYTES + 7]
)
def test_get_buffer_never_returns_an_empty_view(held):
    cluster, inbound = accepted(Recorder("b"))
    inbound.tail = (struct.pack(">I", 1 << 30) + bytes(range(256)) * (held // 256 + 1))[:held]
    view = inbound.get_buffer(-1)
    assert len(view) >= held  # room for as much again
    assert bytes(cluster._recv[:held]) == inbound.tail  # right in front of the view
    assert len(cluster._recv) == held + len(view)
    # A read the socket then refuses (EAGAIN) repeats the call: same answer.
    assert len(inbound.get_buffer(-1)) == len(view)


def test_a_length_header_alone_allocates_nothing():
    cluster, inbound = accepted(Recorder("b"))
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        feed(inbound, struct.pack(">I", 1 << 30) + b"ten bytes!")
        feed(inbound, b"and a few more")
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert inbound.tail == struct.pack(">I", 1 << 30) + b"ten bytes!and a few more"
    assert len(cluster._recv) == _RECV_BYTES
    assert peak < 1 << 20


def test_decoded_payloads_do_not_alias_the_buffer():
    b = Recorder("b")
    _cluster, inbound = accepted(b)
    blob = bytes(range(256)) * 4
    feed(inbound, frame(blob) + frame(("nested", blob, "text")) + frame(frozenset({blob})))
    feed(inbound, b"\xff" * 16)  # the next read overwrites where they were decoded from
    assert [payload for _src, payload in b.received] == [
        blob,
        ("nested", blob, "text"),
        frozenset({blob}),
    ]


def test_a_connection_lost_inside_a_frame_counts_it_as_dropped():
    cluster, inbound = accepted(Recorder("b"))
    feed(inbound, frame("whole") + frame("cut short")[:-3])
    inbound.close()  # the peer died inside its second frame: EOF
    stats = cluster.stats()
    assert (stats["frames_received"], stats["dropped_frames"]) == (1, 1)
    assert inbound.tail == b""
    inbound.close()  # nothing is counted twice
    assert cluster.stats()["dropped_frames"] == 1


def test_frames_stranded_behind_a_raising_handler_are_counted_as_dropped():
    class Faulty(Recorder):
        def on_message(self, src: str, payload: Any) -> None:
            raise RuntimeError("handler bug")

    cluster, inbound = accepted(Faulty("b"))
    with pytest.raises(RuntimeError, match="handler bug"):
        feed(inbound, frame("boom") + frame("one") + frame("two") + frame("three")[:2])
    inbound.close()  # what ``shutdown`` does once the error has ended the run
    stats = cluster.stats()
    # Four frames were sent: one reached the handler, two whole ones and
    # the two-byte start of a fourth did not.
    assert (stats["frames_received"], stats["dropped_frames"]) == (1, 3)


def echoing(pid: str, peer: str) -> Tuple[TcpCluster, _Inbound, _Conn, Sock]:
    """``pid`` answers every frame with two frames to ``peer``, over an
    established connection whose socket is a stand-in.  The cluster is
    never started, so it has no loop: a flush that waited for the next
    iteration would sit on its timer heap."""

    class Echo(Process):
        def on_message(self, src: str, payload: Any) -> None:
            cluster.send_frame(self.pid, peer, ("ack", payload))
            cluster.send_frame(self.pid, peer, ("done", payload))

    cluster, inbound = accepted(Echo(pid))
    cluster._addresses[peer] = ("127.0.0.1", 0)
    conn = cluster._conns[pid, peer] = _Conn((pid, peer))
    sock = conn.sock = Sock()  # type: ignore[assignment]
    return cluster, inbound, conn, sock


def test_a_turns_sends_are_written_before_buffer_updated_returns():
    cluster, inbound, conn, sock = echoing("b", "a")
    feed(inbound, frame(1) + frame(2))
    # Two deliveries, four sends, one write: the pass at the end of the turn.
    assert sock.written == [
        b"".join(frame(reply, src="b") for reply in
                 (("ack", 1), ("done", 1), ("ack", 2), ("done", 2)))
    ]
    assert conn.buf == [] and not conn.dirty and cluster._dirty == []
    assert cluster._queue == []  # no pass was left for the next iteration
    stats = cluster.stats()
    assert (stats["frames_sent"], stats["flushes"]) == (4, 1)
    assert stats["bytes_sent"] == len(sock.written[0])


def test_a_single_frame_flush_writes_the_frame_itself():
    cluster, _inbound, _conn, sock = echoing("b", "a")
    payload = ("solo",)
    cluster.turn(lambda: cluster.send_frame("b", "a", payload))
    (written,) = sock.written
    assert written is cluster._enc_frame  # no join, no copy


# ----------------------------------------------------------------------
# Deferred work (``ProcessEnv.defer`` on the TCP host)
# ----------------------------------------------------------------------


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
    feed(inbound, frame(1) + frame(2))
    feed(inbound, frame(3))  # a second chunk, readable in the same iteration
    assert b.batches == [] and len(cluster._deferred) == 1  # one deferral for the burst
    cluster._run_deferred()  # the end of the iteration
    assert b.batches == [[1, 2, 3]]
    assert cluster._deferred == []
    feed(inbound, frame(4))
    cluster._run_deferred()
    assert b.batches == [[1, 2, 3], [4]]


def test_a_batch_of_deferred_callbacks_is_one_turn_with_one_flush():
    cluster, _inbound, _conn, sock = echoing("b", "a")
    for index in range(3):
        cluster.defer("b", lambda index=index: cluster.send_frame("b", "a", index))
    cluster._run_deferred()
    assert sock.written == [b"".join(frame(index, src="b") for index in range(3))]
    assert cluster._in_turn is False
    assert cluster._queue == []  # flushed by the turn, not by a scheduled pass


def test_a_pid_that_crashes_before_the_drain_never_runs_its_callback():
    cluster, _inbound = accepted(Recorder("b"))
    cluster.add_process(Recorder("c"))
    ran: List[str] = []
    cluster.defer("b", lambda: ran.append("b"))
    cluster.defer("c", lambda: ran.append("c"))
    cluster.crash("b")
    cluster._run_deferred()
    assert ran == ["c"]


def test_a_raising_callback_strands_nothing_and_closes_the_turn():
    cluster, _inbound, _conn, sock = echoing("b", "a")
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
        cluster._run_deferred()
    assert ran == ["first"]
    assert cluster._in_turn is False
    assert sock.written == [frame("sent before the bug", src="b")]
    # The callback behind the faulty one goes first in the next drain,
    # ahead of anything deferred since.
    cluster.defer("b", lambda: ran.append("fourth"))
    assert len(cluster._deferred) == 2
    cluster._run_deferred()
    assert ran == ["first", "third", "fourth"]
    assert cluster._deferred == []


def test_work_deferred_during_a_drain_waits_for_the_next():
    cluster, _inbound = accepted(Recorder("b"))
    ran: List[str] = []

    def outer() -> None:
        ran.append("outer")
        cluster.defer("b", lambda: ran.append("inner"))

    cluster.defer("b", outer)
    cluster._run_deferred()
    assert ran == ["outer"] and len(cluster._deferred) == 1
    cluster._run_deferred()
    assert ran == ["outer", "inner"] and cluster._deferred == []
