"""Localhost TCP transport: every process behind a real socket.

Frames are length-prefixed (4-byte big-endian) bodies produced by the
binary codec of :mod:`repro.runtime.codec`.  One persistent connection
is opened lazily per directed (src, dst) pair; TCP ordering gives the
FIFO channel property of the paper's model.  This transport exists
solely for loopback benchmarking of our own processes -- it is not a
trust boundary.

It is written on asyncio protocols, not on streams: an
established connection owns no task, future or reader, so a hop costs
the loop callbacks its handlers need and nothing more.  The walk-through
is in ``docs/ARCHITECTURE.md`` ("The TCP transport"); in short:

* **Receive** -- the accepted side (:class:`_Inbound`) is a
  :class:`asyncio.BufferedProtocol`: the transport reads
  (``recv_into``) into the cluster's one standing buffer
  (``_RECV_BYTES``), ``buffer_updated`` parses frames in place and calls
  ``process.on_message`` synchronously, so a read allocates the decoded
  objects and nothing else.  asyncio runs one callback at a time, so
  handlers stay mutually exclusive, channels FIFO, and one buffer serves
  every connection; only a split frame's ``tail`` outlives a read,
  copied out to its connection.
* **Send** -- ``send_frame`` buffers per connection and puts the
  connection on one cluster-wide dirty list, drained by one pass
  (:meth:`TcpCluster._flush_pass`).  By default the pass runs at the end
  of the callback that produced the sends (a ``buffer_updated``, a timer
  or driver step: a *turn*); only sends made outside a turn fall back
  to ``loop.call_soon``.  ``flush_interval`` instead writes a connection
  that long after its first buffered frame, one timer serving them all:
  latency per hop traded for fewer syscalls at saturation.  A multicast
  sends one payload object back to back, so a one-entry identity cache
  makes it one encode plus n appends.
* **Deferred work** -- ``env.defer(callback)`` ("once the input being
  handled is consumed": the sequencer's order-on-arrival) queues the
  callback; one ``loop.call_soon`` per batch runs them as one turn
  after every chunk that was readable in this loop iteration has been
  handled, so what a burst of requests defers is done once.
* **Backpressure** -- the connecting side (:class:`_Conn`) is its
  transport's protocol: while paused, frames wait in ``conn.buf``.
* **Dead peers** -- a flush that finds its transport closing reconnects
  once and re-sends; a second consecutive failure drops the frames
  (crash-stop peers never return under the same pid).  ``crash(pid)``
  closes the pid's listener and transports, and frames *for* a crashed
  pid are dropped in ``send_frame``, before any encode or connect.
"""

from __future__ import annotations

import asyncio
import struct
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.runtime.codec import BinaryCodec
from repro.runtime.host import AsyncioEnv
from repro.sim.process import Process
from repro.sim.trace import TraceLog

_HEADER = struct.Struct(">I")
_HEADER_SIZE = _HEADER.size
_unpack_from = _HEADER.unpack_from
_NEVER = float("inf")

#: flush as soon as a connection buffer holds this many bytes, rather
#: than waiting for the flush pass (bounds memory under bursts).
_FLUSH_BYTES = 64 * 1024
#: the cluster's standing receive buffer: what one read can take.  (For
#: a plain ``Protocol`` asyncio allocates a 256 KiB ``bytes`` per read.)
_RECV_BYTES = 64 * 1024
#: bound on ``shutdown`` letting the accepted sides read on to their EOF
_LINGER = 1.0


class _Conn(asyncio.Protocol):
    """Connecting side of a (src, dst) channel: send buffer and pause switch."""

    __slots__ = ("cluster", "key", "buf", "size", "dirty", "due", "writer",
                 "connecting", "paused", "failures")

    def __init__(self, cluster: "TcpCluster", key: Tuple[str, str]) -> None:
        self.cluster = cluster
        self.key = key
        self.buf: List[bytes] = []
        self.size = 0
        self.dirty = False  #: on the cluster's dirty list
        self.due = 0.0  #: under ``flush_interval``: when its window runs out
        self.writer: Optional[asyncio.WriteTransport] = None
        self.connecting = False
        self.paused = False
        self.failures = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.writer = transport  # type: ignore[assignment]
        self.paused = False

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        if self.buf:
            self.cluster._flush(self)


class _Inbound(asyncio.BufferedProtocol):
    """Accepted side of a connection: each read is one turn of its process.

    Reads land in the cluster's one standing buffer.  That is safe on a
    selector loop, which runs ``get_buffer``, ``recv_into`` and
    ``buffer_updated`` inside one callback: every complete frame is
    consumed before the next connection's ``get_buffer``, and the bytes
    of a split frame leave the buffer as this connection's ``tail``.
    """

    __slots__ = ("cluster", "pid", "process", "transport", "tail")

    def __init__(self, cluster: "TcpCluster", pid: str) -> None:
        self.cluster = cluster
        self.pid = pid
        self.process = cluster._processes[pid]
        self.transport: Optional[asyncio.BaseTransport] = None
        self.tail = b""  #: the start of a frame the last read split

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.cluster._inbound.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.cluster._inbound.discard(self)
        # Frames the tail holds were counted as sent and will never be
        # received: the one the peer died inside, or the ones behind a
        # handler that raised.
        tail, self.tail = self.tail, b""
        pos = dropped = 0
        while pos < len(tail):
            dropped += 1
            if len(tail) - pos < _HEADER_SIZE:
                break
            pos += _HEADER_SIZE + _unpack_from(tail, pos)[0]
        self.cluster._stats["dropped_frames"] += dropped

    def get_buffer(self, sizehint: int) -> memoryview:
        cluster = self.cluster
        view = cluster._recv
        held = len(self.tail)
        if not held:
            return view
        # The split frame goes back in front of what arrives next.  It
        # may fill half the buffer: past that the buffer doubles, so the
        # view handed out is never empty and a frame of any length
        # arrives -- sized by the bytes that came, not by their header.
        if 2 * held > len(view):
            size = len(view)
            while size < 2 * held:
                size *= 2
            view = cluster._recv = memoryview(bytearray(size))
        view[:held] = self.tail
        return view[held:]

    def buffer_updated(self, nbytes: int) -> None:
        cluster = self.cluster
        view = cluster._recv
        end = len(self.tail) + nbytes  # ``get_buffer`` put the tail in front
        self.tail = b""
        decode_frame = cluster._decode_frame
        crashed = cluster._crashed
        pid = self.pid
        on_message = self.process.on_message
        pos = frames = 0
        cluster._in_turn = True
        try:
            while end - pos >= _HEADER_SIZE:
                frame_end = pos + _HEADER_SIZE + _unpack_from(view, pos)[0]
                if frame_end > end:
                    break
                src, payload = decode_frame(view[pos + _HEADER_SIZE : frame_end])
                pos = frame_end
                frames += 1
                if pid not in crashed:
                    on_message(src, payload)
        finally:
            stats = cluster._stats
            stats["wakeups"] += 1
            stats["frames_received"] += frames
            if pos < end:
                self.tail = bytes(view[pos:end])
            cluster._end_turn()


class TcpCluster:
    """Hosts processes on localhost TCP sockets: the wall-clock host.

    ``add_process`` everything, ``await start()``, drive the scenario,
    ``await shutdown()``.  ``trace_level`` is forwarded to the
    :class:`~repro.sim.trace.TraceLog` (benchmarks run ``"off"``: at
    six-digit message rates full tracing is the bottleneck);
    ``flush_interval`` widens the coalescing window across event-loop
    turns (see the module docstring).
    """

    #: The event loop everything runs on, bound by :meth:`start`.
    loop: asyncio.AbstractEventLoop

    def __init__(
        self, seed: int = 0, trace_level: str = "full", flush_interval: Optional[float] = None
    ) -> None:
        self.seed = seed
        self.trace = TraceLog(level=trace_level)
        self.flush_interval = flush_interval
        self._processes: Dict[str, Process] = {}
        self._crashed: Set[str] = set()
        self._started = False
        #: ``shutdown`` has run: a send from then on goes nowhere (counted
        #: as dropped)
        self._closed = False
        self._epoch = time.monotonic()
        self._servers: Dict[str, asyncio.AbstractServer] = {}
        self._addresses: Dict[str, Tuple[str, int]] = {}
        self._conns: Dict[Tuple[str, str], _Conn] = {}
        self._inbound: Set[_Inbound] = set()
        self._recv = memoryview(bytearray(_RECV_BYTES))  #: every connection reads into it
        self._connects: Set[asyncio.Task] = set()  #: the only tasks there are
        self._dirty: List[_Conn] = []
        #: ``env.defer`` callbacks, by pid; non-empty = a drain is on the loop
        self._deferred: List[Tuple[str, Callable[[], None]]] = []
        self._in_turn = False  #: the running callback ends with a flush pass
        self._scheduled = False  #: a flush pass is on the loop
        self._stats = dict.fromkeys(  # "wakeups" are buffer_updated calls
            ("frames_sent", "frames_received", "bytes_sent", "flushes", "reconnects",
             "dropped_frames", "encode_cache_hits", "wakeups"),
            0,
        )
        # Looked up per cluster, not at import: the repo benchmark's
        # traced run wraps both on the class before it builds a cluster.
        self._encode_frame = BinaryCodec.encode_frame
        self._decode_frame = BinaryCodec.decode_frame
        # one-entry identity cache for encode-once fan-out (holds a real
        # reference so a recycled id() can never alias a new object)
        self._enc_src: Optional[str] = None
        self._enc_obj: Any = None
        self._enc_frame: bytes = b""

    @property
    def now(self) -> float:
        return time.monotonic() - self._epoch

    @property
    def pids(self) -> List[str]:
        return list(self._processes)

    def add_process(self, process: Process) -> None:
        if self._started:
            raise RuntimeError("cluster already started")
        if process.pid in self._processes:
            raise ValueError(f"duplicate pid: {process.pid}")
        self._processes[process.pid] = process

    def is_crashed(self, pid: str) -> bool:
        return pid in self._crashed

    def crash(self, pid: str) -> None:
        """Crash-stop ``pid``: its handlers, timers and deferred work never
        run again, and its listener and transports close."""
        if pid in self._crashed:
            return
        self._crashed.add(pid)
        process = self._processes.get(pid)
        if process is not None:
            process.crashed = True
            process.on_crash()
        self.trace.record(self.now, pid, "crash")
        server = self._servers.pop(pid, None)
        if server is not None:
            server.close()
        for inbound in list(self._inbound):
            if inbound.pid == pid:
                inbound.transport.close()
        for conn in self._conns.values():
            if conn.key[0] == pid:
                self._close(conn)

    def stats(self) -> Dict[str, int]:
        """Transport counters."""
        return dict(self._stats)

    async def start(self) -> None:
        """Bind the running loop, restart the clock, open a listener per
        process and hand every process its env."""
        self._started = True
        self._epoch = time.monotonic()
        self.loop = asyncio.get_running_loop()
        for pid in self._processes:
            server = await self.loop.create_server(partial(_Inbound, self, pid), "127.0.0.1", 0)
            self._servers[pid] = server
            self._addresses[pid] = server.sockets[0].getsockname()[:2]
        for pid, process in self._processes.items():
            process.start(AsyncioEnv(self, pid, self.seed))

    async def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 30.0,
        poll: float = 0.002,
    ) -> bool:
        """Poll ``predicate`` until true or ``timeout`` wall-clock seconds."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            await asyncio.sleep(poll)
        return predicate()

    def send_frame(self, src: str, dst: str, payload: Any) -> None:
        crashed = self._crashed
        if src in crashed or dst not in self._addresses:
            if src not in crashed:
                if not self._closed:
                    # As on the simulator: a pid nobody hosts is a wiring bug.
                    raise KeyError(f"unknown destination: {dst}")
                self._stats["dropped_frames"] += 1
            return
        stats = self._stats
        if dst in crashed:
            stats["dropped_frames"] += 1
            return
        if payload is self._enc_obj and src == self._enc_src:
            frame = self._enc_frame
            stats["encode_cache_hits"] += 1
        else:
            body = self._encode_frame(src, payload)
            frame = _HEADER.pack(len(body)) + body
            self._enc_src = src
            self._enc_obj = payload
            self._enc_frame = frame
        key = (src, dst)
        conn = self._conns.get(key)
        if conn is None:
            conn = self._conns[key] = _Conn(self, key)
        conn.buf.append(frame)
        conn.size += len(frame)
        stats["frames_sent"] += 1
        if not conn.dirty:
            conn.dirty = True
            self._dirty.append(conn)
            if self.flush_interval is not None:
                conn.due = self.loop.time() + self.flush_interval
                if not self._scheduled:
                    self._scheduled = True
                    self.loop.call_at(conn.due, self._flush_pass)
            elif not self._in_turn and not self._scheduled:
                self._scheduled = True
                self.loop.call_soon(self._flush_pass)
        if conn.size >= _FLUSH_BYTES:
            self._flush(conn)

    def turn(self, callback: Callable[[], None]) -> None:
        self._in_turn = True
        try:
            callback()
        finally:
            self._end_turn()

    def defer(self, pid: str, callback: Callable[[], None]) -> None:
        """``ProcessEnv.defer`` of ``pid``: queue ``callback`` behind
        every chunk this loop iteration found readable -- their
        read callbacks are on the ready queue already, ahead of the
        drain."""
        self._deferred.append((pid, callback))
        if len(self._deferred) == 1:
            self.loop.call_soon(self._run_deferred)

    def _run_deferred(self) -> None:
        """One turn for the whole batch (crash-stop: a crashed pid's
        callback is dropped, as its timers are)."""
        batch, self._deferred = iter(self._deferred), []
        crashed = self._crashed
        self._in_turn = True
        try:
            for pid, callback in batch:
                if pid not in crashed:
                    callback()
        finally:
            stranded = list(batch)
            if stranded:  # one raised: the rest get a drain of their own
                if not self._deferred:
                    self.loop.call_soon(self._run_deferred)
                self._deferred[:0] = stranded
            self._end_turn()

    def _end_turn(self) -> None:
        self._in_turn = False
        if self._dirty and not self._scheduled:
            self._flush_pass()

    def _flush_pass(self) -> None:
        """The one place buffered sends reach the sockets (besides the
        ``_FLUSH_BYTES`` trigger).  At a turn boundary every dirty
        connection is written; under ``flush_interval`` those whose
        window has run out -- the head's has, the timer was set for it
        -- and the timer is set again for the next."""
        now = _NEVER if self.flush_interval is None else self.loop.time()
        dirty = self._dirty
        count = 0
        for conn in dirty:
            if conn.due > now and count:
                break
            count += 1
            conn.dirty = False
            if conn.buf:
                self._flush(conn)
        del dirty[:count]
        self._scheduled = bool(dirty)
        if dirty:
            self.loop.call_at(dirty[0].due, self._flush_pass)

    def _flush(self, conn: _Conn) -> None:
        writer = conn.writer
        if writer is None:
            self._ensure_connect(conn)
        elif writer.is_closing():
            self._writer_failed(conn)
        elif not conn.paused:
            buf = conn.buf
            writer.write(buf[0] if len(buf) == 1 else b"".join(buf))
            buf.clear()
            stats = self._stats
            stats["flushes"] += 1
            stats["bytes_sent"] += conn.size
            conn.size = 0
            conn.failures = 0

    def _close(self, conn: _Conn) -> None:
        """Write what is buffered, then close (a transport drains first)."""
        if conn.writer is not None:
            if conn.buf:
                self._flush(conn)
            conn.writer.close()

    def _drop(self, conn: _Conn) -> None:
        self._stats["dropped_frames"] += len(conn.buf)
        conn.buf.clear()
        conn.size = 0
        conn.failures = 0

    def _writer_failed(self, conn: _Conn) -> None:
        """A cached transport turned out dead: reconnect once, then give up."""
        conn.writer = None
        conn.failures += 1
        if conn.failures > 1 or conn.key[1] in self._crashed:
            # Second consecutive failure: crash-stop peers never come
            # back under the same pid, so drop rather than retry-loop.
            self._drop(conn)
        else:
            self._stats["reconnects"] += 1
            self._ensure_connect(conn)

    def _ensure_connect(self, conn: _Conn) -> None:
        if not conn.connecting:
            conn.connecting = True
            task = self.loop.create_task(self._connect(conn))
            self._connects.add(task)
            task.add_done_callback(self._connects.discard)

    async def _connect(self, conn: _Conn) -> None:
        try:
            await self.loop.create_connection(lambda: conn, *self._addresses[conn.key[1]])
        except OSError:  # destination crashed between check and connect
            self._drop(conn)
        finally:
            conn.connecting = False
        if conn.buf:
            self._flush(conn)

    async def shutdown(self) -> None:
        # A ``defer`` drain still waiting on the loop is the last turn:
        # it runs now, while its sends have somewhere to go.  Frames
        # buffered in the last turn are not lost to teardown: they are
        # written, a closed transport drains before its FIN, and the
        # accepted sides get to read up to that EOF.
        if self._deferred:
            self._run_deferred()
        conns = list(self._conns.values())
        for conn in conns:
            self._close(conn)
        self._conns.clear()
        self._addresses.clear()  # a late send has no destination ...
        self._closed = True  # ... and is counted as dropped
        connects = list(self._connects)
        for task in connects:
            task.cancel()
        await asyncio.gather(*connects, return_exceptions=True)
        for conn in conns:
            if conn.buf:  # never written: its connect was cut short, or paused
                self._drop(conn)
        for server in self._servers.values():
            server.close()
        await self.run_until(lambda: not self._inbound, timeout=_LINGER, poll=0.001)
        for inbound in list(self._inbound):
            inbound.transport.abort()
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()
