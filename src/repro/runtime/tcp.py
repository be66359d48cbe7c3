"""Localhost TCP transport: every process behind a real socket.

Frames are length-prefixed (4-byte big-endian) bodies produced by the
binary codec of :mod:`repro.runtime.codec`.  One persistent connection
is opened lazily per directed (src, dst) pair; TCP ordering gives the
FIFO channel property of the paper's model.  This transport exists
solely for loopback benchmarking of our own processes -- it is not a
trust boundary.

Two throughput mechanisms keep syscall count from scaling with op
count:

* **Write coalescing** -- sends append to a per-connection buffer and
  the buffer flushes either at the end of the current event-loop turn
  (``loop.call_soon``) or as soon as it holds ``_FLUSH_BYTES``.  All
  frames a process emits while handling one delivery or timer (a
  request fan-out, a reply batch, a sequencer drain) therefore share
  one ``writer.write``.  ``flush_interval`` widens the window across
  turns: instead of flushing at the turn boundary, a dirty connection
  flushes at most once per interval (``loop.call_later``), trading up
  to that much latency per hop for several-fold fewer syscalls at
  saturation -- the same trade the sequencer's ``OrderBatch`` makes,
  applied at the transport.  Throughput cells opt in; the default
  (``None``) keeps the latency-preserving turn-boundary flush.
* **Encode-once fan-out** -- relay-on-first-receipt and R-multicast
  send *the same payload object* to every group member back to back,
  so a one-entry identity cache on the encoder turns an n-destination
  broadcast into one encode plus n buffer appends.

The receive side is symmetric: each accepted connection parses frames
out of bulk socket reads and dispatches them *directly* to the process
-- no inbox queue, no pump task -- so one coalesced chunk from a peer
costs one event-loop wakeup (see ``_make_connection_handler``).

A peer that died mid-connection is handled in the writer path: a send
that finds its cached :class:`~asyncio.StreamWriter` closed (or takes
``ConnectionResetError``/``BrokenPipeError`` on write) drops the
writer, reconnects once, and re-sends the buffered frames; a second
consecutive failure treats the destination as crashed and drops the
frames (crash-stop peers never come back under the same pid).  Every
reconnection is counted in :meth:`TcpCluster.stats`.
"""

from __future__ import annotations

import asyncio
import struct
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.codec import BinaryCodec
from repro.runtime.host import AsyncioEnv, RuntimeCluster

_HEADER = struct.Struct(">I")

#: flush as soon as a connection buffer holds this many bytes, rather
#: than waiting for the turn boundary (bounds memory under bursts).
_FLUSH_BYTES = 64 * 1024
#: ask the event loop to drain a transport once its kernel-side write
#: buffer backlog passes this (backpressure guard, rarely hit on
#: loopback).
_DRAIN_THRESHOLD = 1 << 20


class _TcpEnv(AsyncioEnv):
    """AsyncioEnv whose sends go through the TCP cluster."""

    def __init__(self, cluster: "TcpCluster", pid: str, seed: int) -> None:
        super().__init__(cluster, pid, seed)  # type: ignore[arg-type]
        self._tcp = cluster

    def send(self, dst: str, payload: Any) -> None:
        self._tcp.send_frame(self.pid, dst, payload)


class _Conn:
    """Per-(src, dst) connection state: send buffer plus stream writer."""

    __slots__ = (
        "buf",
        "size",
        "scheduled",
        "writer",
        "connecting",
        "draining",
        "failures",
    )

    def __init__(self) -> None:
        self.buf: List[bytes] = []
        self.size = 0
        self.scheduled = False
        self.writer: Optional[asyncio.StreamWriter] = None
        self.connecting = False
        self.draining = False
        self.failures = 0


class TcpCluster(RuntimeCluster):
    """Hosts processes on localhost TCP sockets.

    Used like :class:`~repro.runtime.host.AsyncioCluster`:
    ``add_process`` everything, ``await start()``, drive the scenario,
    ``await shutdown()``.

    ``trace_level`` is forwarded to the
    :class:`~repro.sim.trace.TraceLog` (benchmarks run ``"off"`` -- at
    six-digit message rates full tracing is the bottleneck, the same
    hot-path hazard the simulator solved in its perf overhaul);
    ``flush_interval`` widens the coalescing window across event-loop
    turns (see the module docstring).
    """

    def __init__(
        self,
        seed: int = 0,
        trace_level: str = "full",
        flush_interval: Optional[float] = None,
    ) -> None:
        super().__init__(seed, trace_level)
        self.flush_interval = flush_interval
        self._servers: Dict[str, asyncio.AbstractServer] = {}
        self._addresses: Dict[str, Tuple[str, int]] = {}
        self._conns: Dict[Tuple[str, str], _Conn] = {}
        self._tasks: List[asyncio.Task] = []
        self._stats = {
            "frames_sent": 0,
            "frames_received": 0,
            "bytes_sent": 0,
            "flushes": 0,
            "reconnects": 0,
            "dropped_frames": 0,
            "encode_cache_hits": 0,
        }
        # one-entry identity cache for encode-once fan-out (holds a real
        # reference so a recycled id() can never alias a new object)
        self._enc_src: Optional[str] = None
        self._enc_obj: Any = None
        self._enc_frame: bytes = b""

    def crash(self, pid: str) -> None:
        super().crash(pid)
        server = self._servers.pop(pid, None)
        if server is not None:
            server.close()

    async def start(self) -> None:
        self._started = True
        self._epoch = time.monotonic()
        for pid in self._processes:
            server = await asyncio.start_server(
                self._make_connection_handler(pid), host="127.0.0.1", port=0
            )
            self._servers[pid] = server
            address = server.sockets[0].getsockname()
            self._addresses[pid] = (address[0], address[1])
        for pid, process in self._processes.items():
            process.start(_TcpEnv(self, pid, self.seed))

    def _make_connection_handler(self, pid: str):
        decode_frame = BinaryCodec.decode_frame
        header_size = _HEADER.size
        unpack_from = _HEADER.unpack_from

        async def handle(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            # Frames are parsed from bulk reads and dispatched *directly*
            # to the process -- no inbox queue, no pump task.  The
            # receiving side of write coalescing: one coalesced chunk
            # from a peer is one ``read`` wakeup and one synchronous
            # dispatch loop, so per-frame event-loop overhead (queue
            # put + pump wakeup + context switch) disappears.  Mutual
            # exclusion still holds: asyncio never runs two callbacks
            # concurrently and ``on_message`` contains no await, so
            # deliveries remain one at a time per process, in
            # per-channel FIFO order (TCP + in-order parse).
            process = self._processes[pid]
            crashed = self._crashed
            stats = self._stats
            buf = bytearray()
            try:
                while True:
                    chunk = await reader.read(65536)
                    if not chunk:
                        break
                    buf += chunk
                    pos = 0
                    end = len(buf)
                    while end - pos >= header_size:
                        (length,) = unpack_from(buf, pos)
                        frame_end = pos + header_size + length
                        if frame_end > end:
                            break
                        src, payload = decode_frame(
                            buf[pos + header_size : frame_end]
                        )
                        pos = frame_end
                        stats["frames_received"] += 1
                        if pid not in crashed:
                            process.on_message(src, payload)
                    if pos:
                        del buf[:pos]
            except (ConnectionResetError, asyncio.CancelledError):
                # Normal teardown paths: peer closed, or cluster shutdown
                # cancelled us mid-read.  Returning (rather than
                # re-raising CancelledError) keeps the streams machinery
                # from logging spurious tracebacks at shutdown.
                pass
            finally:
                writer.close()

        return handle

    # -- send path ------------------------------------------------------

    def send_frame(self, src: str, dst: str, payload: Any) -> None:
        if src in self._crashed or dst not in self._addresses:
            return
        if payload is self._enc_obj and src == self._enc_src:
            frame = self._enc_frame
            self._stats["encode_cache_hits"] += 1
        else:
            body = BinaryCodec.encode_frame(src, payload)
            frame = _HEADER.pack(len(body)) + body
            self._enc_src = src
            self._enc_obj = payload
            self._enc_frame = frame
        key = (src, dst)
        conn = self._conns.get(key)
        if conn is None:
            conn = self._conns[key] = _Conn()
        conn.buf.append(frame)
        conn.size += len(frame)
        self._stats["frames_sent"] += 1
        if conn.size >= _FLUSH_BYTES:
            self._flush(key, conn)
        elif not conn.scheduled:
            conn.scheduled = True
            if self.flush_interval is None:
                self.loop.call_soon(self._flush, key, conn)
            else:
                self.loop.call_later(self.flush_interval, self._flush, key, conn)

    def _flush(self, key: Tuple[str, str], conn: _Conn) -> None:
        conn.scheduled = False
        if not conn.buf:
            return
        writer = conn.writer
        if writer is None or writer.is_closing():
            if writer is not None:
                self._writer_failed(key, conn)
                return
            self._ensure_connect(key, conn)
            return
        data = b"".join(conn.buf)
        conn.buf.clear()
        conn.size = 0
        try:
            writer.write(data)
        except (ConnectionResetError, BrokenPipeError):
            conn.buf.append(data)
            conn.size = len(data)
            self._writer_failed(key, conn)
            return
        conn.failures = 0
        self._stats["flushes"] += 1
        self._stats["bytes_sent"] += len(data)
        transport = writer.transport
        if (
            transport is not None
            and transport.get_write_buffer_size() > _DRAIN_THRESHOLD
            and not conn.draining
        ):
            conn.draining = True
            self._track(asyncio.ensure_future(self._drain(key, conn)))

    def _writer_failed(self, key: Tuple[str, str], conn: _Conn) -> None:
        """A cached writer turned out dead: reconnect once, then give up."""
        conn.writer = None
        conn.failures += 1
        if conn.failures > 1 or key[1] in self._crashed:
            # Second consecutive failure: crash-stop peers never come
            # back under the same pid, so drop rather than retry-loop.
            self._stats["dropped_frames"] += len(conn.buf)
            conn.buf.clear()
            conn.size = 0
            conn.failures = 0
            return
        self._stats["reconnects"] += 1
        self._ensure_connect(key, conn)

    def _track(self, task: asyncio.Task) -> None:
        self._tasks.append(task)
        if len(self._tasks) > 64:
            self._tasks = [t for t in self._tasks if not t.done()]

    def _ensure_connect(self, key: Tuple[str, str], conn: _Conn) -> None:
        if not conn.connecting:
            conn.connecting = True
            self._track(asyncio.ensure_future(self._connect(key, conn)))

    async def _connect(self, key: Tuple[str, str], conn: _Conn) -> None:
        dst = key[1]
        try:
            host, port = self._addresses[dst]
            _reader, writer = await asyncio.open_connection(host, port)
        except (OSError, KeyError):
            # Destination crashed between check and connect.
            conn.connecting = False
            self._stats["dropped_frames"] += len(conn.buf)
            conn.buf.clear()
            conn.size = 0
            return
        conn.writer = writer
        conn.connecting = False
        if conn.buf:
            self._flush(key, conn)

    async def _drain(self, key: Tuple[str, str], conn: _Conn) -> None:
        writer = conn.writer
        try:
            if writer is not None:
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            if conn.writer is writer:
                conn.writer = None
        finally:
            conn.draining = False

    # ------------------------------------------------------------------

    async def shutdown(self) -> None:
        # Flush any frames still sitting in coalescing buffers so that
        # a scenario's final replies are not lost to teardown.
        for key, conn in list(self._conns.items()):
            if conn.buf and conn.writer is not None:
                self._flush(key, conn)
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        for conn in self._conns.values():
            if conn.writer is not None:
                conn.writer.close()
        self._conns.clear()
        for server in self._servers.values():
            server.close()
        for server in list(self._servers.values()):
            try:
                await server.wait_closed()
            except Exception:
                pass
        self._servers.clear()
