"""Localhost TCP transport: every process behind a real socket, one epoll loop.

Frames are length-prefixed (4-byte big-endian) bodies produced by the
binary codec of :mod:`repro.runtime.codec`.  One persistent connection
is opened lazily per directed (src, dst) pair; TCP ordering gives the
FIFO channel property of the paper's model.  This transport exists
solely for loopback benchmarking of our own processes -- it is not a
trust boundary.

The cluster runs its own loop (Linux ``select.epoll``): an fd table, the
simulator's :class:`~repro.sim.loop.TimerQueue` on the monotonic clock,
the ``defer`` drain and plain non-blocking sockets.  One
iteration (:meth:`TcpCluster._run_once`) waits until a socket is ready,
a timer is due or the caller's deadline passes -- ``select.select`` on
the epoll fd, to the microsecond, since ``epoll.poll`` rounds its
timeout up to a whole millisecond -- then runs each ready fd's handler,
each due timer and the drain, every one a *turn*;
``run_until`` asks its predicate between iterations.  The walk-through
is in ``docs/ARCHITECTURE.md`` ("The TCP transport"); in short:

* **Receive** -- the accepted side (:class:`_Inbound`) reads
  (``recv_into``) into the cluster's one standing buffer
  (``_RECV_BYTES``); ``buffer_updated`` parses frames in place and calls
  ``process.on_message`` synchronously, so a read allocates the decoded
  objects and nothing else.  One handler runs at a time, so handlers
  stay mutually exclusive, channels FIFO, and one buffer serves every
  connection; only a split frame's ``tail`` outlives a read.
* **Send** -- ``send_frame`` buffers per connection and puts the
  connection on one dirty list, drained by one pass
  (:meth:`TcpCluster._flush_pass`) at the end of the turn that sent;
  ``flush_interval`` instead makes one window for every connection: the
  first frame buffered since the last pass arms one timer that long
  out, and that pass writes every dirty connection.  A multicast sends
  one payload object back to back, so a one-entry identity cache makes
  it one encode plus n appends.
* **Deferred work** -- ``env.defer(callback)`` (the sequencer's
  order-on-arrival) queues the callback for the iteration's drain, after
  every chunk that was readable, so what a burst defers is done once.
* **Backpressure** -- until a connect completes, and while a partial
  write waits for ``EPOLLOUT``, frames wait in ``conn.buf``.
* **Dead peers** -- a connection whose peer closed it (EOF on a socket
  that is only written) or whose write failed reconnects once at its
  next flush and re-sends; a second consecutive failure drops the frames
  (crash-stop peers never return under the same pid).  ``crash(pid)``
  closes the pid's listener and sockets, and frames *for* a crashed pid
  are dropped in ``send_frame``, before any encode or connect.
"""

from __future__ import annotations

import errno
import select
import socket
import struct
import time
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.runtime.codec import BinaryCodec
from repro.sim.loop import TimerHandle, TimerQueue
from repro.sim.process import Host, Process

_HEADER = struct.Struct(">I")
_HEADER_SIZE = _HEADER.size
_unpack_from = _HEADER.unpack_from

#: flush as soon as a connection buffer holds this many bytes, rather
#: than waiting for the flush pass (bounds memory under bursts).
_FLUSH_BYTES = 64 * 1024
#: the cluster's standing receive buffer: what one read can take.
_RECV_BYTES = 64 * 1024
#: bound on ``shutdown`` letting the accepted sides read on to their EOF
_LINGER = 1.0
#: ``select.EPOLLIN`` / ``select.EPOLLOUT``, spelled out so the module
#: imports where ``select.epoll`` is missing and ``start_all`` can say so.
_IN, _OUT = 0x001, 0x004
#: the clock of the cluster and its timers (read through the module, so
#: a test can hold it still while it schedules)
_monotonic = time.monotonic


class _Conn:
    """Connecting side of a (src, dst) channel: its socket and send buffer."""

    __slots__ = ("key", "sock", "buf", "size", "dirty", "pending",
                 "connecting", "closing", "failures")

    def __init__(self, key: Tuple[str, str]) -> None:
        self.key = key
        self.sock: Optional[socket.socket] = None
        self.buf: List[bytes] = []
        self.size = 0
        self.dirty = False  #: on the cluster's dirty list
        self.pending: Any = b""  #: what a partial write left: ``EPOLLOUT`` is armed
        self.connecting = False  #: the connect is in flight: ``EPOLLOUT`` is armed
        self.closing = False  #: close once drained (crash, shutdown)
        self.failures = 0  #: connections lost since the last write


class _Inbound:
    """Accepted side of a connection: each read is one turn of its process.

    Reads land in the cluster's one standing buffer.  That is safe
    because ``get_buffer``, ``recv_into`` and ``buffer_updated`` run in
    one handler call: every complete frame is consumed before the next
    connection's ``get_buffer``, and the bytes of a split frame leave the
    buffer as this connection's ``tail``.
    """

    __slots__ = ("cluster", "pid", "process", "sock", "tail")

    def __init__(self, cluster: "TcpCluster", pid: str, sock: Any = None) -> None:
        self.cluster = cluster
        self.pid = pid
        self.process = cluster._processes[pid]
        self.sock = sock
        self.tail = b""  #: the start of a frame the last read split

    def on_readable(self, _events: int) -> None:
        try:
            nbytes = self.sock.recv_into(self.get_buffer(-1))
        except (BlockingIOError, InterruptedError):
            return
        except ConnectionError:  # reset by the peer: as its EOF
            nbytes = 0
        if nbytes:
            self.buffer_updated(nbytes)
        else:
            self.close()

    def close(self) -> None:
        """The connection is over (EOF, reset, crash, shutdown)."""
        cluster = self.cluster
        cluster._inbound.discard(self)
        if self.sock is not None:
            cluster._release(self.sock)
            self.sock = None
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
        cluster._stats["dropped_frames"] += dropped

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


class TcpCluster(TimerQueue, Host):
    """Hosts processes on localhost TCP sockets: the wall-clock host.

    ``add_process`` everything, ``start_all()``, drive the scenario with
    ``run_until``, ``shutdown()``.  ``trace_level`` is forwarded to the
    :class:`~repro.sim.trace.TraceLog` (benchmarks run ``"off"``: at
    six-digit message rates full tracing is the bottleneck);
    ``flush_interval`` widens the coalescing window across turns (see
    the module docstring).
    """

    _send_name = "send_frame"

    def __init__(self, trace_level: str = "full", flush_interval: Optional[float] = None) -> None:
        # The timer heap: ``(when, seq, handle or None, callback, pid or
        # None)`` entries, ``when`` on the monotonic clock.
        TimerQueue.__init__(self)
        Host.__init__(self, self, trace_level)
        self.flush_interval = flush_interval
        self._started = False
        #: ``shutdown`` has run: a send from then on goes nowhere (counted
        #: as dropped)
        self._closed = False
        self._epoch = _monotonic()
        self._epoll: Any = None  #: ``select.epoll``, opened by :meth:`start_all`
        self._epoll_fds: Tuple[int, ...] = ()  #: its fd, what the loop waits on
        self._handlers: Dict[int, Callable[[int], None]] = {}  #: fd -> ready handler
        self._listeners: Dict[str, socket.socket] = {}
        self._addresses: Dict[str, Tuple[str, int]] = {}
        self._conns: Dict[Tuple[str, str], _Conn] = {}
        self._inbound: Set[_Inbound] = set()
        self._recv = memoryview(bytearray(_RECV_BYTES))  #: every connection reads into it
        self._dirty: List[_Conn] = []
        #: ``env.defer`` callbacks with their pids, for this iteration's drain
        self._deferred: List[Tuple[str, Callable[[], None]]] = []
        self._in_turn = False  #: the running turn ends with a flush pass
        self._scheduled = False  #: a flush pass is on the timer heap
        self._stats = dict.fromkeys(  # "wakeups" are buffer_updated calls
            ("frames_sent", "frames_received", "bytes_sent", "flushes", "reconnects",
             "dropped_frames", "encode_cache_hits", "wakeups", "iterations",
             "timers_fired", "timer_late_us"),
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
        return _monotonic() - self._epoch

    def add_process(self, process: Process) -> None:
        if self._started:
            raise RuntimeError("cluster already started")
        super().add_process(process)

    def crash(self, pid: str) -> None:
        """Crash-stop ``pid``: its handlers, timers and deferred work never
        run again, and its listener and sockets close (what it had
        buffered is written first).  Closing twice closes nothing more."""
        super().crash(pid)
        listener = self._listeners.pop(pid, None)
        if listener is not None:
            self._release(listener)
        for inbound in list(self._inbound):
            if inbound.pid == pid:
                inbound.close()
        for conn in self._conns.values():
            if conn.key[0] == pid:
                self._close(conn)

    def stats(self) -> Dict[str, int]:
        """Transport and loop counters."""
        return dict(self._stats)

    # -- the loop --------------------------------------------------------

    def start_all(self) -> None:
        """Restart the clock, open epoll and a listener per process, and
        hand every process its env."""
        if not hasattr(select, "epoll"):
            raise RuntimeError("TcpCluster needs select.epoll: the TCP host runs on Linux only")
        epoll = select.epoll()
        try:
            select.select((epoll.fileno(),), (), (), 0.0)
        except ValueError:  # the fd is past what ``select`` takes
            epoll.close()
            raise RuntimeError(
                "TcpCluster waits on its epoll fd with select.select, which takes "
                "only fds below FD_SETSIZE (1024): this process has too many fds open"
            ) from None
        self._started = True
        self._epoch = _monotonic()
        self._epoll = epoll
        self._epoll_fds = (epoll.fileno(),)
        for pid in self._processes:
            listener = self._listeners[pid] = socket.create_server(("127.0.0.1", 0), backlog=128)
            listener.setblocking(False)
            self._addresses[pid] = listener.getsockname()[:2]
            self._register(listener, _IN, partial(self._accept, pid, listener))
        super().start_all()

    def run_until(self, predicate: Callable[[], bool], timeout: float = 30.0) -> bool:
        """Run the loop until ``predicate()`` -- asked between iterations
        -- is true, or ``timeout`` wall-clock seconds have passed."""
        deadline = _monotonic() + timeout
        run_once = self._run_once
        while not predicate():
            if _monotonic() >= deadline:
                return False
            run_once(deadline)
        return True

    def _run_once(self, deadline: float) -> None:
        """One iteration: wait and poll, ready handlers, due timers, the drain."""
        timers = self._queue
        if self._deferred:
            timeout = 0.0
        else:
            wake = timers[0][0] if timers and timers[0][0] < deadline else deadline
            timeout = max(wake - _monotonic(), 0.0)
        if timeout:  # to the microsecond: ``epoll.poll`` rounds up to a ms
            select.select(self._epoll_fds, (), (), timeout)
        events = self._epoll.poll(0.0)
        handlers = self._handlers
        for fd, mask in events:
            handler = handlers.get(fd)  # an earlier handler may have closed it
            if handler is not None:
                handler(mask)
        ran = bool(events)
        now = _monotonic()
        if timers and timers[0][0] <= now:
            # Everything due now, as one batch: a timer armed by one of
            # them waits for the next iteration even if it is due, so a
            # chain of late timers cannot starve I/O or the timers behind.
            due = []
            while timers and timers[0][0] <= now:
                due.append(heappop(timers))
            crashed = self._crashed
            stats = self._stats
            batch = iter(due)
            try:
                for when, _seq, handle, callback, pid in batch:
                    if handle is not None:
                        if handle.cancelled:
                            self._cancelled_heap -= 1
                            continue
                        handle.fired = True
                    if pid not in crashed:  # crash-stop: never after a crash
                        ran = True
                        stats["timers_fired"] += 1
                        stats["timer_late_us"] += int((now - when) * 1e6)
                        self.turn(callback)
            finally:
                for entry in batch:  # one raised: the rest stay due
                    heappush(timers, entry)
        if self._deferred:
            ran = True
            self._run_deferred()
        if ran:
            self._stats["iterations"] += 1

    def set_timer(self, pid: str, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """``ProcessEnv.set_timer`` of ``pid``: one turn ``delay`` seconds
        from now, unless cancelled or ``pid`` crashes first."""
        when = _monotonic() + delay
        handle = TimerHandle(when - self._epoch, self)
        heappush(self._queue, (when, next(self._counter), handle, callback, pid))
        return handle

    def post(self, pid: Optional[str], delay: float, callback: Callable[[], None]) -> None:
        """Handle-free :meth:`set_timer`; ``pid`` None is a driver step,
        owned by no process."""
        heappush(self._queue, (_monotonic() + delay, next(self._counter), None, callback, pid))

    def turn(self, callback: Callable[[], None]) -> None:
        self._in_turn = True
        try:
            callback()
        finally:
            self._end_turn()

    def defer(self, pid: str, callback: Callable[[], None]) -> None:
        """``ProcessEnv.defer`` of ``pid``: queue ``callback`` for this
        iteration's drain, behind every chunk the poll found readable."""
        self._deferred.append((pid, callback))

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
            # One raised: the rest go first in the next drain.
            self._deferred[:0] = batch
            self._end_turn()

    # -- sockets ---------------------------------------------------------

    def _register(self, sock: socket.socket, events: int, handler: Callable[[int], None]) -> None:
        fd = sock.fileno()
        self._handlers[fd] = handler
        self._epoll.register(fd, events)

    def _release(self, sock: socket.socket) -> None:
        """Take ``sock`` off the fd table and close it."""
        fd = sock.fileno()
        del self._handlers[fd]
        self._epoll.unregister(fd)
        sock.close()

    def _accept(self, pid: str, listener: socket.socket, _events: int) -> None:
        while True:
            try:
                sock, _address = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except ConnectionAbortedError:  # the connecting side gave up first
                continue
            sock.setblocking(False)
            inbound = _Inbound(self, pid, sock)
            self._inbound.add(inbound)
            self._register(sock, _IN, inbound.on_readable)

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
            conn = self._conns[key] = _Conn(key)
        conn.buf.append(frame)
        conn.size += len(frame)
        stats["frames_sent"] += 1
        if not conn.dirty:
            conn.dirty = True
            self._dirty.append(conn)
            window = self.flush_interval
            if not self._scheduled and (window is not None or not self._in_turn):
                # One window for every connection (at once outside a turn).
                self._scheduled = True
                self.post(None, window or 0.0, self._flush_pass)
        if conn.size >= _FLUSH_BYTES:
            self._flush(conn)

    def _end_turn(self) -> None:
        self._in_turn = False
        if self._dirty and not self._scheduled:
            self._flush_pass()

    def _flush_pass(self) -> None:
        """The one place buffered sends reach the sockets (besides the
        ``_FLUSH_BYTES`` trigger): every dirty connection is written, at
        a turn boundary or when the window runs out."""
        dirty = self._dirty
        self._scheduled = False
        for conn in dirty:
            conn.dirty = False
            if conn.buf:
                self._flush(conn)
        dirty.clear()

    def _flush(self, conn: _Conn) -> None:
        sock = conn.sock
        if sock is None:
            if conn.failures:  # its connection was lost since its last write
                if conn.failures > 1 or conn.key[1] in self._crashed:
                    # Crash-stop peers never come back under the same
                    # pid: drop rather than retry-loop.
                    self._drop(conn)
                    return
                self._stats["reconnects"] += 1
            self._connect(conn)
            return
        if conn.connecting or conn.pending:
            return  # ``EPOLLOUT`` writes what waits
        buf = conn.buf
        data = buf[0] if len(buf) == 1 else b"".join(buf)
        try:
            sent = sock.send(data)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:  # reset: ``buf`` is intact for the reconnect
            self._lost(conn)
            return
        buf.clear()
        stats = self._stats
        stats["flushes"] += 1
        stats["bytes_sent"] += conn.size
        conn.size = 0
        conn.failures = 0
        if sent < len(data):
            conn.pending = memoryview(data)[sent:]
            self._epoll.modify(sock.fileno(), _IN | _OUT)
        elif conn.closing:
            self._shut(conn)

    def _connect(self, conn: _Conn) -> None:
        """Open ``conn``'s socket without waiting: ``EPOLLOUT`` says when
        it is up, and its frames wait in ``conn.buf`` until then."""
        address = self._addresses.get(conn.key[1])
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if address is None or sock.connect_ex(address) not in (0, errno.EINPROGRESS):
            sock.close()  # shut down, or the destination crashed since
            self._drop(conn)
            return
        conn.sock = sock
        conn.connecting = True
        self._register(sock, _IN | _OUT, partial(self._on_conn, conn))

    def _on_conn(self, conn: _Conn, events: int) -> None:
        sock = conn.sock
        if conn.connecting:
            conn.connecting = False
            if sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
                # Refused: the destination crashed between check and connect.
                self._shut(conn)
                self._drop(conn)
                return
        elif events & ~_OUT:  # readable, hung up or failed: the peer is gone
            self._lost(conn)
            return
        elif conn.pending:
            try:
                sent = sock.send(conn.pending)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._lost(conn)
                return
            conn.pending = conn.pending[sent:]
            if conn.pending:
                return
        self._epoll.modify(sock.fileno(), _IN)
        if conn.buf:
            self._flush(conn)
        elif conn.closing:
            self._shut(conn)

    def _lost(self, conn: _Conn) -> None:
        """``conn``'s socket turned out dead: close it.  What it holds goes
        out on a new connection, once (``failures``)."""
        self._release(conn.sock)
        conn.sock = None
        conn.pending = b""
        conn.failures += 1
        if conn.buf and not conn.closing:
            self._flush(conn)

    def _close(self, conn: _Conn) -> None:
        """Close ``conn`` once what it holds is written (a connect in
        flight or a partial write finishes first)."""
        conn.closing = True
        if conn.buf:
            self._flush(conn)
        elif conn.sock is not None and not (conn.connecting or conn.pending):
            self._shut(conn)

    def _shut(self, conn: _Conn) -> None:
        """Close ``conn``'s socket now."""
        self._release(conn.sock)
        conn.sock = None

    def _drop(self, conn: _Conn) -> None:
        self._stats["dropped_frames"] += len(conn.buf)
        conn.buf.clear()
        conn.size = 0
        conn.failures = 0

    def shutdown(self) -> None:
        """Deliver what the last turn sent, then close every socket and
        the epoll fd."""
        if self._epoll is None:
            self._closed = True
            return
        conns = list(self._conns.values())
        try:
            # A pending ``defer`` drain is the last turn: its sends still
            # go.  What the last turn buffered is written, each connection
            # closes once drained, and the accepted sides read to its EOF.
            if self._deferred:
                self._run_deferred()
            for conn in conns:
                self._close(conn)
            self._addresses.clear()  # a late send has no destination ...
            self._closed = True  # ... and is counted as dropped
            self.run_until(
                lambda: not self._inbound and all(conn.sock is None for conn in conns),
                timeout=_LINGER,
            )
        finally:
            self._closed = True
            for conn in conns:
                if conn.sock is not None:
                    self._shut(conn)
                self._drop(conn)  # never written: the linger ran out
            for inbound in list(self._inbound):
                inbound.close()
            for listener in self._listeners.values():
                self._release(listener)
            self._listeners.clear()
            self._conns.clear()
            self._epoll.close()
            self._epoll = None
