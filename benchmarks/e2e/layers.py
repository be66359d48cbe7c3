"""Where the traced run puts its spans, and the per-layer table read from them.

A layer is a module of :mod:`repro`; its spans are named
``<module>.<callable>``.  Everything here reads either a span aggregate
of :class:`~benchmarks.e2e.spans.SpanRecorder` or a *public* counter of
the finished run (``stats()``, ``events_processed``,
``messages_delivered``, client/server counters).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.analysis import checkers
from repro.broadcast.reliable import ReliableMulticast
from repro.consensus.chandra_toueg import ConsensusManager
from repro.core import server as server_module
from repro.core.client import OARClient, ShardedOARClient
from repro.core.execution import ExecutionEngine
from repro.core.sequences import MessageSequence
from repro.core.server import OARServer
from repro.failure.detector import HeartbeatFailureDetector
from repro.runtime.codec import BinaryCodec
from repro.runtime.tcp import TcpCluster
from repro.sharding.cluster import ShardedRun
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.trace import TraceLog
from repro.statemachine import BankMachine, KVStoreMachine
from repro.statemachine.undo import UndoLog

from benchmarks.e2e.metrics import CHECKERS, percentile
from benchmarks.e2e.spans import SpanRecorder

#: A paced request adopted later than this after it was due misses its SLO.
SLO_MS = 50.0


def _rid(value: Any) -> Optional[str]:
    """The one request id a payload names, if it names exactly one."""
    rid = getattr(value, "rid", None)
    if rid is None:  # an R-multicast envelope around a request
        rid = getattr(getattr(value, "payload", None), "rid", None)
    return rid if isinstance(rid, str) else None


def _last(args: tuple) -> Optional[str]:
    return _rid(args[-1])


def _second(args: tuple) -> Optional[str]:
    value = args[1]
    return value if isinstance(value, str) else _rid(value)


def _count_orders(args: tuple, counters: Dict[str, int]) -> None:
    """Ordering messages handled and the request ids they carried."""
    rids = getattr(args[-1], "rids", None)
    if rids is not None:
        counters["orders"] += 1
        counters["ordered_rids"] += len(rids)


def install(recorder: SpanRecorder) -> None:
    """Wrap the layers' public callables; ``recorder.uninstall()`` undoes it.

    Must run before the cluster is built: connection handlers and
    process environments hoist bound methods at construction.
    """
    put = recorder.install
    put(BinaryCodec, "encode_frame", "runtime.codec.encode", _last)
    put(BinaryCodec, "decode_frame", "runtime.codec.decode")
    put(TcpCluster, "send_frame", "runtime.tcp.send", _last)
    put(ReliableMulticast, "multicast", "broadcast.reliable.multicast", _second)
    put(ReliableMulticast, "on_message", "broadcast.reliable.on_message", _last)
    put(OARServer, "on_message", "core.server.on_message", _last)
    put(OARServer, "on_app_message", "core.server.on_app_message", _last, _count_orders)
    put(ShardedOARClient, "submit", "core.client.submit")
    put(OARClient, "on_message", "core.client.on_message", _last)
    for op in ("concat", "subtract", "append", "suffix_from", "prefix_to", "is_prefix_of"):
        put(MessageSequence, op, f"core.sequences.{op}")
    for op in ("push", "push_pending", "resolve", "undo_last", "pop_last"):
        put(UndoLog, op, f"statemachine.undo.{op}", _second)
    put(UndoLog, "commit", "statemachine.undo.commit")
    for machine in (KVStoreMachine, BankMachine):
        for op in ("apply_with_undo", "apply"):
            if op in vars(machine):
                put(machine, op, f"statemachine.{op}")
    put(ExecutionEngine, "submit", "core.execution.submit", _second)
    put(ExecutionEngine, "submit_inverse", "core.execution.submit_inverse", _second)
    put(ExecutionEngine, "submit_read", "core.execution.submit_read")
    put(HeartbeatFailureDetector, "on_message", "failure.detector.on_message")
    put(ConsensusManager, "on_message", "consensus.on_message")
    put(ConsensusManager, "propose", "consensus.propose")
    # Imported by name into the server module, so patched where they are called.
    put(server_module, "compute_bad_new", "core.cnsv_order.compute_bad_new")
    put(server_module, "decision_from_vector", "core.cnsv_order.decision_from_vector")
    put(Simulator, "run", "sim.loop.run")
    put(Simulator, "run_until", "sim.loop.run_until")
    put(SimNetwork, "transmit", "sim.network.transmit", _last)
    put(TraceLog, "record", "sim.trace.record")
    put(ShardedRun, "check_all", "analysis.check_all")
    for fn in vars(checkers):
        if fn.startswith("check_"):
            put(checkers, fn, f"analysis.{fn}")


def _per(amount: float, ops: int) -> float:
    return amount / ops if ops else 0.0


def counter_metrics(
    view: Any,
    ops: int,
    transport: Dict[str, int],
    adopt_times: Sequence[float],
) -> Dict[str, float]:
    """The part of the per-layer table that needs no spans.

    ``view`` is the finished :class:`~repro.sharding.cluster.ShardedRun`,
    ``ops`` the adopted operations, ``transport`` the TCP cluster's
    ``stats()`` (empty on the sim), ``adopt_times`` the adoption instants
    in host seconds (empty on the sim, whose clock is not the host's).
    """
    servers = view.servers
    clients = view.clients
    metrics: Dict[str, float] = {}

    frames = transport.get("frames_sent", 0)
    flushes = transport.get("flushes", 0)
    metrics["runtime.codec.bytes_per_frame"] = _per(transport.get("bytes_sent", 0), frames)
    metrics["runtime.tcp.frames_per_op"] = _per(frames, ops)
    metrics["runtime.tcp.bytes_per_op"] = _per(transport.get("bytes_sent", 0), ops)
    metrics["runtime.tcp.flushes_per_op"] = _per(flushes, ops)
    metrics["runtime.tcp.frames_per_flush"] = _per(frames, flushes)
    metrics["runtime.tcp.encode_cache_hit_ratio"] = _per(
        transport.get("encode_cache_hits", 0), frames
    )
    metrics["runtime.tcp.dropped_frames"] = transport.get("dropped_frames", 0)
    metrics["runtime.tcp.reconnects"] = transport.get("reconnects", 0)

    metrics["core.server.reads_served_per_op"] = _per(
        sum(server.reads_served for server in servers), ops
    )
    metrics["core.server.phase2_count"] = phase2_count(view)
    metrics["consensus.instances"] = metrics["core.server.phase2_count"]
    metrics["core.client.late_replies_per_op"] = _per(
        sum(client.late_replies for client in clients), ops
    )
    metrics["core.client.retransmissions"] = sum(
        client.retransmissions + client.read_retransmissions for client in clients
    )
    metrics["failure.detector.suspicions"] = sum(
        len(detector.suspects) for detector in view.detectors.values()
    )
    metrics["sharding.cross_shard_tx_share"] = _per(
        sum(client.cross_shard_started for client in clients), ops
    )
    metrics["sharding.tx_aborts"] = sum(client.cross_shard_aborted for client in clients)
    metrics["sharding.redirects"] = sum(client.redirects for client in clients)

    if view.sim is not None:
        metrics["sim.loop.events_per_op"] = _per(view.sim.events_processed, ops)
        metrics["msgs_per_op"] = _per(view.network.messages_delivered, ops)
        metrics["sim.trace.records_per_op"] = _per(len(view.trace), ops)

    # Throughput by adoption order: first and last quarter of the ops.
    quarter = len(adopt_times) // 4
    if quarter >= 2:
        ordered = sorted(adopt_times)
        first = (quarter - 1) / (ordered[quarter - 1] - ordered[0])
        last = (quarter - 1) / (ordered[-1] - ordered[-quarter])
        metrics["workload.ops_per_s_q1"] = first
        metrics["workload.ops_per_s_q4"] = last
        metrics["workload.throughput_decay"] = last / first
    return metrics


def phase2_count(view: Any) -> int:
    """Conservative phases run: every one ends an epoch of its shard."""
    return sum(max(server.epoch for server in shard) for shard in view.shards)


def span_metrics(
    recorder: SpanRecorder,
    view: Any,
    ops: int,
    drive_s: float,
    window_s: float,
    transport: Dict[str, int],
    speed: float,
) -> Dict[str, float]:
    """The part of the per-layer table read from span aggregates.

    ``drive_s`` is already at nominal machine speed; the recorder's raw
    seconds are brought there by ``speed`` (see ``calibrate.py``).
    """
    calls = recorder.calls

    def layer_self(layer: str) -> float:
        return recorder.layer_self_s(layer) * speed

    def own(name: str) -> float:
        return recorder.totals[name][2] * speed

    def inclusive(*names: str) -> float:
        return recorder.inclusive_s(*names) * speed

    def us_per_op(layer: str) -> float:
        return _per(layer_self(layer) * 1e6, ops)

    metrics: Dict[str, float] = {}
    metrics["runtime.codec.encode_calls_per_op"] = _per(calls("runtime.codec.encode"), ops)
    metrics["runtime.codec.decode_calls_per_op"] = _per(calls("runtime.codec.decode"), ops)
    metrics["runtime.codec.encode_self_us_per_op"] = _per(own("runtime.codec.encode") * 1e6, ops)
    metrics["runtime.codec.decode_self_us_per_op"] = _per(own("runtime.codec.decode") * 1e6, ops)
    metrics["runtime.tcp.send_self_us_per_op"] = us_per_op("runtime.tcp")

    receipts = calls("broadcast.reliable.on_message")
    metrics["broadcast.reliable.multicasts_per_op"] = _per(
        calls("broadcast.reliable.multicast"), ops
    )
    metrics["broadcast.reliable.receipts_per_op"] = _per(receipts, ops)
    # Useful receipts are the ones that R-deliver: each request once per
    # replica.  The rest are relays of something already seen.
    metrics["broadcast.reliable.first_receipt_ratio"] = _per(
        sum(len(server.r_delivered) for server in view.servers), receipts
    )
    metrics["broadcast.reliable.self_us_per_op"] = us_per_op("broadcast.reliable")

    metrics["core.server.handler_self_us_per_op"] = us_per_op("core.server")
    metrics["core.server.rids_per_order"] = _per(
        recorder.counters["ordered_rids"], recorder.counters["orders"]
    )
    metrics["core.sequences.calls_per_op"] = _per(recorder.layer_calls("core.sequences"), ops)
    metrics["core.sequences.self_us_per_op"] = us_per_op("core.sequences")
    metrics["core.execution.submit_self_us_per_op"] = us_per_op("core.execution")
    metrics["statemachine.apply_self_us_per_op"] = us_per_op("statemachine")
    metrics["statemachine.undo.pushes_per_op"] = _per(
        calls("statemachine.undo.push", "statemachine.undo.push_pending"), ops
    )
    metrics["statemachine.undo.self_us_per_op"] = us_per_op("statemachine.undo")

    metrics["core.client.replies_per_op"] = _per(calls("core.client.on_message"), ops)
    metrics["core.client.reply_self_us_per_op"] = _per(own("core.client.on_message") * 1e6, ops)

    heartbeats = calls("failure.detector.on_message")
    received = transport.get("frames_received") or (
        view.network.messages_delivered if view.sim is not None else 0
    )
    metrics["failure.detector.heartbeats_per_s"] = heartbeats / drive_s if drive_s else 0.0
    metrics["failure.detector.heartbeat_frame_share"] = _per(heartbeats, received)
    metrics["failure.detector.self_us_per_op"] = us_per_op("failure.detector")

    metrics["consensus.msgs_per_instance"] = _per(
        calls("consensus.on_message"), phase2_count(view)
    )
    metrics["consensus.self_ms"] = layer_self("consensus") * 1e3
    metrics["core.cnsv_order.self_ms"] = layer_self("core.cnsv_order") * 1e3

    if view.sim is not None:
        metrics["sim.loop.host_ns_per_event"] = _per(
            layer_self("sim.loop") * 1e9, view.sim.events_processed
        )
    metrics["sim.network.transmit_self_us_per_op"] = us_per_op("sim.network")
    metrics["sim.trace.record_self_us_per_op"] = us_per_op("sim.trace")

    check_s = inclusive("analysis.check_all")
    simulate_s = inclusive("sim.loop.run", "sim.loop.run_until")
    metrics["analysis.simulate_s"] = simulate_s
    metrics["analysis.check_s"] = check_s
    metrics["analysis.check_share"] = (
        check_s / (check_s + simulate_s) if check_s + simulate_s else 0.0
    )
    for fn in CHECKERS:
        metrics[f"analysis.{fn}_s"] = inclusive(f"analysis.{fn}")

    metrics["trace.unattributed_share"] = 1.0 - recorder.self_s() / window_s
    return metrics


def latency_metrics(
    latencies_ms: Sequence[float], lateness_ms: Sequence[float]
) -> Dict[str, float]:
    """Tail and SLO numbers that are not yet steady enough to carry a bound."""
    metrics = {"core.client.latency_p99_ms": percentile(latencies_ms, 0.99)}
    if lateness_ms and latencies_ms:
        metrics["workload.generator_lateness_p99_ms"] = percentile(lateness_ms, 0.99)
        metrics["core.client.slo50_miss_share"] = sum(
            1 for latency in latencies_ms if latency > SLO_MS
        ) / len(latencies_ms)
    return metrics
