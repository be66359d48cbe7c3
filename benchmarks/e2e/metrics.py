"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repo root repeats the end-to-end and per-layer
tables (the driver reads them from there, and a test keeps the two in
step); the bounds live only in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Result files and raw spans go here (git-ignored).
OUT = Path(__file__).resolve().parent / "out"

#: (name, unit, better).  Every workload reports every one of them, never 0.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Checker-bundle members timed one by one (inclusive seconds).
CHECKERS: Tuple[str, ...] = (
    "check_single_shard_properties",
    "check_majority_guarantee",
    "check_read_consistency",
    "check_cross_shard_atomicity",
    "check_migration_atomicity",
    "check_fragment_conservation",
    "check_fault_plane_accounting",
    "check_admission_accounting",
)

#: Functions of the seed alone: read from public counters of the
#: simulated run, so two runs of one seed print the same digits.
EXACT: Tuple[str, ...] = (
    "failed_share",
    "msgs_per_op",
    "sim_goodput_ops_per_unit",
    "sim_latency_p50_units",
    "sim_latency_p99_units",
    "sim_blackout_units",
)

#: (name, unit, better).  A layer a workload does not exercise reports 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # ---- outcomes that cannot be end-to-end under the driver's contract
    # (zero when healthy, or defined on the simulated clock only)
    ("failed_share", "share", "lower"),
    ("msgs_per_op", "count", "lower"),
    ("sim_goodput_ops_per_unit", "ops/unit", "higher"),
    ("sim_latency_p50_units", "units", "lower"),
    ("sim_latency_p99_units", "units", "lower"),
    ("sim_blackout_units", "units", "lower"),
    # ---- runtime.codec
    ("runtime.codec.encode_calls_per_op", "count", "lower"),
    ("runtime.codec.encode_self_us_per_op", "us", "lower"),
    ("runtime.codec.decode_calls_per_op", "count", "lower"),
    ("runtime.codec.decode_self_us_per_op", "us", "lower"),
    ("runtime.codec.bytes_per_frame", "B", "lower"),
    # ---- runtime.tcp
    ("runtime.tcp.frames_per_op", "count", "lower"),
    ("runtime.tcp.bytes_per_op", "B", "lower"),
    ("runtime.tcp.flushes_per_op", "count", "lower"),
    ("runtime.tcp.frames_per_flush", "count", "higher"),
    ("runtime.tcp.encode_cache_hit_ratio", "share", "higher"),
    ("runtime.tcp.send_self_us_per_op", "us", "lower"),
    ("runtime.tcp.dropped_frames", "count", "lower"),
    ("runtime.tcp.reconnects", "count", "lower"),
    # ---- broadcast.reliable
    ("broadcast.reliable.multicasts_per_op", "count", "lower"),
    ("broadcast.reliable.receipts_per_op", "count", "lower"),
    ("broadcast.reliable.first_receipt_ratio", "share", "higher"),
    ("broadcast.reliable.self_us_per_op", "us", "lower"),
    # ---- core.server
    ("core.server.handler_self_us_per_op", "us", "lower"),
    ("core.server.rids_per_order", "count", "higher"),
    ("core.server.reads_served_per_op", "count", "lower"),
    ("core.server.phase2_count", "count", "lower"),
    # ---- core.sequences
    ("core.sequences.calls_per_op", "count", "lower"),
    ("core.sequences.self_us_per_op", "us", "lower"),
    # ---- execution, state machine, undo log
    ("core.execution.submit_self_us_per_op", "us", "lower"),
    ("statemachine.apply_self_us_per_op", "us", "lower"),
    ("statemachine.undo.pushes_per_op", "count", "lower"),
    ("statemachine.undo.self_us_per_op", "us", "lower"),
    # ---- core.client
    ("core.client.replies_per_op", "count", "lower"),
    ("core.client.reply_self_us_per_op", "us", "lower"),
    ("core.client.late_replies_per_op", "count", "lower"),
    ("core.client.retransmissions", "count", "lower"),
    ("core.client.latency_p99_ms", "ms", "lower"),
    ("core.client.slo50_miss_share", "share", "lower"),
    # ---- failure.detector
    ("failure.detector.heartbeats_per_s", "1/s", "lower"),
    ("failure.detector.heartbeat_frame_share", "share", "lower"),
    ("failure.detector.self_us_per_op", "us", "lower"),
    ("failure.detector.suspicions", "count", "lower"),
    # ---- consensus, core.cnsv_order
    ("consensus.instances", "count", "lower"),
    ("consensus.msgs_per_instance", "count", "lower"),
    ("consensus.self_ms", "ms", "lower"),
    ("core.cnsv_order.self_ms", "ms", "lower"),
    # ---- sim.*
    ("sim.loop.events_per_op", "count", "lower"),
    ("sim.loop.host_ns_per_event", "ns", "lower"),
    ("sim.network.transmit_self_us_per_op", "us", "lower"),
    ("sim.trace.records_per_op", "count", "lower"),
    ("sim.trace.record_self_us_per_op", "us", "lower"),
    # ---- analysis
    ("analysis.simulate_s", "s", "lower"),
    ("analysis.check_s", "s", "lower"),
    ("analysis.check_share", "share", "lower"),
    *((f"analysis.{fn}_s", "s", "lower") for fn in CHECKERS),
    # ---- sharding
    ("sharding.cross_shard_tx_share", "share", "lower"),
    ("sharding.tx_aborts", "count", "lower"),
    ("sharding.redirects", "count", "lower"),
    # ---- the workload generator itself
    ("workload.generator_lateness_p99_ms", "ms", "lower"),
    ("workload.ops_per_s_q1", "1/s", "higher"),
    ("workload.ops_per_s_q4", "1/s", "higher"),
    ("workload.throughput_decay", "ratio", "higher"),
    # ---- validity of this table
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "share", "lower"),
)


def load_benchmark_json() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median_of(rounds: Iterable[Dict[str, float]], names: Iterable[str]) -> Dict[str, float]:
    """Per-name median over the rounds that report the name."""
    rounds = list(rounds)
    merged: Dict[str, float] = {}
    for name in names:
        values: List[float] = [r[name] for r in rounds if name in r]
        merged[name] = statistics.median(values) if values else 0.0
    return merged


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else math.inf
