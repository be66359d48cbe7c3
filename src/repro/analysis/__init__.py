"""Trace analysis: correctness checkers and statistics.

The paper's guarantees -- the Cnsv-order specification (Section 5.4), the
majority guarantee (Section 4) and Propositions 1-7 (Section 5.6,
Appendix A) -- are implemented here as machine-checkable predicates over
run traces.  Integration tests and the property-based scenario fuzzer
assert them over thousands of randomized fault schedules; the benchmark
harness uses them to score protocols (e.g. counting external
inconsistencies of the sequencer baseline vs. OAR).
"""

from repro.analysis.checkers import (
    CheckFailure,
    DeliveryIndex,
    check_at_least_once,
    check_at_most_once,
    check_cnsv_order_properties,
    check_cross_shard_atomicity,
    check_external_consistency,
    check_majority_guarantee,
    check_replica_convergence,
    check_single_shard_properties,
    check_total_order,
    count_baseline_inconsistencies,
    reconstruct_delivered,
)
from repro.analysis.stats import LatencyStats, latencies_from_trace, summarize
from repro.analysis.timeline import describe_run, render_timeline, stage_latencies

__all__ = [
    "CheckFailure",
    "DeliveryIndex",
    "LatencyStats",
    "check_at_least_once",
    "check_at_most_once",
    "check_cnsv_order_properties",
    "check_cross_shard_atomicity",
    "check_external_consistency",
    "check_majority_guarantee",
    "check_replica_convergence",
    "check_single_shard_properties",
    "check_total_order",
    "count_baseline_inconsistencies",
    "describe_run",
    "latencies_from_trace",
    "reconstruct_delivered",
    "render_timeline",
    "stage_latencies",
    "summarize",
]
