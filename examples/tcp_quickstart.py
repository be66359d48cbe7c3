#!/usr/bin/env python
"""Quickstart: a sharded OAR cluster over real TCP sockets.

The simulator is the correctness oracle; this is the same protocol code
on the real backend -- every replica, sequencer, and client behind a
localhost TCP socket, frames on the compact binary wire codec, sends
coalesced per connection.  The run returns the same ``ShardedRun`` view
the simulator produces, so the full paper-property checker bundle
applies to a wall-clock run unchanged.

Run:  python examples/tcp_quickstart.py
"""

from repro.runtime import RuntimeScenarioConfig, run_runtime_scenario
from repro.sharding.cluster import ShardedScenarioConfig


def main() -> None:
    config = RuntimeScenarioConfig(
        scenario=ShardedScenarioConfig(
            seed=42,
            n_shards=2,
            n_servers=3,
            n_clients=4,
            requests_per_client=15,
            machine="kv",
            workload="uniform",
            n_keys=32,
        ),
        backend="tcp",
    )
    print("Running: 2 shards x 3 replicas + 4 clients over TCP sockets...\n")
    run = run_runtime_scenario(config)

    assert run.completed, "the scenario did not quiesce"
    run.check_all()  # the same checkers that gate every simulator run

    stats = run.transport_stats()
    print(f"adopted replies : {len(run.adopted())}")
    print(f"throughput      : {run.ops_per_sec():,.0f} ops/sec wall-clock")
    print(
        f"transport       : {stats['frames_sent']:,} frames in "
        f"{stats['flushes']:,} socket writes "
        f"({stats['bytes_sent'] / 1024:,.0f} KiB, "
        f"{stats['encode_cache_hits']:,} fan-out encode-cache hits)"
    )

    print("\nall paper guarantees verified over real sockets:")
    print("  - per-shard total order and replica convergence")
    print("  - read consistency (replica-local reads)")
    print("  - cross-shard atomicity (2PC)")
    print("  - admission and fault-plane accounting")


if __name__ == "__main__":
    main()
