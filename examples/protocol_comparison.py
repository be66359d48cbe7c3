#!/usr/bin/env python
"""Compare all four replication protocols on one workload.

Runs the same closed-loop counter workload over:

* OAR (this paper),
* sequencer-based Atomic Broadcast (Isis-style, the unsafe baseline),
* conservative Atomic Broadcast by reduction to consensus [CT96],
* passive (primary-backup) replication,

first failure-free, then with a crash of the lead replica, and prints the
latency / consistency scoreboard the paper's introduction describes.

Run:  python examples/protocol_comparison.py
"""

from repro import ScenarioConfig, run_scenario
from repro.analysis import checkers
from repro.analysis.stats import summarize
from repro.faults import FaultSchedule
from repro.harness.tables import Table

PROTOCOLS = ["oar", "sequencer", "ct", "passive"]
LABELS = {
    "oar": "OAR (this paper)",
    "sequencer": "sequencer ABcast",
    "ct": "consensus ABcast",
    "passive": "primary-backup",
}


def run_case(protocol: str, crash: bool):
    schedule = FaultSchedule().crash(10.0, "p1") if crash else None
    return run_scenario(
        ScenarioConfig(
            protocol=protocol,
            n_servers=3,
            n_clients=2,
            requests_per_client=10,
            fd_interval=1.5,
            fd_timeout=5.0,
            fault_schedule=schedule,
            grace=250.0,
            seed=11,
        )
    )


def main() -> None:
    table = Table(
        "Protocol comparison: 3 replicas, 20 requests, crash of p1 at t=10",
        [
            "protocol",
            "clean mean latency",
            "crash mean latency",
            "finished",
            "inconsistencies",
        ],
    )
    for protocol in PROTOCOLS:
        clean = run_case(protocol, crash=False)
        crashed = run_case(protocol, crash=True)
        inconsistent = checkers.count_baseline_inconsistencies(
            crashed.trace, crashed.correct_servers()
        )
        table.add_row(
            LABELS[protocol],
            summarize(clean.latencies()).mean,
            summarize(crashed.latencies()).mean if crashed.latencies() else "-",
            "yes" if crashed.all_done() else "NO",
            inconsistent,
        )
    print(table.render())
    print(
        "\nreading guide: the sequencer baseline is fastest but can hand\n"
        "clients replies the group later contradicts (see\n"
        "examples/sequencer_anomaly.py for the surgical version);\n"
        "consensus-per-request is safe but slow; OAR sits one message\n"
        "delay above the sequencer with zero inconsistencies."
    )


if __name__ == "__main__":
    main()
