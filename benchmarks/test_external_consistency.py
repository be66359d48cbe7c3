"""Experiment B2: external inconsistency under sequencer crashes.

The paper's central safety claim: the sequencer baseline can hand clients
replies that the group later contradicts (Figure 1(b), Section 2.4);
OAR's weighted-quorum adoption makes that structurally impossible
(Proposition 7).

Protocol: for a sweep of seeds, crash the sequencer *mid-multicast* of a
randomly chosen ordering message (nobody receives it, but the sequencer
already delivered and replied) under a jittery network, run both
protocols on the same scenario shape, and count client adoptions that a
majority of surviving replicas contradict.
"""

import pytest

from repro.analysis import checkers
from repro.broadcast.sequencer import OrderMsg
from repro.core.messages import SeqOrder
from repro.faults import CrashDuringMulticast
from repro.harness import ScenarioConfig, Table, run_scenario, write_result
from repro.sim.latency import UniformLatency

pytestmark = pytest.mark.bench


SEEDS = range(12)
LOST_ORDER_INDEX = 4


def arm_for(protocol: str, n_servers: int):
    message_type = OrderMsg if protocol == "sequencer" else SeqOrder

    def arm(run) -> None:
        counter = {"n": 0}
        threshold = (LOST_ORDER_INDEX - 1) * (n_servers - 1)

        def match(payload) -> bool:
            if not isinstance(payload, message_type):
                return False
            counter["n"] += 1
            return counter["n"] > threshold

        CrashDuringMulticast(run.network, "p1", match, deliver_to=set())

    return arm


def run_one(protocol: str, seed: int):
    return run_scenario(
        ScenarioConfig(
            protocol=protocol,
            n_servers=3,
            n_clients=3,
            requests_per_client=6,
            latency=UniformLatency(0.5, 1.5),
            fd_interval=1.0,
            fd_timeout=4.0,
            arm=arm_for(protocol, 3),
            grace=250.0,
            seed=seed,
        )
    )


def sweep(protocol: str):
    inconsistent = 0
    finished = 0
    for seed in SEEDS:
        run = run_one(protocol, seed)
        if run.all_done():
            finished += 1
        inconsistent += checkers.count_baseline_inconsistencies(
            run.trace, run.correct_servers()
        )
        if protocol == "oar":
            checkers.check_external_consistency(run.trace, strict=False)
    return inconsistent, finished


def test_sequencer_baseline_is_inconsistent(benchmark):
    inconsistent, _finished = benchmark.pedantic(
        sweep, args=("sequencer",), rounds=1, iterations=1
    )
    assert inconsistent >= 1


def test_oar_is_externally_consistent(benchmark):
    inconsistent, finished = benchmark.pedantic(
        sweep, args=("oar",), rounds=1, iterations=1
    )
    assert inconsistent == 0
    assert finished == len(list(SEEDS))


def test_b2_report(benchmark):
    seq_inconsistent, seq_finished = sweep("sequencer")
    oar_inconsistent, oar_finished = benchmark.pedantic(
        sweep, args=("oar",), rounds=1, iterations=1
    )
    total = len(list(SEEDS)) * 18  # 3 clients x 6 requests per run

    table = Table(
        "B2 -- Client-visible inconsistencies under sequencer crash-mid-multicast",
        [
            "protocol",
            "runs",
            "runs finished",
            "adoptions",
            "inconsistent adoptions",
        ],
    )
    table.add_row("sequencer ABcast", len(list(SEEDS)), seq_finished, total,
                  seq_inconsistent)
    table.add_row("OAR", len(list(SEEDS)), oar_finished, total, oar_inconsistent)
    lines = [
        table.render(),
        "",
        "shape: the baseline exposes stale replies under exactly the",
        "Figure 1(b) conditions; OAR's majority-weight rule keeps the count",
        "at zero while finishing every run (Proposition 7).",
    ]
    write_result("B2_external_consistency", "\n".join(lines))
    assert seq_inconsistent > oar_inconsistent == 0
