"""Experiment B15: robustness under link faults beyond crash-stop.

The paper's system model (Section 3) assumes reliable FIFO channels;
every benchmark so far ran on them.  B15 breaks the assumption with the
composable fault plane (:mod:`repro.sim.faultplane`) and measures what
the hardening costs:

* **goodput and retransmit overhead vs. link fault rate** -- a sweep of
  independent per-message drop/duplication probabilities applied to
  *every* link, with client retransmission and the sequencer's
  anti-entropy ``sync_interval`` repairing the losses.  Every cell must
  converge (all requests adopted) and pass the full checker bundle,
  including ``check_fault_plane_accounting``;
* **corruption is detected, never applied** -- a corruption cell where
  the wire checksum drops every mangled payload before the protocol
  sees it (``corrupt_dropped == corrupted``, replicas converge);
* **equivocation is detected** -- a scripted Byzantine sequencer sends
  one replica a different order than the rest; the clients' order
  certificates raise the alarm deterministically.
"""

import pytest

from repro.core.client import OARClient
from repro.core.messages import SeqOrder
from repro.core.server import OARConfig, OARServer
from repro.failure.detector import ScriptedFailureDetector
from repro.faults import FaultSchedule
from repro.harness import Table, write_result
from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.statemachine import CounterMachine

pytestmark = pytest.mark.bench

#: (drop, duplicate) per-message probabilities, uniform on every link.
FAULT_CELLS = [
    (0.00, 0.00),
    (0.02, 0.02),
    (0.05, 0.05),
    (0.08, 0.04),
]
CLIENTS = 3
REQUESTS = 15  #: per client
RETRY_INTERVAL = 25.0
SYNC_INTERVAL = 20.0


def run_lossy(drop: float, duplicate: float, seed: int = 0):
    """One convergence cell: uniform drop+dup, retransmit + anti-entropy.

    Scripted (silent) failure detectors keep the run in phase 1: the
    Cnsv-order consensus assumes reliable channels, so loss resilience
    is the optimistic path's job -- retransmission for requests and
    replies, the sync tick for ordering messages.
    """
    schedule = None
    if drop > 0.0 or duplicate > 0.0:
        schedule = FaultSchedule().links(drop=drop, duplicate=duplicate)
    run = run_scenario(
        ScenarioConfig(
            protocol="oar",
            machine="kv",
            n_servers=3,
            n_clients=CLIENTS,
            requests_per_client=REQUESTS,
            fd_kind="scripted",
            retry_interval=RETRY_INTERVAL,
            oar=OARConfig(sync_interval=SYNC_INTERVAL),
            fault_schedule=schedule,
            grace=100.0,
            horizon=50_000.0,
            seed=seed,
        )
    )
    assert run.all_done(), f"no convergence at drop={drop} dup={duplicate}"
    run.check_all()
    return run


def goodput(run) -> float:
    adopts = [event.time for event in run.trace.events(kind="adopt")]
    start = min(event.time for event in run.trace.events(kind="submit"))
    span = max(adopts) - start
    return len(adopts) / span if span > 0 else 0.0


class TestB15FaultTolerance:
    def test_goodput_and_overhead_vs_fault_rate(self):
        table = Table(
            "B15  goodput + retransmit overhead vs link drop/dup rate -- "
            f"retry={RETRY_INTERVAL}, sync={SYNC_INTERVAL}, every link lossy",
            [
                "drop", "dup", "adopted", "goodput",
                "retransmits", "dropped", "duplicated",
            ],
        )
        results = {}
        for drop, duplicate in FAULT_CELLS:
            run = run_lossy(drop, duplicate)
            adopted = len(run.adopted())
            assert adopted == CLIENTS * REQUESTS
            retransmits = sum(c.retransmissions for c in run.clients)
            stats = run.network.stats()
            table.add_row(
                drop, duplicate, adopted, round(goodput(run), 4),
                retransmits, stats.get("dropped", 0),
                stats.get("duplicated", 0),
            )
            results[(drop, duplicate)] = (goodput(run), retransmits)
        write_result("B15_fault_tolerance", table.render())

        # The fault-free cell needs no repair at all.
        assert results[(0.0, 0.0)][1] == 0
        # The acceptance cell (>= 5% drop + dup on every link) converged
        # (asserted in run_lossy) -- and the faults genuinely fired.
        heavy = run_lossy(0.05, 0.05, seed=1)
        assert heavy.network.fault_plane.dropped > 0
        assert heavy.network.fault_plane.duplicated > 0

    def test_corruption_detected_and_dropped(self):
        run = run_scenario(
            ScenarioConfig(
                protocol="oar",
                machine="kv",
                n_servers=3,
                n_clients=CLIENTS,
                requests_per_client=REQUESTS,
                fd_kind="scripted",
                retry_interval=RETRY_INTERVAL,
                oar=OARConfig(sync_interval=SYNC_INTERVAL),
                fault_schedule=FaultSchedule().links(corrupt=0.04),
                grace=100.0,
                horizon=50_000.0,
                seed=2,
            )
        )
        assert run.all_done(), "no convergence under corruption"
        run.check_all()
        plane = run.network.fault_plane
        assert plane.corrupted > 0
        # Detected-and-dropped, never applied: every corrupted payload
        # was stopped at the checksum gate.
        assert run.network.corrupt_dropped == plane.corrupted

    def test_equivocating_sequencer_raises_alarm(self):
        sim = Simulator(seed=5)
        network = SimNetwork(sim, latency=ConstantLatency(1.0))
        group = ["p1", "p2", "p3"]
        for pid in group:
            network.add_process(
                OARServer(
                    pid, group, CounterMachine(), ScriptedFailureDetector(),
                    OARConfig(batch_interval=5.0),
                )
            )
        clients = [OARClient(f"c{i + 1}", [group]) for i in range(2)]
        for client in clients:
            network.add_process(client)
        network.start_all()
        plane = network.ensure_fault_plane()
        swapped = []

        def equivocate(src, dst, payload):
            if swapped or src != "p1" or dst != "p3":
                return None
            if isinstance(payload, SeqOrder) and len(payload.rids) >= 2:
                swapped.append(True)
                rids = list(payload.rids)
                rids[0], rids[1] = rids[1], rids[0]
                return SeqOrder(payload.epoch, tuple(rids), payload.start)
            return None

        plane.add_rewrite(equivocate)
        sim.schedule_at(0.0, lambda: clients[0].submit(("incr",)))
        sim.schedule_at(0.0, lambda: clients[1].submit(("incr",)))
        sim.run(until=100.0, max_events=200_000)
        assert swapped
        assert sum(c.equivocations_detected for c in clients) > 0
        assert network.trace.events(kind="equivocation_alarm")
