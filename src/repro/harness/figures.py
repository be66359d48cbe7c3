"""Figure-exact reproductions of the paper's illustrative runs.

Each ``run_figure_*`` function builds the precise scenario of the
corresponding figure -- same group size, same message arrival orders, same
crash/suspicion timing -- on the deterministic simulator, executes it and
returns the :class:`~repro.sharding.cluster.ShardedRun` whose trace
queries the tests and benchmarks assert against the figure's outcome.  A
figure is an ordinary :func:`~repro.harness.scenario.ScenarioConfig`
with a scripted failure detector and no workload (``_scripted``); the
function scripts only the figure's submissions, faults and suspicions:

* **Figure 1(a)** -- sequencer-based Atomic Broadcast, good run: the
  replicated stack delivers ``pop`` then ``push(x)`` everywhere; the
  client's adopted ``pop -> y`` is consistent.
* **Figure 1(b)** -- sequencer-based Atomic Broadcast, inconsistent run:
  the sequencer delivers ``pop -> y``, replies, and crashes before its
  ordering message leaves; the new sequencer orders ``push(x)`` first, so
  the surviving replicas' ``pop`` returns ``x`` -- the client has adopted
  a reply that contradicts the service's final state (external
  inconsistency).
* **Figure 2** -- OAR, failure-free: two sequencer batches
  ``{m1;m2}`` and ``{m3;m4;m5}``, everything Opt-delivered, no phase 2.
* **Figure 3** -- OAR, sequencer crash without Opt-undelivery: the crash
  leaves only p2 with the ordering of ``{m3;m4}``; since the majority
  {p1, p2} Opt-delivered m3 before m4, Cnsv-order keeps that order and p3
  simply A-delivers ``{m3;m4}``.
* **Figure 4** -- OAR, sequencer crash *with* Opt-undelivery: four
  servers, only p2 received the ordering of ``{m3;m4}``; p3/p4 (wrongly)
  suspect p2 as well and the consensus decision excludes p2's optimistic
  sequence; Cnsv-order returns ``Bad = {m3;m4}``, ``New = {m4;m3}`` at
  p2, which rolls back and re-delivers in the agreed order.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from repro.broadcast.sequencer import OrderMsg
from repro.core.messages import SeqOrder
from repro.core.server import OARConfig
from repro.faults.injection import FaultSchedule
from repro.harness.scenario import ScenarioConfig, build_scenario
from repro.sharding.cluster import ShardedRun
from repro.sim.latency import ConstantLatency, PerLinkLatency


def _scripted(**deployment: Any) -> ShardedRun:
    """Build a figure's deployment: suspicions are scripted and the
    workload drivers submit nothing, so the figure drives every step.
    The config's defaults -- OAR replicating a counter -- are the
    service of Figures 2-4."""
    return build_scenario(
        ScenarioConfig(fd_kind="scripted", requests_per_client=0, **deployment)
    )


# ----------------------------------------------------------------------
# OAR scenarios (Figures 2, 3, 4)
# ----------------------------------------------------------------------

def run_figure_2(seed: int = 0) -> ShardedRun:
    """OAR with no failure nor suspicion (Figure 2).

    Five requests in two sequencer batches ({m1;m2} then {m3;m4;m5});
    every server Opt-delivers all five in the same order; phase 2 never
    runs.
    """
    run = _scripted(
        n_servers=3, n_clients=1, seed=seed, oar=OARConfig(batch_interval=2.0)
    )
    client = run.clients[0]
    # First batch arrives before the t=2 ordering tick, second before t=4.
    run.sim.schedule_at(0.2, lambda: client.submit(("incr",)))  # m1
    run.sim.schedule_at(0.3, lambda: client.submit(("incr",)))  # m2
    run.sim.schedule_at(2.2, lambda: client.submit(("incr",)))  # m3
    run.sim.schedule_at(2.3, lambda: client.submit(("incr",)))  # m4
    run.sim.schedule_at(2.4, lambda: client.submit(("incr",)))  # m5
    run.sim.run(until=30.0, max_events=100_000)
    return run


def run_figure_3(seed: int = 0) -> ShardedRun:
    """OAR with the crash of the sequencer, but no Opt-undelivery (Figure 3).

    Three servers.  p1 orders {m1;m2} (delivered everywhere), then orders
    {m3;m4} but crashes mid-multicast so only p2 receives the ordering.
    The majority {p1, p2} Opt-delivered m3 before m4, so Cnsv-order
    returns Bad = ε everywhere; p3 A-delivers {m3;m4}.
    """

    def is_second_batch(payload: Any) -> bool:
        return isinstance(payload, SeqOrder) and len(payload.rids) == 2 and (
            payload.rids[0].endswith("-2")
        )

    run = _scripted(
        n_servers=3,
        n_clients=1,
        seed=seed,
        oar=OARConfig(batch_interval=2.0, consensus_collect="majority"),
        fault_schedule=FaultSchedule().crash_during_multicast("p1", is_second_batch, {"p2"}),
    )
    client = run.clients[0]
    run.sim.schedule_at(0.2, lambda: client.submit(("incr",)))  # m1
    run.sim.schedule_at(0.3, lambda: client.submit(("incr",)))  # m2
    run.sim.schedule_at(2.2, lambda: client.submit(("incr",)))  # m3
    run.sim.schedule_at(2.3, lambda: client.submit(("incr",)))  # m4

    def suspect_p1() -> None:
        for pid in ("p2", "p3"):
            run.detectors[pid].force_suspect("p1")

    run.sim.schedule_at(8.0, suspect_p1)
    run.sim.run(until=60.0, max_events=200_000)
    return run


def run_figure_4(seed: int = 0, config: Optional[OARConfig] = None) -> ShardedRun:
    """OAR with the crash of the sequencer and Opt-undelivery (Figure 4).

    Four servers.  Only p2 receives the ordering of {m3;m4}; the network
    partitions {p1, p2} away from {p3, p4}, which also wrongly suspect
    p2.  The Cnsv-order consensus (footnote-5 "unsuspected" estimate
    collection) decides from p3/p4's proposals only; their merged
    not-yet-delivered order is {m4;m3}, so p2 must Opt-undeliver m4 and
    m3 and re-deliver in the agreed order {m4;m3}.

    ``config`` overrides the protocol knobs while keeping the figure's
    required batching and footnote-5 consensus collection (used to
    replay the scenario under the execution service model, where the
    doomed suffix is undone while it may still be in a lane).
    """
    # m3 (from c1) reaches p3 slowly; m4 (from c2) reaches p3 first, so
    # p3 proposes O_notdelivered = {m4;m3} while p4 proposes {m3;m4}.
    latency = PerLinkLatency(
        ConstantLatency(1.0), {("c1", "p3"): ConstantLatency(3.0)}
    )

    def is_second_batch(payload: Any) -> bool:
        return isinstance(payload, SeqOrder) and len(payload.rids) == 2 and (
            "c1-1" in payload.rids
        )

    run = _scripted(
        n_servers=4,
        n_clients=2,
        seed=seed,
        latency=latency,
        oar=replace(
            config or OARConfig(),
            batch_interval=2.0,
            consensus_collect="unsuspected",
        ),
        fault_schedule=FaultSchedule().crash_during_multicast("p1", is_second_batch, {"p2"}),
    )
    c1, c2 = run.clients
    run.sim.schedule_at(0.20, lambda: c1.submit(("incr",)))  # m1
    run.sim.schedule_at(0.30, lambda: c2.submit(("incr",)))  # m2
    run.sim.schedule_at(2.20, lambda: c1.submit(("incr",)))  # m3
    run.sim.schedule_at(2.25, lambda: c2.submit(("incr",)))  # m4

    def isolate_minority() -> None:
        run.network.fault_plane.partition([
            ["p1", "p2"],
            ["p3", "p4", "c1", "c2"],
        ])
        # p3 and p4 suspect the whole minority; p2 suspects only p1.
        for pid in ("p3", "p4"):
            run.detectors[pid].force_suspect("p1")
            run.detectors[pid].force_suspect("p2")
        run.detectors["p2"].force_suspect("p1")

    run.sim.schedule_at(8.0, isolate_minority)
    run.sim.schedule_at(40.0, run.network.fault_plane.heal_partition)
    run.sim.run(until=120.0, max_events=400_000)
    return run


# ----------------------------------------------------------------------
# Sequencer-baseline scenarios (Figure 1)
# ----------------------------------------------------------------------

def _stack_y(**deployment: Any) -> ShardedRun:
    """Figure 1's service: a replicated stack holding [y], two clients."""
    run = _scripted(machine="stack", n_servers=3, n_clients=2, **deployment)
    for server in run.servers:
        server.machine.apply(("push", "y"))
    return run


def run_figure_1a(seed: int = 0) -> ShardedRun:
    """Sequencer-based Atomic Broadcast, good run (Figure 1(a)).

    Initial stack [y].  c2's pop and c1's push(x) are sequenced
    (pop; push): every replica's pop returns y, the stack ends as [x] --
    all replies consistent.
    """
    run = _stack_y(protocol="sequencer", seed=seed)
    c1, c2 = run.clients
    run.sim.schedule_at(0.10, lambda: c2.submit(("pop",)))      # arrives first
    run.sim.schedule_at(0.30, lambda: c1.submit(("push", "x")))
    run.sim.run(until=30.0, max_events=100_000)
    return run


def run_figure_1b(seed: int = 0) -> ShardedRun:
    """Sequencer-based Atomic Broadcast, inconsistent run (Figure 1(b)).

    The sequencer p1 delivers pop (reply y to c2), but crashes before its
    ordering message reaches p2/p3.  The new sequencer p2 orders what it
    sees -- push(x) first (c2's pop reaches p2 late) -- so p2/p3 deliver
    (push; pop) and their pop returns x.  The client c2 has already
    adopted y: an external inconsistency, and the replicas' stacks
    diverge from p1's.
    """
    latency = PerLinkLatency(
        ConstantLatency(1.0), {("c2", "p2"): ConstantLatency(2.5)}
    )
    pop_rid = "c2-0"

    def is_pop_order(payload: Any) -> bool:
        return isinstance(payload, OrderMsg) and payload.rid == pop_rid

    lost_order = FaultSchedule().crash_during_multicast("p1", is_pop_order, ())
    run = _stack_y(protocol="sequencer", seed=seed, latency=latency, fault_schedule=lost_order)
    c1, c2 = run.clients
    run.sim.schedule_at(0.10, lambda: c2.submit(("pop",)))
    run.sim.schedule_at(0.30, lambda: c1.submit(("push", "x")))

    def suspect_p1() -> None:
        for pid in ("p2", "p3"):
            run.detectors[pid].force_suspect("p1")

    run.sim.schedule_at(5.0, suspect_p1)
    run.sim.run(until=40.0, max_events=100_000)
    return run


def run_figure_1b_with_oar(seed: int = 0) -> ShardedRun:
    """The Figure 1(b) scenario executed by OAR instead of the baseline.

    Same service (stack [y]), same request interleaving, same sequencer
    crash before any ordering escapes, same suspicion timing.  With OAR
    the client cannot adopt the doomed optimistic reply (its weight stays
    below majority); it adopts the conservative reply that matches the
    surviving replicas -- external consistency (Proposition 7).
    """
    latency = PerLinkLatency(
        ConstantLatency(1.0), {("c2", "p2"): ConstantLatency(2.5)}
    )
    pop_rid = "c2-0"

    def is_pop_order(payload: Any) -> bool:
        return isinstance(payload, SeqOrder) and pop_rid in payload.rids

    lost_order = FaultSchedule().crash_during_multicast("p1", is_pop_order, ())
    run = _stack_y(seed=seed, latency=latency, fault_schedule=lost_order)
    c1, c2 = run.clients
    run.sim.schedule_at(0.10, lambda: c2.submit(("pop",)))
    run.sim.schedule_at(0.30, lambda: c1.submit(("push", "x")))

    def suspect_p1() -> None:
        for pid in ("p2", "p3"):
            run.detectors[pid].force_suspect("p1")

    run.sim.schedule_at(5.0, suspect_p1)
    run.sim.run(until=60.0, max_events=200_000)
    return run
