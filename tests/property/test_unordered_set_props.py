"""Property: the incremental unordered set is Fig. 6 line 9, on every schedule.

``OARServer`` keeps ``(R_delivered ⊖ A_delivered) ⊖ O_delivered`` up to
date instead of recomputing it.  The step that is not an append is the
epoch settle with a non-empty ``Bad``: undone rids that ``New`` does not
deliver again are unordered once more and belong at their R-delivery
position, ahead of everything R-delivered since.

Each schedule below makes that happen on purpose.  One replica's
outgoing links are muted while it keeps receiving -- if it is the
sequencer it goes on ordering and Opt-delivering for itself -- and one
client's requests reach only that replica; then everyone suspects it.
The other two settle the epoch without its proposal, so what it
delivered alone comes back as ``Bad``, partly absent from ``New``.
Periodic ``gc_after_requests`` phase 2s, batching and a costed
sequencer are mixed in by the seed.

Every replica runs ``paranoid``: the set is compared with the
definition, element for element, after every message.  Seeds are fixed,
so tier-1 draws the same schedules every time.
"""

import random
from functools import lru_cache
from typing import Dict, Tuple

import pytest

from repro.core.sequences import MessageSequence
from repro.core.server import OARConfig
from repro.faults import FaultSchedule
from repro.harness import ScenarioConfig, run_scenario
from repro.sim.latency import UniformLatency

pytestmark = pytest.mark.property

SEEDS = range(30)
SERVERS = ("p1", "p2", "p3")
CLIENTS = ("c1", "c2", "c3")
REQUESTS = 30


def check_r_order(run) -> None:
    """Whatever a replica orders or proposes as not-delivered, it lists
    in its own R-delivery order (line 9 is a subsequence of R_delivered)."""
    r_index: Dict[str, Dict[str, int]] = {pid: {} for pid in SERVERS}
    for event in run.trace.events_of_kinds(("r_deliver", "seq_order", "cnsv_propose")):
        index = r_index[event.pid]
        if event.kind == "r_deliver":
            index[event["rid"]] = len(index)
            continue
        rids = event["rids"] if event.kind == "seq_order" else event["o_notdelivered"]
        positions = [index[rid] for rid in rids]
        assert positions == sorted(positions), (event.pid, event.kind, rids)


@lru_cache(maxsize=None)
def outcome(seed: int) -> Tuple[int, int]:
    """Run one schedule; returns (rids undone, rids undone and not in New)."""
    rng = random.Random(seed)
    rate = rng.choice([0.5, 1.0, 2.0])
    mute_at = rng.uniform(0.1, 0.6) * REQUESTS / rate
    heal_at = mute_at + rng.uniform(8.0, 30.0)
    muted = rng.choice(SERVERS)
    lonely = rng.choice(CLIENTS)
    others = [pid for pid in SERVERS if pid != muted]
    schedule = (
        FaultSchedule()
        .oneway(mute_at, [(src, dst) for src in (muted, lonely) for dst in others])
        .suspect(mute_at + rng.uniform(0.5, 6.0), muted)
        .heal_oneway(heal_at)
        .unsuspect(heal_at + 1.0, muted)
    )
    run = run_scenario(
        ScenarioConfig(
            n_servers=len(SERVERS),
            n_clients=len(CLIENTS),
            requests_per_client=REQUESTS,
            machine="kv",
            driver="open",
            open_rate=rate,
            fd_kind="scripted",
            latency=UniformLatency(0.2, rng.choice([2.0, 5.0])),
            oar=OARConfig(
                paranoid=True,
                gc_after_requests=rng.choice([None, 5, 16]),
                batch_interval=rng.choice([0.0, 1.0]),
                order_cost=rng.choice([0.0, 0.3]),
            ),
            fault_schedule=schedule,
            retry_interval=25.0,
            grace=300.0,
            seed=seed,
        )
    )
    assert run.all_done()
    run.check_all()
    check_r_order(run)
    for server in run.servers:
        line9 = (
            MessageSequence(server.r_delivered)
            .subtract(server.a_delivered)
            .subtract(server.o_delivered)
        )
        assert tuple(server._unordered) == line9.items
    undone = reentered = 0
    for event in run.trace.events(kind="cnsv_order"):
        undone += len(event["bad"])
        reentered += len(set(event["bad"]) - set(event["new"]))
    return undone, reentered


@pytest.mark.parametrize("seed", SEEDS)
def test_unordered_set_is_line9_through_undo_and_redelivery(seed):
    outcome(seed)


def test_schedules_do_undo_and_reenter():
    """The schedules reach what they are for (the runs are shared with
    the per-seed test above, not repeated)."""
    totals = [outcome(seed) for seed in SEEDS]
    assert sum(1 for undone, _ in totals if undone) >= 10
    assert sum(1 for _, reentered in totals if reentered) >= 5
    assert sum(reentered for _, reentered in totals) >= 50
