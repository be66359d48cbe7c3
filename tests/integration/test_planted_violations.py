"""Planted violations for the laws the checker bundle states once.

Every counter <-> trace ledger row, the bank's money conservation and
the at-most-once shedding rule each get a run (or a trace) that breaks
exactly that law, and the checker must name it.  (Money created inside
a migration's install-to-forget window is planted in test_rebalance.py,
next to the stranded run it needs.)
"""

import re
from types import SimpleNamespace

import pytest

from repro.analysis import checkers
from repro.core.server import OARConfig
from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.sharding import ShardedScenarioConfig, run_sharded_scenario
from repro.sim.faultplane import LinkFaultPolicy
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.process import Process
from repro.sim.trace import TraceLog


pytestmark = pytest.mark.integration


class _Sink(Process):
    def on_message(self, src, payload):
        pass


def _faulty_network():
    """A network run that moves every fault counter off zero."""
    sim = Simulator(seed=3)
    network = SimNetwork(sim, latency=ConstantLatency(1.0))
    a, b = _Sink("p1"), _Sink("p2")
    for process in (a, b):
        network.add_process(process)
    network.start_all()
    plane = network.ensure_fault_plane()
    plane.add_policy(
        LinkFaultPolicy(drop=0.2, duplicate=0.2, corrupt=0.2, jitter=0.2), src="p1"
    )
    plane.add_rewrite(lambda src, dst, payload: "forged" if payload == 0 else None)
    plane.block("p2", "p1")
    for i in range(40):
        a.env.send("p2", i)
        b.env.send("p1", i)
    sim.run()
    plane.heal()
    sim.run()
    plane.partition([["p1"], ["p2"]])
    b.env.send("p1", "held")
    sim.run()
    plane.heal_partition()
    sim.run()
    return network, {"plane": [plane], "network": [network]}


def _admission_run():
    """A run that sheds writes and reads, surfaces sheds and throttles."""
    run = run_scenario(
        ScenarioConfig(
            seed=0,
            driver="session",
            requests_per_client=80,
            open_rate=10.0,
            client_rate=7.0,
            machine="kv",
            read_ratio=0.6,
            read_mode="optimistic",
            oar=OARConfig(order_cost=0.5, read_cost=2.0, admission_limit=4, read_queue_limit=2),
            horizon=50_000.0,
            grace=100.0,
        )
    )
    return run, {"server": run.servers, "client": run.clients, "driver": run.drivers}


LEDGER_ROWS = [
    pytest.param(law, holder, counter, id=f"{law.split()[0]}-{counter}")
    for law, rows in checkers._LEDGER.items()
    for holder, counter, _kind, _weight in rows
]


@pytest.mark.parametrize("law, holder, counter", LEDGER_ROWS)
def test_ledger_row_catches_a_silent_increment(law, holder, counter):
    if law == "fault accounting":
        network, holders = _faulty_network()

        def check():
            checkers.check_fault_plane_accounting(network.trace, network)

    else:
        run, holders = _admission_run()

        def check():
            run.check_all()

    check()  # the run balances its books
    exercised = [obj for obj in holders[holder] if getattr(obj, counter) > 0]
    assert exercised, f"the run never moves {holder}.{counter}"
    setattr(exercised[0], counter, getattr(exercised[0], counter) + 1)
    with pytest.raises(checkers.CheckFailure, match=rf"{law}: .*\b{re.escape(counter)}="):
        check()


def test_created_money_is_caught():
    run = run_sharded_scenario(
        ShardedScenarioConfig(
            n_shards=2,
            n_clients=2,
            requests_per_client=10,
            machine="bank",
            workload="cross",
            cross_ratio=0.3,
            seed=8,
        )
    )
    run.check_all()
    # A consistent +7 on every correct replica of one shard: fingerprint
    # comparison alone would never see it.
    account = run.routing_table.placement(run.key_universe)[0][0]
    for server in run.correct_servers(0):
        server.machine._accounts[account] += 7
    with pytest.raises(checkers.CheckFailure, match="money conservation violated"):
        run.check_all()


def _admitting_server(pid, shed):
    config = SimpleNamespace(admission_limit=1, read_queue_limit=None)
    return SimpleNamespace(pid=pid, shed=shed, reads_shed=0, config=config)


def test_double_shed_of_one_write_is_caught():
    log = TraceLog()
    for time in (1.0, 2.0):
        log.record(time, "p1", "shed", rid="c1-1", cls="write", queue=1, limit=1)
    with pytest.raises(checkers.CheckFailure, match="p1 shed write 'c1-1' twice"):
        checkers.check_admission_accounting(log, [_admitting_server("p1", 2)], [])


def test_double_surfacing_of_one_shed_is_caught():
    log = TraceLog()
    log.record(1.0, "p1", "shed", rid="c1-1", cls="write", queue=1, limit=1)
    log.record(1.5, "p1", "shed", rid="c1-2", cls="write", queue=1, limit=1)
    for time in (2.0, 3.0):
        log.record(time, "c1", "shed_adopt", rid="c1-1")
    client = SimpleNamespace(pid="c1", overloaded=2, shed_rids={"c1-1"})
    with pytest.raises(checkers.CheckFailure, match="c1 surfaced shed 'c1-1' twice"):
        checkers.check_admission_accounting(
            log, [_admitting_server("p1", 2)], [client]
        )
