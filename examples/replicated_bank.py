#!/usr/bin/env python
"""A transactional bank replicated with OAR, surviving a sequencer crash.

This is the deployment scenario of the paper's conclusion (Section 6):
operations are transactions whose effects can be rolled back, so
optimistic processing starts immediately on Opt-delivery and an
Opt-undeliver is a rollback.  The run crashes the sequencer mid-workload
and shows that:

* every transfer/withdrawal settles in the same order everywhere,
* total money is conserved across crash, recovery, and (potential) undo,
* clients only ever see balances consistent with the final order.

Run:  python examples/replicated_bank.py
"""

from repro import ScenarioConfig, run_scenario
from repro.analysis.stats import adoption_breakdown, summarize
from repro.faults import FaultSchedule


def main() -> None:
    config = ScenarioConfig(
        protocol="oar",
        n_servers=5,
        n_clients=3,
        requests_per_client=12,
        machine="bank",
        fd_interval=2.0,
        fd_timeout=6.0,
        fault_schedule=FaultSchedule().crash(12.0, "p1"),
        grace=200.0,
        seed=7,
    )
    print("Running: 5 OAR replicas, 3 clients, 36 bank operations,")
    print("sequencer p1 crashes at t=12...\n")
    run = run_scenario(config)

    assert run.all_done(), "the scenario did not quiesce"
    run.check_all()

    breakdown = adoption_breakdown(run.trace)
    stats = summarize(run.latencies())
    print(f"adoptions       : {len(run.adopted())} "
          f"(optimistic={breakdown['optimistic']}, "
          f"conservative={breakdown['conservative']})")
    print(f"latency         : {stats.row()}")
    print(f"phase-2 epochs  : "
          f"{sorted({e['epoch'] for e in run.trace.events(kind='phase2_start')})}")
    print(f"opt-undeliveries: {len(run.trace.events(kind='opt_undeliver'))}")

    print("\nsurviving replica ledgers (identical by Proposition 5):")
    for server in run.correct_servers():
        balances = dict(server.machine.fingerprint())
        total = server.machine.total_balance()
        print(f"  {server.pid}: {balances}  (total={total})")

    totals = {s.machine.total_balance() for s in run.correct_servers()}
    assert len(totals) == 1, "replicas disagree on total balance"
    print("\nmoney conserved and replicas identical -- the transactional")
    print("save-point discipline of Section 6 in action.")


if __name__ == "__main__":
    main()
