#!/usr/bin/env python
"""The paper's motivating example: Figure 1(b), then the OAR fix.

Replays the exact inconsistent run of the sequencer-based Atomic
Broadcast -- a replicated stack [y], a pop racing a push(x), the
sequencer replying "pop -> y" and dying before its ordering escapes --
and then the *same* scenario under OAR, where the weighted-quorum client
rule makes the stale reply unadoptable.

Run:  python examples/sequencer_anomaly.py
"""

from repro.analysis import checkers
from repro.harness.figures import run_figure_1b, run_figure_1b_with_oar


def describe(run, protocol: str) -> int:
    print(f"--- {protocol} ---")
    pop = run.adopted().get("c2-0")
    print(f"client adopted   : pop -> {pop.value.value!r} (position {pop.position})")
    for server in run.servers:
        if server.crashed:
            print(f"  {server.pid}: CRASHED mid-run")
            continue
        if hasattr(server, "delivered_order"):
            order = server.delivered_order
        else:
            order = tuple(server.current_order.items)
        stack = server.machine.fingerprint()
        print(f"  {server.pid}: delivered {order}  stack={list(stack)}")
    inconsistencies = checkers.count_baseline_inconsistencies(
        run.trace, run.correct_servers()
    )
    print(f"client-visible inconsistencies: {inconsistencies}\n")
    return inconsistencies


def main() -> None:
    print(__doc__)

    print("Scenario: stack starts as [y]; c1 sends push(x), c2 sends pop.")
    print("The sequencer p1 orders (pop; push), delivers pop -> y, replies,")
    print("and crashes before any replica hears the ordering.\n")

    baseline = run_figure_1b()
    bad = describe(baseline, "sequencer-based Atomic Broadcast (Isis-style)")

    oar = run_figure_1b_with_oar()
    good = describe(oar, "Optimistic Active Replication (same crash)")

    print("What happened:")
    print("  * baseline: the client kept the dead sequencer's 'y' while the")
    print("    surviving group settled on (push; pop), whose pop returns 'x'.")
    print("  * OAR: the doomed reply carried weight {p1} = 1 < majority 2, so")
    print("    the client waited; phase 2 agreed on the order and the client")
    print("    adopted the consistent conservative reply.")
    assert bad == 1 and good == 0


if __name__ == "__main__":
    main()
