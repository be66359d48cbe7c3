"""Command-line entry point: ``python -m repro [command]``.

Commands:

* ``figures``  -- replay the paper's Figures 1(a/b), 2, 3, 4 and print
  each outcome with an ASCII space-time diagram.
* ``compare``  -- the failure-free latency / crash-consistency scoreboard
  of all four protocols (a compact B1+B2).
* ``demo``     -- a quick OAR run with full property verification.
* ``all``      -- everything above (default).

The full experiment suite with report files lives in ``benchmarks/``
(run ``pytest benchmarks/ --benchmark-only``); this entry point is the
zero-setup tour.
"""

from __future__ import annotations

import sys

from repro import ScenarioConfig, run_scenario
from repro.analysis import checkers
from repro.analysis.stats import summarize
from repro.analysis.timeline import render_timeline
from repro.faults import FaultSchedule
from repro.harness.figures import (
    run_figure_1a,
    run_figure_1b,
    run_figure_1b_with_oar,
    run_figure_2,
    run_figure_3,
    run_figure_4,
)
from repro.harness.tables import Table


def heading(text: str) -> None:
    """Print a section banner."""
    print(f"\n{'=' * 70}\n{text}\n{'=' * 70}")


def cmd_demo() -> None:
    """A quick OAR run with full property verification."""
    heading("Demo: 3 OAR replicas, 2 clients, 20 requests, seed 42")
    run = run_scenario(
        ScenarioConfig(n_servers=3, n_clients=2, requests_per_client=10, seed=42)
    )
    run.check_all()
    stats = summarize(run.latencies())
    print(f"adoptions: {len(run.adopted())}   latency: {stats.row()}")
    print("all paper guarantees verified (Propositions 1-7, Cnsv-order spec)")


def cmd_figures() -> None:
    """Replay Figures 1(a/b), 2, 3 and 4 with ASCII diagrams."""
    heading("Figure 1(a): sequencer ABcast, good run")
    fig1a = run_figure_1a()
    print(f"client adopted pop -> "
          f"{fig1a.adopted()['c2-0'].value.value!r}; group agrees; "
          f"inconsistencies: "
          f"{checkers.count_baseline_inconsistencies(fig1a.trace, fig1a.correct_servers())}")

    heading("Figure 1(b): sequencer ABcast, inconsistent run")
    fig1b = run_figure_1b()
    bad = checkers.count_baseline_inconsistencies(
        fig1b.trace, fig1b.correct_servers()
    )
    print(f"client adopted pop -> {fig1b.adopted()['c2-0'].value.value!r} "
          f"from the crashed sequencer; survivors' pop returned 'x'")
    print(f"client-visible inconsistencies: {bad}")

    oar1b = run_figure_1b_with_oar()
    print(f"same crash under OAR: client adopts "
          f"{oar1b.adopted()['c2-0'].value.value!r} (consistent); "
          f"inconsistencies: "
          f"{checkers.count_baseline_inconsistencies(oar1b.trace, oar1b.correct_servers())}")

    heading("Figure 2: OAR, no failure nor suspicion")
    fig2 = run_figure_2()
    print(render_timeline(fig2.trace, ["p1", "p2", "p3"], width=64,
                          start=0.0, end=10.0))

    heading("Figure 3: sequencer crash, no Opt-undelivery")
    fig3 = run_figure_3()
    print(render_timeline(fig3.trace, ["p1", "p2", "p3"], width=64,
                          start=0.0, end=25.0))

    heading("Figure 4: sequencer crash WITH Opt-undelivery at p2")
    fig4 = run_figure_4()
    print(render_timeline(fig4.trace, ["p1", "p2", "p3", "p4"], width=64,
                          start=0.0, end=60.0))
    print(f"\np2 rolled back {fig4.opt_undelivered('p2')} and re-delivered "
          f"in the agreed order; clients adopted only consistent replies.")


def cmd_compare() -> None:
    """Latency/consistency scoreboard of the four protocols."""
    heading("Protocol scoreboard (3 replicas, 20 requests, crash at t=10)")
    table = Table(
        "failure-free latency and crash consistency",
        ["protocol", "clean latency", "finished after crash", "inconsistent"],
    )
    for protocol, label in [
        ("sequencer", "sequencer ABcast"),
        ("oar", "OAR (this paper)"),
        ("passive", "primary-backup"),
        ("ct", "consensus ABcast"),
    ]:
        clean = run_scenario(
            ScenarioConfig(protocol=protocol, requests_per_client=10, seed=11)
        )
        crashed = run_scenario(
            ScenarioConfig(
                protocol=protocol,
                n_clients=2,
                requests_per_client=8,
                fd_interval=1.5,
                fd_timeout=5.0,
                fault_schedule=FaultSchedule().crash(10.0, "p1"),
                grace=250.0,
                seed=11,
            )
        )
        table.add_row(
            label,
            summarize(clean.latencies()).mean,
            "yes" if crashed.all_done() else "NO",
            checkers.count_baseline_inconsistencies(
                crashed.trace, crashed.correct_servers()
            ),
        )
    print(table.render())


COMMANDS = {
    "demo": cmd_demo,
    "figures": cmd_figures,
    "compare": cmd_compare,
}


def main(argv: list) -> int:
    """Entry point: dispatch on the (optional) command argument."""
    command = argv[1] if len(argv) > 1 else "all"
    if command == "all":
        for name in ("demo", "figures", "compare"):
            COMMANDS[name]()
        return 0
    handler = COMMANDS.get(command)
    if handler is None:
        print(__doc__)
        return 0 if command in ("-h", "--help", "help") else 1
    handler()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
