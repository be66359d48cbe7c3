"""Experiment F1a/F1b: Figure 1 -- sequencer-based Atomic Broadcast runs.

Figure 1(a): the good run -- the stack service stays consistent.
Figure 1(b): the inconsistent run -- the crashed sequencer's reply
("pop -> y") survives at the client while the group settles on the
opposite order; the same scenario under OAR yields zero inconsistencies.
"""

from repro.analysis import checkers
from repro.harness.figures import (
    run_figure_1a,
    run_figure_1b,
    run_figure_1b_with_oar,
)
from repro.harness.tables import Table, write_result

import pytest

pytestmark = pytest.mark.bench



def test_fig1a_good_run(benchmark):
    run = benchmark.pedantic(run_figure_1a, rounds=3, iterations=1)
    assert all(s.delivered_order == ("c2-0", "c1-0") for s in run.servers)
    assert run.adopted()["c2-0"].value.value == "y"
    assert (
        checkers.count_baseline_inconsistencies(run.trace, run.correct_servers())
        == 0
    )


def test_fig1b_inconsistent_run(benchmark):
    run = benchmark.pedantic(run_figure_1b, rounds=3, iterations=1)
    # The client's adopted pop -> y contradicts the surviving replicas'
    # (push; pop) order whose pop returned x.
    assert run.adopted()["c2-0"].value.value == "y"
    for server in run.correct_servers():
        assert server.delivered_order == ("c1-0", "c2-0")
    assert (
        checkers.count_baseline_inconsistencies(run.trace, run.correct_servers())
        == 1
    )


def test_fig1b_scenario_under_oar(benchmark):
    run = benchmark.pedantic(run_figure_1b_with_oar, rounds=3, iterations=1)
    # OAR: the doomed optimistic reply never reaches majority weight; the
    # client adopts the conservative reply that matches the group.
    assert run.adopted()["c2-0"].value.value == "x"
    checkers.check_external_consistency(run.trace)
    assert (
        checkers.count_baseline_inconsistencies(run.trace, run.correct_servers())
        == 0
    )


def test_fig1_report(benchmark):
    baseline_good = benchmark.pedantic(run_figure_1a, rounds=1, iterations=1)
    baseline_bad = run_figure_1b()
    oar = run_figure_1b_with_oar()

    table = Table(
        "F1 -- Figure 1: sequencer ABcast vs OAR on the stack service",
        ["run", "client adopted pop", "group's pop result", "inconsistent"],
    )

    def group_pop(run):
        def order_of(server):
            if hasattr(server, "delivered_order"):
                return server.delivered_order
            return tuple(server.current_order.items)

        orders = {order_of(s) for s in run.correct_servers()}
        order = next(iter(orders))
        return "y" if order[0] == "c2-0" else "x"

    def adopted_pop(run):
        return run.adopted()["c2-0"].value.value

    for name, run in [
        ("fig1a sequencer (good)", baseline_good),
        ("fig1b sequencer (crash)", baseline_bad),
        ("fig1b OAR (same crash)", oar),
    ]:
        inconsistent = checkers.count_baseline_inconsistencies(
            run.trace, run.correct_servers()
        )
        table.add_row(name, adopted_pop(run), group_pop(run), inconsistent)

    write_result("F1_figure1_sequencer_anomaly", table.render())
