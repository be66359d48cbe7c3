"""Experiment F4: Figure 4 -- sequencer crash *with* Opt-undelivery.

Four servers; only p2 received the ordering of {m3;m4}; p3/p4 wrongly
suspect p2 (minority partition) so the consensus decision excludes p2's
optimistic sequence; p2 must Opt-undeliver m4, m3 (reverse order) and
A-deliver the agreed {m4;m3}.  The clients only ever adopt the agreed
replies -- the paper's headline safety property under its worst scenario.
"""

from repro.analysis import checkers
from repro.harness.figures import run_figure_4
from repro.harness.tables import Table, write_result

import pytest

pytestmark = pytest.mark.bench


M1, M2, M3, M4 = "c1-0", "c2-0", "c1-1", "c2-1"


def test_fig4_crash_with_undo(benchmark):
    run = benchmark.pedantic(run_figure_4, rounds=3, iterations=1)
    assert run.opt_undelivered("p2") == (M4, M3)  # reverse delivery order
    epoch0 = {
        e.pid: (e["bad"], e["new"])
        for e in run.trace.events(kind="cnsv_order")
        if e["epoch"] == 0
    }
    assert epoch0["p2"] == ((M3, M4), (M4, M3))
    assert epoch0["p3"] == ((), (M4, M3))
    assert epoch0["p4"] == ((), (M4, M3))
    for server in run.correct_servers():
        assert tuple(server.settled_order.items)[:4] == (M1, M2, M4, M3)
    checkers.check_external_consistency(run.trace)
    checkers.check_cnsv_order_properties(run.trace, 4)


def test_fig4_report(benchmark):
    run = benchmark.pedantic(run_figure_4, rounds=1, iterations=1)
    table = Table(
        "F4 -- Figure 4: OAR with sequencer crash and Opt-undelivery (4 servers)",
        ["server", "Opt-delivered (epoch 0)", "Bad", "New", "Opt-undelivered"],
    )
    epoch0 = {
        e.pid: (e["bad"], e["new"])
        for e in run.trace.events(kind="cnsv_order")
        if e["epoch"] == 0
    }
    for pid in ("p1", "p2", "p3", "p4"):
        bad, new = epoch0.get(pid, ((), ()))
        table.add_row(
            pid,
            ";".join(run.opt_delivered(pid)) or "ε",
            ";".join(bad) or "ε",
            ";".join(new) or "ε",
            ";".join(run.opt_undelivered(pid)) or "-",
        )
    adoptions = {
        rid: (a.position, a.conservative) for rid, a in run.adopted().items()
    }
    lines = [
        table.render(),
        "",
        f"agreed epoch-0 order: {';'.join(run.correct_servers()[0].settled_order.items[:4])}",
        f"adoptions (rid -> position, conservative?): {adoptions}",
        "paper outcome: Bad={m3;m4}, New={m4;m3} at p2; Bad=ε, New={m4;m3} at"
        " p3/p4; clients adopt only the agreed replies  -- matched",
    ]
    write_result("F4_figure4_crash_with_undo", "\n".join(lines))
