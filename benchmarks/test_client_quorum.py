"""Experiment B6: the cost of the weighted-quorum client rule.

Classic active replication adopts the *first* reply (Section 2.1); OAR's
client waits for majority weight (Fig. 5).  Failure-free, this costs
exactly one extra message delay (the sequencer's weight-1 reply cannot be
adopted alone); under the Figure 1(b) crash it is precisely what keeps
the client consistent.  This bench quantifies both sides of the trade.
"""

import pytest

from repro.analysis import checkers
from repro.analysis.stats import summarize
from repro.harness import ScenarioConfig, Table, run_scenario, write_result
from repro.harness.figures import run_figure_1b, run_figure_1b_with_oar

pytestmark = pytest.mark.bench



def run_clean(protocol: str, seed: int = 0):
    return run_scenario(
        ScenarioConfig(
            protocol=protocol,
            n_servers=3,
            n_clients=1,
            requests_per_client=30,
            seed=seed,
        )
    )


def test_quorum_client_latency(benchmark):
    run = benchmark.pedantic(run_clean, args=("oar",), rounds=3, iterations=1)
    assert summarize(run.latencies()).mean == pytest.approx(3.0)


def test_first_reply_client_latency(benchmark):
    run = benchmark.pedantic(
        run_clean, args=("sequencer",), rounds=3, iterations=1
    )
    assert summarize(run.latencies()).mean == pytest.approx(2.0)


def test_b6_report(benchmark):
    oar_clean = run_clean("oar")
    seq_clean = run_clean("sequencer")
    seq_crash = run_figure_1b()
    oar_crash = benchmark.pedantic(
        run_figure_1b_with_oar, rounds=1, iterations=1
    )

    oar_stats = summarize(oar_clean.latencies())
    seq_stats = summarize(seq_clean.latencies())
    seq_bad = checkers.count_baseline_inconsistencies(
        seq_crash.trace, seq_crash.correct_servers()
    )
    oar_bad = checkers.count_baseline_inconsistencies(
        oar_crash.trace, oar_crash.correct_servers()
    )

    table = Table(
        "B6 -- First-reply vs weighted-quorum adoption",
        [
            "client rule",
            "failure-free mean latency",
            "fig-1b inconsistencies",
        ],
    )
    table.add_row("first reply (classic)", seq_stats.mean, seq_bad)
    table.add_row("majority weight (OAR)", oar_stats.mean, oar_bad)
    lines = [
        table.render(),
        "",
        f"shape: the quorum rule costs {oar_stats.mean - seq_stats.mean:.1f}",
        "message delay failure-free and eliminates the stale-reply anomaly",
        "entirely -- the trade the paper's title is about.",
    ]
    write_result("B6_client_quorum", "\n".join(lines))
    assert oar_stats.mean > seq_stats.mean
    assert seq_bad > oar_bad == 0
