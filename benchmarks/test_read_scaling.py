"""Experiment B12: read goodput vs. replica count (replica-local reads).

The paper's protocol orders *every* request through the sequencer, so a
90/10 read/write mix pays the single ordering pipeline for reads that
never change state.  The replica-local read path (``OARConfig.read_mode``)
answers reads at the replicas instead: with a per-replica read service
time (``read_cost``), optimistic reads spread round-robin over n
replicas give an aggregate read capacity of ``n/read_cost`` -- read
goodput scales with *replica count* -- while the sequencer-path baseline
stays pinned at the ordering pipeline's rate no matter how many replicas
exist.  Conservative mode is the middle ground: safe against optimistic
staleness, but every replica serves every read, so capacity does not
scale.

Assertions (shape, not absolute numbers):

* optimistic read goodput grows monotonically over 3 -> 5 -> 7 replicas
  and clearly beats the sequencer path;
* sequencer-path read goodput is flat in replica count (the pipeline is
  the bottleneck);
* write goodput with the read path enabled stays within 5% of (in
  practice: above) the sequencer-read baseline -- offloading reads must
  not cost the ordered path anything;
* the read-consistency checker passes: zero adopted-mode violations,
  optimistic staleness merely counted.
"""

import pytest

from repro.analysis import checkers
from repro.core.server import OARConfig
from repro.harness import Table, write_result
from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.statemachine import KVStoreMachine

pytestmark = pytest.mark.bench

REPLICA_COUNTS = [3, 5, 7]
ORDER_COST = 0.5  #: sequencer service time => 2 ordered req/unit
READ_COST = 0.5  #: replica read service time => 2 reads/unit per replica
CLIENTS = 4
REQUESTS = 60  #: per client; 240 total
RATE = 4.0  #: per client; 16 req/unit offered >> any single pipeline
READ_RATIO = 0.9


def run_mix(n_servers: int, read_mode: str, seed: int = 0):
    run = run_scenario(
        ScenarioConfig(
            machine="kv",
            n_servers=n_servers,
            n_clients=CLIENTS,
            requests_per_client=REQUESTS,
            read_mode=read_mode,
            read_ratio=READ_RATIO,
            n_keys=32,
            zipf_s=1.2,
            driver="open",
            open_rate=RATE,
            oar=OARConfig(order_cost=ORDER_COST, read_cost=READ_COST),
            grace=200.0,
            horizon=200_000.0,
            seed=seed,
        )
    )
    assert run.all_done()
    run.check_all()
    return run


def goodputs(run):
    """(read goodput, write goodput), classified by *operation*.

    In sequencer mode reads are ordered like writes and surface as plain
    ``adopt`` events, so adoptions are split by the submitted op (get vs
    set), not by which path answered them -- that is what makes the
    baseline comparable.
    """
    op_of = {e["rid"]: e["op"] for e in run.trace.events(kind="submit")}
    op_of.update(
        {e["rid"]: e["op"] for e in run.trace.events(kind="read_submit")}
    )
    adopts = {"get": [], "set": []}
    for e in run.trace.events_of_kinds(("adopt", "read_adopt")):
        op = op_of.get(e["rid"])
        if op is not None:
            adopts[op[0]].append(e.time)
    start = min(
        e.time for e in run.trace.events_of_kinds(("submit", "read_submit"))
    )

    def rate(times):
        span = (max(times) - start) if times else 0.0
        return len(times) / span if span > 0 else 0.0

    return rate(adopts["get"]), rate(adopts["set"])


def read_stats(run):
    return checkers.check_read_consistency(
        run.trace, run.servers, KVStoreMachine, shard=0
    )


class TestB12ReadScaling:
    def test_read_goodput_scales_with_replicas(self):
        table = Table(
            "B12  read goodput vs replicas -- 90/10 Zipf mix, "
            f"order_cost={ORDER_COST}, read_cost={READ_COST}",
            [
                "replicas",
                "read mode",
                "read goodput",
                "write goodput",
                "reads",
                "stale opt reads",
            ],
        )
        measured = {}
        for mode in ("sequencer", "optimistic", "conservative"):
            for n in REPLICA_COUNTS:
                if mode == "conservative" and n != 3:
                    continue  # one row: its capacity provably cannot scale
                run = run_mix(n, mode)
                reads, writes = goodputs(run)
                stats = read_stats(run)
                measured[(mode, n)] = (reads, writes)
                if mode == "sequencer":
                    row_reads = "(ordered)"
                    stale = "-"
                else:
                    row_reads = stats["reads"]
                    stale = stats["stale_optimistic"]
                table.add_row(n, mode, reads, writes, row_reads, stale)

        write_result("B12_read_scaling", table.render())

        opt = {n: measured[("optimistic", n)][0] for n in REPLICA_COUNTS}
        seq = {n: measured[("sequencer", n)][0] for n in REPLICA_COUNTS}

        # Read goodput scales with replica count on the local path...
        assert opt[3] < opt[5] < opt[7]
        assert opt[7] > 1.5 * opt[3]
        # ...and not on the sequencer path (flat within 25%).
        flat = max(seq.values()) <= 1.25 * min(seq.values())
        assert flat, f"sequencer-path reads should not scale: {seq}"
        # The local path beats the ordered path outright at every size.
        assert all(opt[n] > 2.0 * seq[n] for n in REPLICA_COUNTS)

    def test_write_goodput_unharmed_by_the_read_path(self):
        # Writes with replica-local reads enabled vs. the PR 3 baseline
        # (every read ordered): offloading reads must keep write goodput
        # within 5% -- in practice it improves, since the sequencer no
        # longer queues reads ahead of writes.
        _, writes_local = goodputs(run_mix(3, "optimistic", seed=1))
        _, writes_baseline = goodputs(run_mix(3, "sequencer", seed=1))
        assert writes_local >= 0.95 * writes_baseline

    def test_conservative_mode_is_safe_but_does_not_scale(self):
        runs = {n: run_mix(n, "conservative", seed=2) for n in (3, 7)}
        for run in runs.values():
            stats = read_stats(run)
            assert stats["conservative"] == stats["reads"] > 0
        r3, _ = goodputs(runs[3])
        r7, _ = goodputs(runs[7])
        # Every replica serves every read: no meaningful scaling.
        assert r7 <= 1.25 * r3
