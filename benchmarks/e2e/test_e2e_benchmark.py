"""Tests of the benchmark's own machinery, at tiny sizes.

The committed workload sizes are for measuring; here the same code runs
on a few dozen operations so that tier-1 stays fast.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re

import pytest

from repro.faults.injection import FaultSchedule
from repro.runtime import scenario as runtime_scenario
from repro.runtime.scenario import run_runtime_scenario

from benchmarks.e2e import compare, layers, run
from benchmarks.e2e.driver import DriveStart, DueTimeDriver, injected
from benchmarks.e2e.metrics import (
    END_TO_END,
    EXACT,
    PER_LAYER,
    load_benchmark_json,
    percentile,
    spread,
)
from benchmarks.e2e.round import Round
from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.workloads import BY_NAME, WORKLOADS

pytestmark = pytest.mark.unit


# ----------------------------------------------------------------------
# Span recorder
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_children() -> None:
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def leaf(cost: float) -> None:
        clock.now += cost

    leaf = recorder.wrap("low.leaf", leaf, rid_of=lambda args: f"r{args[0]}")

    def middle() -> None:
        clock.now += 1.0
        leaf(2.0)
        leaf(3.0)

    middle = recorder.wrap("mid.handle", middle)

    def top() -> None:
        clock.now += 0.5
        middle()
        clock.now += 0.25
        leaf(4.0)

    top = recorder.wrap("top.run", top)
    top()

    assert recorder.totals["low.leaf"] == [3, 9.0, 9.0]
    assert recorder.totals["mid.handle"] == [1, 6.0, 1.0]
    assert recorder.totals["top.run"] == [1, 10.75, 0.75]
    # Self times never overlap, so they add up to the root's duration.
    assert recorder.self_s() == pytest.approx(10.75)
    assert recorder.layer_self_s("low") == 9.0 and recorder.layer_calls("low") == 3

    by_id = {span[0]: span for span in recorder.spans}
    names_of_parents = {
        span[2]: (by_id[span[1]][2] if span[1] >= 0 else None) for span in recorder.spans
    }
    assert names_of_parents == {"low.leaf": "top.run", "mid.handle": "top.run", "top.run": None}
    first_leaf = min((s for s in recorder.spans if s[2] == "low.leaf"), key=lambda s: s[3])
    assert by_id[first_leaf[1]][2] == "mid.handle" and first_leaf[5] == "r2.0"


def test_span_closes_when_the_callable_raises() -> None:
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def boom() -> None:
        clock.now += 1.0
        raise ValueError("boom")

    outer = recorder.wrap("a.outer", recorder.wrap("a.boom", boom))
    with pytest.raises(ValueError):
        outer()
    assert recorder.totals["a.boom"] == [1, 1.0, 1.0]
    assert recorder.totals["a.outer"] == [1, 1.0, 0.0]


def test_install_patches_and_uninstall_restores() -> None:
    class Base:
        def inherited(self) -> str:
            return "base"

    class Child(Base):
        def own(self) -> str:
            return "own"

        @staticmethod
        def static(x: int) -> int:
            return x + 1

    recorder = SpanRecorder()
    before = dict(vars(Child))
    recorder.install(Child, "own", "t.own")
    recorder.install(Child, "static", "t.static")
    recorder.install(Child, "inherited", "t.inherited")
    child = Child()
    assert (child.own(), Child.static(1), child.static(2), child.inherited()) == (
        "own", 2, 3, "base",
    )
    Base().inherited()  # the base class stays untraced
    assert [recorder.calls(n) for n in ("t.own", "t.static", "t.inherited")] == [1, 2, 1]
    recorder.uninstall()
    assert dict(vars(Child)) == before


def test_layer_install_leaves_repro_as_it_found_it() -> None:
    from repro.core.sequences import MessageSequence
    from repro.runtime.codec import BinaryCodec

    before = (dict(vars(MessageSequence)), dict(vars(BinaryCodec)))
    recorder = SpanRecorder()
    layers.install(recorder)
    assert MessageSequence(["a"]).append("b").items == ("a", "b")
    assert recorder.calls("core.sequences.append") == 1
    recorder.uninstall()
    assert (dict(vars(MessageSequence)), dict(vars(BinaryCodec))) == before


# ----------------------------------------------------------------------
# Workloads, at tiny sizes
# ----------------------------------------------------------------------


def tiny(name: str, requests: int, **changes):
    workload = BY_NAME[name]

    def scenario(seed: int):
        return workload.scenario(seed).with_changes(requests_per_client=requests, **changes)

    return dataclasses.replace(workload, scenario=scenario)


def tiny_failover():
    crash = (30.0, "s0.p1")
    workload = tiny("sim_failover_checked", 12, fault_schedule=FaultSchedule().crash(*crash))
    return dataclasses.replace(workload, crash=crash)


def test_simulated_metrics_repeat_per_seed_and_differ_across_seeds() -> None:
    def exact(seed: int):
        result = Round(tiny_failover(), seed, None).execute(spawned_at=0.0)
        assert result["problems"] == [] and result["failed"] == 0
        return {name: result["per_layer"][name] for name in EXACT}

    first, again, other = exact(1), exact(1), exact(2)
    assert first == again
    assert first != other
    assert first["sim_blackout_units"] > 0 and first["msgs_per_op"] > 0


def test_traced_round_accounts_for_the_whole_window() -> None:
    recorder = SpanRecorder()
    result = Round(tiny("sim_shard_write", 10), 0, recorder).execute(spawned_at=0.0)
    assert result["problems"] == []
    table = result["per_layer"]
    assert 0.0 <= table["trace.unattributed_share"] < 1.0
    assert table["core.sequences.calls_per_op"] > 0
    assert table["broadcast.reliable.first_receipt_ratio"] == pytest.approx(1 / 3)
    assert table["sim.loop.host_ns_per_event"] > 0
    # ... and the layers are plain again afterwards.
    from repro.sim.loop import Simulator

    assert not hasattr(Simulator.run, "__wrapped__")


def test_due_time_driver_is_injected_and_reports_lateness() -> None:
    workload = tiny("tcp_write_paced", 10, open_rate=20.0)  # 500 ops/s: over quickly
    start = DriveStart()
    config = workload.runtime_config(workload.scenario(0))
    factory = functools.partial(
        DueTimeDriver, start=start, seconds_per_unit=config.time_scale
    )
    original = runtime_scenario.OpenLoopDriver
    with injected(runtime_scenario, OpenLoopDriver=factory):
        done = run_runtime_scenario(config)
    assert runtime_scenario.OpenLoopDriver is original
    assert done.completed
    assert done.drivers and all(isinstance(d, DueTimeDriver) for d in done.drivers)
    for driver in done.drivers:
        assert len(driver.submitted) == 10 == len(driver.latencies_s())
        assert driver.due_s == sorted(driver.due_s)
        lateness = driver.lateness_s()
        assert len(lateness) == 10 and min(lateness) > -0.005
        # Timed from due: never shorter than timed from the actual submit.
        for due, submit, adopt in zip(driver.due_s, driver.submit_s, driver.adopt_s):
            assert adopt - due >= adopt - submit - 0.005


def test_tcp_round_reports_every_end_to_end_metric() -> None:
    result = Round(tiny("tcp_read_heavy", 30), 0, None).execute(spawned_at=0.0)
    assert result["problems"] == [] and result["failed"] == 0
    assert result["attempted"] == 120
    assert set(result["end_to_end"]) == {name for name, _, _ in END_TO_END}
    assert all(value > 0 for value in result["end_to_end"].values())
    assert result["per_layer"]["core.server.reads_served_per_op"] > 0.5


# ----------------------------------------------------------------------
# The contract: names, units, the printed result
# ----------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_matches_the_tables_here() -> None:
    spec = load_benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(0 <= m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_names_and_units_are_well_formed() -> None:
    names = [w.name for w in WORKLOADS] + [n for n, _, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(unit) for _, unit, _ in END_TO_END + PER_LAYER)
    assert all(better in ("higher", "lower") for _, _, better in END_TO_END + PER_LAYER)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)
    assert len(PER_LAYER) <= 128 and set(EXACT) <= {n for n, _, _ in PER_LAYER}


@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_is_printed_with_its_unit(traced: bool, capsys) -> None:
    spec = load_benchmark_json()
    workload = tiny_failover()
    rounds = {
        "plain": [Round(workload, 0, None).execute(spawned_at=0.0)],
        "spanned": [Round(workload, 1, SpanRecorder()).execute(spawned_at=0.0)] if traced else [],
    }
    result = run.report(workload.name, 0, rounds, traced, problems=[])
    printed = capsys.readouterr().out.splitlines()
    assert json.loads(printed[-1]) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    expected = spec["per_layer"] if traced else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        line = next(l for l in printed if l.split()[:1] == [metric["name"]])
        assert line.split()[-1] == metric["unit"]
    if traced:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert result["metrics"]["analysis.check_share"]["value"] > 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def fake_runs(ops_per_s, workload="tcp_write_sat", failed=0):
    base = {"setup_s": 0.2, "cpu_ms_per_op": 0.5, "latency_p50_ms": 3.0,
            "latency_p90_ms": 5.0, "peak_rss_mb": 50.0}
    return [
        {"workload": workload, "seed": seed, "trace": 0, "correct": True, "failed": failed,
         "attempted": 100, "metrics": {**base, "ops_per_s": value}}
        for seed, value in enumerate(ops_per_s)
    ]


def test_compare_applies_each_bound_in_the_metrics_direction() -> None:
    steady = [2000.0, 2010.0, 1990.0, 2005.0, 1995.0]
    bound = next(
        m["bound"] for m in load_benchmark_json()["end_to_end"] if m["name"] == "ops_per_s"
    )
    _, regressions, unresolved = compare.compare(fake_runs(steady), fake_runs(steady))
    assert regressions == [] and unresolved == []

    slower = [value * (1 - bound - 0.05) for value in steady]
    _, regressions, _ = compare.compare(fake_runs(steady), fake_runs(slower))
    assert len(regressions) == 1 and "tcp_write_sat/ops_per_s" in regressions[0]
    _, regressions, _ = compare.compare(fake_runs(slower), fake_runs(steady))
    assert regressions == []  # higher is better: faster is no regression

    noisy = [1000.0, 1500.0, 2000.0, 2500.0, 3000.0]
    _, regressions, unresolved = compare.compare(fake_runs(steady), fake_runs(noisy))
    assert regressions == [] and len(unresolved) == 1

    _, regressions, _ = compare.compare(fake_runs(steady), fake_runs(steady, failed=3))
    assert len(regressions) == len(steady)


def test_compare_wants_simulated_outcomes_equal_per_seed() -> None:
    def traced(value):
        metrics = {name: 1.0 for name in EXACT}
        metrics["msgs_per_op"] = value
        return [{"workload": "sim_shard_write", "seed": 0, "trace": 1, "correct": True,
                 "failed": 0, "attempted": 10, "metrics": metrics}]

    assert compare.compare(traced(14.5), traced(14.5))[1] == []
    assert len(compare.compare(traced(14.5), traced(14.6))[1]) == 1


def test_percentile_and_spread() -> None:
    assert percentile([], 0.5) == 0.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert percentile([5.0, 1.0, 3.0], 0.9) == pytest.approx(4.6)
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
