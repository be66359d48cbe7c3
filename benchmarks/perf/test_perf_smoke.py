"""Smoke tests for the perf harness (catches harness bitrot in tier-1).

Nothing here asserts a speed: every benchmark runs and produces sane
numbers, the determinism digest is asserted exactly, and the gates of
``run_perf.check`` -- a pure function of the payload -- are shown to
fire and to hold on synthetic payloads.
"""

import json
import os
import sys
from typing import Any, Dict

import pytest

from repro.analysis.timeline import stage_latencies

from benchmarks.perf import harness, run_perf

pytestmark = pytest.mark.bench


def test_suite_runs_quick_and_payload_is_complete(tmp_path):
    # wallclock=False: the codec cell is covered by test_wallclock_cells
    # below with a tiny shape.
    payload = harness.run_suite(quick=True, wallclock=False)
    history = payload["history_scaling"]
    assert history["writes"] == harness.HISTORY_WRITES_QUICK
    assert history["ops_per_sec_q1"] > 0 and history["ops_per_sec_q4"] > 0
    checker = payload["checker_scaling"]
    assert checker["requests_per_client"] == harness.CHECKER_REQUESTS_QUICK
    assert 0 < checker["check_all_sec_1x"] < checker["check_all_sec_4x"]
    kernel = payload["kernel_vs_reference"]
    assert kernel["fast_lane_events_per_sec"] > 0
    assert kernel["reference_events_per_sec"] > 0
    calls = payload["calls_per_op"]
    assert calls["adopted"] == 400 and calls["python_calls"] > calls["sim_events"] > 0
    # A count, not a rate: counting again gives the same number.
    assert harness.calls_per_op() == calls
    kept = payload["bytes_per_op"]
    assert kept["adopted"] == 400 and kept["retained_bytes"] > 0
    kept = payload["bytes_per_read_op"]
    assert kept["adopted"] == 400 and kept["retained_bytes"] > 0
    kept = payload["bytes_per_tcp_write"]
    assert kept["adopted"] == 1000 and kept["retained_bytes"] > 0
    # Nothing measured on another machine, nothing for another run to read.
    assert set(payload) == {
        "schema", "golden_digest", "kernel_vs_reference", "history_scaling",
        "checker_scaling", "calls_per_op", "bytes_per_op", "bytes_per_read_op",
        "bytes_per_tcp_write",
    }
    # The gates find every ratio where the suite put it (whatever they
    # read here): all but the codec's, whose section this run left out.
    failures, notes = run_perf.check(payload)
    assert len(failures) + len(notes) == len(run_perf.GATES) + len(run_perf.COUNTS) + 1
    # The counts are exact, so this tree must be under its ceilings on
    # any machine (on an interpreter nobody recorded, they are not judged).
    assert not [failure for failure in failures if " per op " in failure]
    assert [note for note in notes if "skipped" in note] == [
        "codec binary/pickle skipped (suite ran without wallclock)"
    ]
    # The payload is JSON-serializable and round-trips.
    out = tmp_path / "perf.json"
    harness.write_payload(payload, str(out))
    assert json.loads(out.read_text())["schema"] == 2
    # Table rendering covers every cell.
    table = harness.format_table(payload)
    assert "kernel fast lane" in table
    assert "history scaling" in table and "checker scaling" in table
    assert "calls per op" in table and "bytes per op" in table
    assert "bytes per read op" in table and "bytes per TCP write" in table


def test_wallclock_cells():
    """Tiny-shape versions of the real-backend cells: the codec micro
    keeps its margin over pickle and the section renders; the stage cell
    reads every request.  Full-size cells run in ``run_perf.py`` and the
    runtime-smoke CI job."""
    from benchmarks.perf import wallclock

    rates = wallclock.codec_rates(300)
    assert rates["binary"] > rates["pickle"] > 0
    # The stage cell reads all of its requests; its ratios are gated in
    # the runtime-smoke job, at full size.
    run = wallclock.tcp_paced_run(5)
    stages = stage_latencies(run.view.trace)
    assert len(stages.per_rid) == 4 * 5
    assert wallclock.order_wait_ratio(stages) > 0
    assert wallclock.timer_lateness_ratio(run) >= 0
    section = {
        "codec_roundtrips_per_sec": {k: round(v, 1) for k, v in rates.items()},
        "ratios": {
            "codec_binary_vs_pickle": round(rates["binary"] / rates["pickle"], 2),
        },
    }
    assert "binary" in wallclock.format_wallclock(section)


def test_committed_payload_carries_only_what_a_gate_reads():
    """``BENCH_perf.json`` holds no section that ``run_perf.check`` does
    not read: a rate nobody gates is judged in one place, the e2e
    benchmark, parent against change on one machine."""
    with open(os.path.join(run_perf.REPO_ROOT, "BENCH_perf.json")) as handle:
        committed = json.load(handle)
    assert committed["schema"] == 2
    read = (
        {gate.path[0] for gate in run_perf.GATES}
        | {key for key, _ceilings, _regression in run_perf.COUNTS}
        | {"golden_digest"}
    )
    assert set(committed) - {"schema"} == read
    assert set(committed["wallclock"]) == {"codec_roundtrips_per_sec", "ratios"}
    assert set(committed["wallclock"]["ratios"]) == {"codec_binary_vs_pickle"}
    # The gates find every reading where they look.
    failures, notes = run_perf.check(committed)
    assert len(failures) + len(notes) == len(run_perf.GATES) + len(run_perf.COUNTS) + 1


def test_golden_digest_is_stable():
    assert harness.golden_scenario_digest() == harness.GOLDEN_DIGEST


def _payload(
    readings: Dict[str, float],
    digest: str = harness.GOLDEN_DIGEST,
    calls_per_op: float = 409.51,
    python: str = "3.11",
    bytes_per_op: float = 2387.2,
    bytes_per_read_op: float = 616.1,
    bytes_per_tcp_write: float = 2734.5,
) -> Dict[str, Any]:
    """A synthetic payload: ``readings`` by gate name, each put where
    its gate looks for it."""
    payload: Dict[str, Any] = {
        "golden_digest": digest,
        "calls_per_op": {"calls_per_op": calls_per_op, "python": python},
        "bytes_per_op": {"bytes_per_op": bytes_per_op, "python": python},
        "bytes_per_read_op": {"bytes_per_read_op": bytes_per_read_op, "python": python},
        "bytes_per_tcp_write": {"bytes_per_tcp_write": bytes_per_tcp_write, "python": python},
    }
    for gate in run_perf.GATES:
        if gate.name in readings:
            node = payload
            for key in gate.path[:-1]:
                node = node.setdefault(key, {})
            node[gate.path[-1]] = readings[gate.name]
    return payload


_LOW = {gate.name: gate.recorded[0] for gate in run_perf.GATES}
_HIGH = {gate.name: gate.recorded[1] for gate in run_perf.GATES}


@pytest.mark.parametrize("readings", [_LOW, _HIGH], ids=["low", "high"])
def test_gates_hold_at_both_ends_of_their_recorded_ranges(readings):
    failures, notes = run_perf.check(_payload(readings))
    assert failures == []
    assert len(notes) == len(run_perf.GATES) + len(run_perf.COUNTS) + 1
    assert notes[-1] == "digest matches"


@pytest.mark.parametrize("gate", run_perf.GATES, ids=lambda gate: gate.path[0])
def test_each_gate_fires_alone_and_names_itself_and_its_bound(gate):
    past = gate.bound / 1.3 if gate.is_floor else gate.bound * 1.3
    for reading in (past, gate.planted):
        failures, notes = run_perf.check(_payload({**_LOW, gate.name: reading}))
        assert len(failures) == 1 and len(notes) == len(run_perf.GATES) + len(run_perf.COUNTS)
        assert failures[0].startswith(f"{gate.name} {reading:.2f} is past the {gate.bound:.2f} ")
        assert gate.regression in failures[0]


def test_digest_gate_fires_on_one_character():
    drifted = harness.GOLDEN_DIGEST[:-1] + ("0" if harness.GOLDEN_DIGEST[-1] != "0" else "1")
    failures, _notes = run_perf.check(_payload(_LOW, digest=drifted))
    assert len(failures) == 1 and failures[0].startswith("determinism broken")
    assert drifted in failures[0] and harness.GOLDEN_DIGEST in failures[0]


def test_a_run_without_wallclock_skips_exactly_the_codec_gate():
    readings = {name: value for name, value in _LOW.items() if name != "codec binary/pickle"}
    failures, notes = run_perf.check(_payload(readings))
    assert failures == []
    assert [note for note in notes if "skipped" in note] == [
        "codec binary/pickle skipped (suite ran without wallclock)"
    ]
    assert len(notes) == len(run_perf.GATES) + len(run_perf.COUNTS) + 1


#: What ``harness.calls_per_op`` read on CPython 3.11 with one of the
#: old shapes back around the simulated request (scratch copies of the
#: tree; ``docs/BENCHMARKS.md``, "Tracked performance"), and on the
#: parent of the PR that took them out.
_OLD_SHAPES = {
    "a lambda and a second frame per hop": 473.67,
    "all_done() after every event": 445.96,
    "run_until as predicate(); step()": 430.70,
    "the parent commit": 597.45,
}


#: The readings the calls-per-op ceilings were set from.  Packing what a
#: write leaves behind into fewer objects took six more calls per write
#: off (403.51 on 3.10 / 3.11, 401.58 on 3.12 / 3.13), and one client
#: class one more (402.51, 400.58); the ceilings stayed.
@pytest.mark.parametrize("python, reading", [("3.10", 409.51), ("3.11", 409.51),
                                              ("3.12", 407.58), ("3.13", 407.58)])
def test_calls_per_op_gate_holds_at_this_trees_reading(python, reading):
    failures, notes = run_perf.check(
        _payload(_LOW, calls_per_op=reading, python=python,
                 bytes_per_op=_BYTES_READINGS[python],
                 bytes_per_read_op=_READ_BYTES_READINGS[python],
                 bytes_per_tcp_write=_TCP_BYTES_READINGS[python])
    )
    ceiling = run_perf.CALLS_PER_OP_CEILING[python]
    assert failures == [] and 1.03 < ceiling / reading < 1.05
    assert f"calls per op {reading:.2f} within the {ceiling:.2f} ceiling" in notes


@pytest.mark.parametrize("shape", _OLD_SHAPES)
def test_calls_per_op_gate_fires_on_each_old_shape_alone(shape):
    reading = _OLD_SHAPES[shape]
    failures, notes = run_perf.check(_payload(_LOW, calls_per_op=reading))
    assert len(failures) == 1 and len(notes) == len(run_perf.GATES) + len(run_perf.COUNTS)
    assert failures[0].startswith(f"calls per op {reading:.2f} is past the 426.00 ceiling")


def test_calls_per_op_is_not_judged_on_an_interpreter_nobody_recorded():
    failures, notes = run_perf.check(
        _payload(_LOW, calls_per_op=9999.0, python="3.99", bytes_per_op=99999.0,
                 bytes_per_read_op=99999.0, bytes_per_tcp_write=99999.0)
    )
    assert failures == []
    assert "calls per op 9999.00 not judged (no ceiling for Python 3.99)" in notes
    assert "bytes per op 99999.00 not judged (no ceiling for Python 3.99)" in notes
    assert "bytes per tcp write 99999.00 not judged (no ceiling for Python 3.99)" in notes


#: What ``harness.bytes_per_op`` reads on this tree, by interpreter.
_BYTES_READINGS = {"3.10": 2605.2, "3.11": 2387.2, "3.12": 2362.6, "3.13": 2362.6}

#: What ``harness.bytes_per_read_op`` reads on this tree, by interpreter.
_READ_BYTES_READINGS = {"3.10": 658.9, "3.11": 616.1, "3.12": 604.0, "3.13": 604.0}

#: The highest of five ``harness.bytes_per_tcp_write`` readings on this
#: tree, by interpreter (the reading follows how writes batch, so it
#: moves a little from run to run).
_TCP_BYTES_READINGS = {"3.10": 2878.4, "3.11": 2734.5, "3.12": 2648.7, "3.13": 2654.4}


@pytest.mark.parametrize("python", sorted(_BYTES_READINGS))
def test_bytes_per_op_gate_holds_at_this_trees_reading(python):
    reading = _BYTES_READINGS[python]
    failures, notes = run_perf.check(
        _payload(_LOW, python=python, bytes_per_op=reading,
                 bytes_per_read_op=_READ_BYTES_READINGS[python],
                 bytes_per_tcp_write=_TCP_BYTES_READINGS[python])
    )
    ceiling = run_perf.BYTES_PER_OP_CEILING[python]
    assert failures == [] and 1.02 < ceiling / reading < 1.04
    assert f"bytes per op {reading:.2f} within the {ceiling:.2f} ceiling" in notes


class _FreshWeights(tuple):
    """A server's reply weights, handing out a new frozenset per lookup:
    the per-delivery weight the server used to build, put back."""

    def __getitem__(self, index):
        return frozenset([*tuple.__getitem__(self, index)])


def test_bytes_per_op_repeats_and_fires_on_a_weight_per_delivery(monkeypatch):
    reading = harness.bytes_per_op()
    # Same seed, same objects: measuring again gives the same bytes.
    assert abs(harness.bytes_per_op()["bytes_per_op"] - reading["bytes_per_op"]) <= 0.2
    failures, _notes = run_perf.check(
        _payload(_LOW, python=reading["python"], bytes_per_op=reading["bytes_per_op"])
    )
    assert failures == []

    from repro.core.server import OARServer

    build = OARServer.__init__

    def planted(self, *args, **kwargs):
        build(self, *args, **kwargs)
        self._opt_weights = _FreshWeights(self._opt_weights)

    monkeypatch.setattr(OARServer, "__init__", planted)
    regressed = harness.bytes_per_op()
    # Three replicas each keep one more frozenset per write.
    assert regressed["bytes_per_op"] > reading["bytes_per_op"] + 500
    failures, _notes = run_perf.check(
        _payload(_LOW, python=regressed["python"], bytes_per_op=regressed["bytes_per_op"])
    )
    if regressed["python"] in run_perf.BYTES_PER_OP_CEILING:
        assert len(failures) == 1
        assert failures[0].startswith(f"bytes per op {regressed['bytes_per_op']:.2f} is past")


@pytest.mark.parametrize("python", sorted(_READ_BYTES_READINGS))
def test_bytes_per_read_op_gate_holds_at_this_trees_reading(python):
    reading = _READ_BYTES_READINGS[python]
    failures, notes = run_perf.check(
        _payload(_LOW, python=python, bytes_per_op=_BYTES_READINGS[python],
                 bytes_per_read_op=reading, bytes_per_tcp_write=_TCP_BYTES_READINGS[python])
    )
    ceiling = run_perf.BYTES_PER_READ_OP_CEILING[python]
    assert failures == [] and 1.02 < ceiling / reading < 1.04
    assert f"bytes per read op {reading:.2f} within the {ceiling:.2f} ceiling" in notes


def test_bytes_per_read_op_repeats_and_fires_on_a_weight_tuple_per_read(monkeypatch):
    reading = harness.bytes_per_read_op()
    # Same seed, same objects: measuring again gives the same bytes.
    again = harness.bytes_per_read_op()
    assert abs(again["bytes_per_read_op"] - reading["bytes_per_read_op"]) <= 0.2
    failures, _notes = run_perf.check(
        _payload(_LOW, python=reading["python"], bytes_per_read_op=reading["bytes_per_read_op"])
    )
    assert failures == []

    from repro.core.client import OARClient

    adopt_read = OARClient._adopt_read

    def planted(self, pending, reply, weight):
        # A fresh ``(src,)`` per adopted read: the weight before interning.
        adopt_read(self, pending, reply, tuple([*weight]))

    monkeypatch.setattr(OARClient, "_adopt_read", planted)
    regressed = harness.bytes_per_read_op()
    # Nine ops in ten are reads, each keeping one more 1-tuple.
    assert regressed["bytes_per_read_op"] > reading["bytes_per_read_op"] + 30
    failures, _notes = run_perf.check(
        _payload(_LOW, python=regressed["python"],
                 bytes_per_read_op=regressed["bytes_per_read_op"])
    )
    if regressed["python"] in run_perf.BYTES_PER_READ_OP_CEILING:
        assert len(failures) == 1
        assert failures[0].startswith(
            f"bytes per read op {regressed['bytes_per_read_op']:.2f} is past"
        )


@pytest.mark.parametrize("python", sorted(_TCP_BYTES_READINGS))
def test_bytes_per_tcp_write_gate_holds_at_this_trees_reading(python):
    reading = _TCP_BYTES_READINGS[python]
    failures, notes = run_perf.check(
        _payload(_LOW, python=python, bytes_per_op=_BYTES_READINGS[python],
                 bytes_per_read_op=_READ_BYTES_READINGS[python], bytes_per_tcp_write=reading)
    )
    ceiling = run_perf.BYTES_PER_TCP_WRITE_CEILING[python]
    assert failures == [] and 1.02 < ceiling / reading < 1.04
    assert f"bytes per tcp write {reading:.2f} within the {ceiling:.2f} ceiling" in notes


def test_bytes_per_tcp_write_fires_on_names_decoded_per_body(monkeypatch):
    reading = harness.bytes_per_tcp_write()
    failures, _notes = run_perf.check(
        _payload(_LOW, python=reading["python"],
                 bytes_per_tcp_write=reading["bytes_per_tcp_write"])
    )
    assert failures == []

    # Pids and keys minted as plain strings: marshal does not flag them,
    # so every replica decodes a copy of each into every body it keeps.
    monkeypatch.setattr(sys, "intern", lambda name: name)
    regressed = harness.bytes_per_tcp_write()
    assert regressed["bytes_per_tcp_write"] > reading["bytes_per_tcp_write"] + 300
    failures, _notes = run_perf.check(
        _payload(_LOW, python=regressed["python"],
                 bytes_per_tcp_write=regressed["bytes_per_tcp_write"])
    )
    if regressed["python"] in run_perf.BYTES_PER_TCP_WRITE_CEILING:
        assert len(failures) == 1
        assert failures[0].startswith(
            f"bytes per tcp write {regressed['bytes_per_tcp_write']:.2f} is past"
        )
