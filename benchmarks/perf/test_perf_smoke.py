"""Smoke tests for the perf harness (catches harness bitrot in tier-1).

These do not assert absolute speed -- machines differ -- only that every
benchmark runs, produces sane numbers, and that the kernel fast path is
actually faster than a trivially slow floor.  The determinism digest is
asserted exactly (it is machine-independent).
"""

import json

import pytest

from benchmarks.perf import harness

pytestmark = pytest.mark.bench


def test_suite_runs_quick_and_payload_is_complete(tmp_path):
    # wallclock=False: the TCP cells take tens of seconds and are
    # covered by test_wallclock_cells below with tiny shapes.
    payload = harness.run_suite(quick=True, repeats=1, wallclock=False)
    assert "wallclock" not in payload
    for bench in harness.BENCHES:
        assert payload["results"][bench.key] > 0
    assert payload["mode"] == "quick"
    history = payload["history_scaling"]
    assert history["writes"] == harness.HISTORY_WRITES_QUICK
    assert history["ops_per_sec_q1"] > 0 and history["ops_per_sec_q4"] > 0
    checker = payload["checker_scaling"]
    assert checker["requests_per_client"] == harness.CHECKER_REQUESTS_QUICK
    assert 0 < checker["check_all_sec_1x"] < checker["check_all_sec_4x"]
    kernel = payload["kernel_vs_reference"]
    assert kernel["fast_lane_events_per_sec"] > 0
    assert kernel["reference_events_per_sec"] > 0
    # No figure measured on another machine is carried along any more.
    assert not {"baseline_pre_pr", "speedup_vs_pre_pr"} & set(payload)
    # The payload is JSON-serializable and round-trips.
    out = tmp_path / "perf.json"
    harness.write_payload(payload, str(out))
    assert json.loads(out.read_text())["schema"] == 1
    # Table rendering covers every benchmark.
    table = harness.format_table(payload)
    for bench in harness.BENCHES:
        assert bench.label in table
    assert "kernel fast lane" in table
    assert "history scaling" in table and "checker scaling" in table


def test_wallclock_cells():
    """Tiny-shape versions of the real-backend cells: the codec micro
    keeps its margin over pickle, the TCP ping-pong moves messages, and
    the section renders.  Full-size cells run in ``run_perf.py``."""
    from benchmarks.perf import wallclock

    rates = wallclock.codec_rates(300)
    assert rates["binary"] > rates["pickle"] > 0
    pingpong = wallclock.tcp_pingpong_msgs_per_sec(200)
    assert pingpong > 0
    assert wallclock.tcp_oar_ops_per_sec(5) > 0
    # The stage cell reads all of its requests; its ratio is gated in
    # the runtime-smoke job, at full size.
    stages = wallclock.tcp_paced_stages(5)
    assert len(stages.per_rid) == 4 * 5
    assert wallclock.order_wait_ratio(stages) > 0
    section = {
        "codec_roundtrips_per_sec": {k: round(v, 1) for k, v in rates.items()},
        "tcp_pingpong_msgs_per_sec": {"binary": round(pingpong, 1)},
        "ratios": {
            "codec_binary_vs_pickle": round(rates["binary"] / rates["pickle"], 2),
        },
    }
    rendered = wallclock.format_wallclock(section)
    assert "codec binary/pickle" in rendered


def test_golden_digest_is_stable():
    assert harness.golden_scenario_digest() == harness.GOLDEN_DIGEST


def test_kernel_dispatch_uses_fast_lane():
    """The cascade must beat a conservative floor that even modest
    hardware exceeds with the fast lane but not without it."""
    rate = max(harness.kernel_dispatch(60_000) for _ in range(2))
    assert rate > 500_000, f"kernel dispatch suspiciously slow: {rate:,.0f}/s"
