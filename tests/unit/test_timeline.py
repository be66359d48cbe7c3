"""Unit tests for the ASCII space-time diagram renderer."""

from repro.analysis.timeline import (
    MARKERS,
    STAGES,
    describe_run,
    render_timeline,
    stage_latencies,
)
from repro.core.server import OARConfig
from repro.harness.scenario import ScenarioConfig, build_scenario
from repro.sim.trace import TraceLog

import pytest

pytestmark = pytest.mark.unit



def make_trace():
    log = TraceLog()
    log.record(0.0, "c1", "submit", rid="m1", op=("incr",))
    log.record(1.0, "p1", "r_deliver", rid="m1")
    log.record(1.0, "p1", "seq_order", epoch=0, rids=("m1",))
    log.record(1.0, "p1", "opt_deliver", rid="m1", epoch=0, position=1, value=1)
    log.record(2.0, "p2", "opt_deliver", rid="m1", epoch=0, position=1, value=1)
    log.record(3.0, "c1", "adopt", rid="m1", position=1, value=1, epoch=0,
               weight=("p1", "p2"), conservative=False, latency=3.0)
    log.record(5.0, "p1", "crash")
    log.record(8.0, "p2", "phase2_start", epoch=0, reason="suspicion")
    log.record(9.0, "p2", "opt_undeliver", rid="m1", epoch=0)
    log.record(10.0, "p2", "a_deliver", rid="m1", epoch=0, position=1, value=1)
    return log


class TestRenderTimeline:
    def test_all_lanes_present(self):
        text = render_timeline(make_trace(), ["p1", "p2", "c1"])
        lines = text.splitlines()
        assert lines[0].strip().startswith("p1")
        assert lines[1].strip().startswith("p2")
        assert lines[2].strip().startswith("c1")

    def test_markers_appear(self):
        text = render_timeline(make_trace(), ["p1", "p2", "c1"])
        for kind in ("opt_deliver", "a_deliver", "opt_undeliver", "crash"):
            assert MARKERS[kind][0] in text

    def test_crash_truncates_lane(self):
        text = render_timeline(make_trace(), ["p1"], width=40, legend=False)
        lane = text.splitlines()[0]
        crash_at = lane.index("X")
        # Everything after the crash is blank, like the paper's figures.
        assert set(lane[crash_at + 1:]) <= {" "}

    def test_time_window_filtering(self):
        text = render_timeline(
            make_trace(), ["p2"], start=0.0, end=5.0, legend=False
        )
        assert "A" not in text  # the a_deliver at t=10 is outside

    def test_kind_filtering(self):
        text = render_timeline(
            make_trace(), ["p1", "p2"], kinds=["opt_deliver"], legend=False
        )
        assert "o" in text
        assert "X" not in text

    def test_empty_selection(self):
        assert "no events" in render_timeline(TraceLog(), ["p1"])

    def test_legend_lists_only_used_markers(self):
        text = render_timeline(make_trace(), ["p1"], kinds=["crash"])
        assert "crash" in text
        assert "Opt-undeliver" not in text

    def test_collision_shifts_right(self):
        # Three same-time events on one lane must all be drawn.
        log = TraceLog()
        for _ in range(3):
            log.record(1.0, "p1", "opt_deliver", rid="m", epoch=0,
                       position=1, value=1)
        text = render_timeline(log, ["p1"], width=30, legend=False)
        assert text.splitlines()[0].count("o") == 3

    def test_axis_shows_bounds(self):
        text = render_timeline(make_trace(), ["p1"], start=0.0, end=10.0)
        assert "t=0.0" in text
        assert "t=10.0" in text


class TestDescribeRun:
    def test_synopsis_counts(self):
        text = describe_run(make_trace(), ["p1", "p2", "c1"])
        assert "Opt-deliver: 2" in text
        assert "A-deliver: 1" in text
        assert "crash: 1" in text
        assert "epoch(s) [0]" in text

    def test_empty_trace(self):
        assert describe_run(TraceLog(), ["p1"]) == ""


class TestStageLatencies:
    def test_scripted_run_on_the_unit_hop_reads_exact_stages(self):
        """Three requests, every hop 1.0 unit, Task 1a on a 2.0-unit tick:
        a request waits for the tick and for nothing else."""
        run = build_scenario(
            ScenarioConfig(
                fd_kind="scripted",
                requests_per_client=0,
                n_servers=3,
                n_clients=1,
                oar=OARConfig(batch_interval=2.0),
            )
        )
        client = run.clients[0]
        rids = []
        for when in (0.25, 0.5, 2.5):
            run.sim.schedule_at(when, lambda: rids.append(client.submit(("incr",))))
        run.sim.run(until=30.0, max_events=100_000)
        stages = stage_latencies(run.trace)
        # submit +1.0 -> R-deliver at p1, then the tick at t=2 (t=4 for
        # the third), +1.0 -> p2/p3 Opt-deliver, +1.0 -> their reply.
        assert stages.per_rid == {
            rids[0]: (1.0, 0.75, 1.0, 1.0),
            rids[1]: (1.0, 0.5, 1.0, 1.0),
            rids[2]: (1.0, 0.5, 1.0, 1.0),
        }
        assert stages.medians() == (1.0, 0.5, 1.0, 1.0)
        table = stages.format()
        assert "over 3 requests (units)" in table
        for stage in STAGES:
            assert stage in table
        assert table.splitlines()[-1].split()[-1] == "3.500"

    def test_order_on_arrival_has_no_order_wait_in_the_simulator(self):
        run = build_scenario(
            ScenarioConfig(n_servers=3, n_clients=2, requests_per_client=5)
        ).execute()
        stages = stage_latencies(run.trace)
        assert len(stages.per_rid) == 10
        assert {stage[1] for stage in stages.per_rid.values()} == {0.0}

    def test_wall_clock_trace_and_the_requests_it_leaves_out(self):
        log = make_trace()  # m1 on the unit hop, p1 the sequencer
        # m2 in fractional seconds; the sequencer's own Opt-delivery and
        # a relayed second R-delivery do not count.
        log.record(10.0001, "c1", "submit", rid="m2", op=("incr",))
        log.record(10.0003, "p2", "r_deliver", rid="m2")
        log.record(10.0004, "p1", "r_deliver", rid="m2")
        log.record(10.0021, "p1", "seq_order", epoch=0, rids=("m2", "m3"))
        log.record(10.0021, "p1", "opt_deliver", rid="m2", epoch=0, position=2, value=2)
        log.record(10.0024, "p3", "opt_deliver", rid="m2", epoch=0, position=2, value=2)
        log.record(10.0025, "p2", "opt_deliver", rid="m2", epoch=0, position=2, value=2)
        log.record(10.0028, "c1", "adopt", rid="m2", position=2, value=2, epoch=0,
                   weight=("p1", "p3"), conservative=False, latency=0.0027)
        # m3 was ordered but never adopted; m4 was never ordered.
        log.record(10.0005, "c1", "submit", rid="m3", op=("incr",))
        log.record(10.0006, "p1", "r_deliver", rid="m3")
        log.record(10.0030, "c1", "submit", rid="m4", op=("incr",))
        stages = stage_latencies(log)
        assert set(stages.per_rid) == {"m1", "m2"}
        assert stages.per_rid["m1"] == (1.0, 0.0, 1.0, 1.0)
        assert stages.per_rid["m2"] == pytest.approx((0.0003, 0.0017, 0.0003, 0.0004))
        assert "(ms)" in stages.format(scale=1000.0, unit="ms")

    def test_empty_trace(self):
        stages = stage_latencies(TraceLog())
        assert stages.per_rid == {}
        assert stages.medians() == (0.0, 0.0, 0.0, 0.0)
