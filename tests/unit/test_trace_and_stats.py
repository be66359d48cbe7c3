"""Unit tests for trace logging, statistics and table formatting."""

import pytest

from repro.analysis.stats import (
    adoption_breakdown,
    latencies_from_trace,
    percentile,
    summarize,
)
from repro.harness.tables import Table, write_result
from repro.sim.trace import TraceEvent, TraceLog

pytestmark = pytest.mark.unit



class TestTraceLog:
    def test_record_and_filter(self):
        log = TraceLog()
        log.record(1.0, "p1", "a", x=1)
        log.record(2.0, "p2", "b", x=2)
        log.record(3.0, "p1", "a", x=3)
        assert len(log) == 3
        assert [e["x"] for e in log.events(kind="a")] == [1, 3]
        assert [e["x"] for e in log.events(pid="p2")] == [2]
        assert [e["x"] for e in log.events(kind="a", pid="p1")] == [1, 3]

    def test_kinds_first_seen_order(self):
        log = TraceLog()
        log.record(1.0, "p", "z")
        log.record(2.0, "p", "a")
        log.record(3.0, "p", "z")
        assert log.kinds() == ["z", "a"]

    def test_event_access(self):
        event = TraceEvent(1.5, "p1", "k", {"rid": "m1"})
        assert event["rid"] == "m1"
        assert event.get("missing") is None
        assert event.get("missing", 7) == 7
        assert "m1" in repr(event)

    def test_clear_and_dump(self):
        log = TraceLog()
        log.record(1.0, "p", "k", v=1)
        assert "k(" in log.dump()
        log.clear()
        assert len(log) == 0
        assert log.dump() == ""

    def test_iteration(self):
        log = TraceLog()
        log.record(1.0, "p", "a")
        log.record(2.0, "p", "b")
        assert [e.kind for e in log] == ["a", "b"]

    def test_kind_index_matches_scan(self):
        log = TraceLog()
        for i in range(50):
            log.record(float(i), f"p{i % 3}", "abc"[i % 3], i=i)
        for kind in "abc":
            assert log.events(kind=kind) == [e for e in log if e.kind == kind]
        assert log.count("a") == sum(1 for e in log if e.kind == "a")
        assert log.count("missing") == 0
        assert log.events(kind="missing") == []

    def test_events_of_kinds_preserves_log_order(self):
        log = TraceLog()
        for i in range(30):
            log.record(float(i), f"p{i % 2}", "xyz"[i % 3], i=i)
        merged = log.events_of_kinds(("x", "z"))
        assert merged == [e for e in log if e.kind in ("x", "z")]
        merged_pid = log.events_of_kinds(("x", "z"), pid="p0")
        assert merged_pid == [e for e in log if e.kind in ("x", "z") and e.pid == "p0"]
        assert log.events_of_kinds(("nope",)) == []

    def test_appended_events_are_indexed(self):
        log = TraceLog()
        log.record(1.0, "p", "a", v=1)
        log.record(2.0, "p", "b", v=2)
        log.record(3.0, "p", "a", v=3)
        assert [e["v"] for e in log.events(kind="a")] == [1, 3]

    def test_clear_resets_kind_index(self):
        log = TraceLog()
        log.record(1.0, "p", "a")
        log.clear()
        log.record(2.0, "p", "b")
        assert log.events(kind="a") == []
        assert [e.kind for e in log.events(kind="b")] == ["b"]

    def test_level_off_drops_everything(self):
        log = TraceLog(level="off")
        log.record(1.0, "p", "a", x=1)
        log.record(2.0, "p", "b")
        assert len(log) == 0
        assert log.events() == []
        assert log.events(kind="a") == []
        assert not log.enabled
        assert TraceLog().enabled

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(level="verbose")

    def test_digest_is_order_and_content_sensitive(self):
        a, b, c = TraceLog(), TraceLog(), TraceLog()
        a.record(1.0, "p", "k", v=1)
        a.record(2.0, "p", "k", v=2)
        b.record(1.0, "p", "k", v=1)
        b.record(2.0, "p", "k", v=2)
        c.record(2.0, "p", "k", v=2)
        c.record(1.0, "p", "k", v=1)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert a.digest() != TraceLog().digest()


class TestStats:
    def test_percentile_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 2.5

    def test_percentile_single_value(self):
        assert percentile([7.0], 0.95) == 7.0

    def test_percentile_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.count == 3
        assert stats.mean == 2.0
        assert stats.median == 2.0
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.stddev > 0
        assert "n=" in stats.row()

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_latencies_from_trace(self):
        log = TraceLog()
        log.record(1.0, "c1", "adopt", latency=3.0, conservative=False)
        log.record(2.0, "c1", "adopt", latency=5.0, conservative=True)
        log.record(2.0, "c1", "other")
        assert latencies_from_trace(log) == [3.0, 5.0]
        assert adoption_breakdown(log) == {"optimistic": 1, "conservative": 1}


class TestTable:
    def test_render_alignment(self):
        table = Table("Latency", ["protocol", "mean"])
        table.add_row("oar", 3.0)
        table.add_row("sequencer-abcast", 2.5)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Latency"
        assert "protocol" in lines[2]
        assert "3.000" in text
        assert str(table) == text

    def test_row_arity_checked(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_write_result(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = write_result("unit-test", "hello world")
        assert path.read_text() == "hello world\n"
        assert "hello world" in capsys.readouterr().out
