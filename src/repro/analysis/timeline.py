"""ASCII space-time diagrams of protocol runs.

Renders a trace the way the paper draws its figures: one horizontal lane
per process, time flowing right, with markers for the protocol events.
Used by the examples and by ``benchmarks/results`` reports to make the
scenario runs directly comparable with Figures 1-4 of the paper.

Marker legend (see :data:`MARKERS`):

====== ===========================================
``.``  R-deliver (request received)
``s``  sequencer sends an ordering message
``o``  Opt-deliver (paper: white diamond)
``A``  A-deliver (conservative delivery)
``x``  Opt-undeliver (paper: grey diamond)
``P``  PhaseII starts (conservative phase entered)
``X``  crash
``^``  client submits
``*``  client adopts a reply
``!``  client retransmits
====== ===========================================

:func:`stage_latencies` reads the same events as numbers: where a
failure-free request spent its time between submission and adoption.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.trace import TraceLog

#: event kind -> (marker, description)
MARKERS: Dict[str, Tuple[str, str]] = {
    "r_deliver": (".", "R-deliver"),
    "seq_order": ("s", "sequencer orders"),
    "opt_deliver": ("o", "Opt-deliver"),
    "a_deliver": ("A", "A-deliver"),
    "opt_undeliver": ("x", "Opt-undeliver"),
    "phase2_start": ("P", "PhaseII"),
    "crash": ("X", "crash"),
    "submit": ("^", "submit"),
    "adopt": ("*", "adopt"),
    "retransmit": ("!", "retransmit"),
}


def render_timeline(
    trace: TraceLog,
    pids: Sequence[str],
    width: int = 72,
    start: Optional[float] = None,
    end: Optional[float] = None,
    kinds: Optional[Sequence[str]] = None,
    legend: bool = True,
) -> str:
    """Render one lane per pid over ``[start, end]`` in ``width`` columns.

    Events that would land on an occupied column slide right to the next
    free one, so dense bursts stay readable at the cost of slight
    horizontal distortion (the relative order is always preserved).
    """
    wanted = set(kinds) if kinds is not None else set(MARKERS)
    events = [
        event
        for event in trace
        if event.kind in wanted and event.pid in set(pids)
    ]
    if not events:
        return "(no events to draw)"

    t_min = start if start is not None else min(e.time for e in events)
    t_max = end if end is not None else max(e.time for e in events)
    if t_max <= t_min:
        t_max = t_min + 1.0
    span = t_max - t_min

    label_width = max(len(pid) for pid in pids) + 1
    lanes: Dict[str, List[str]] = {pid: ["-"] * width for pid in pids}
    crashed_at: Dict[str, int] = {}

    for event in sorted(events, key=lambda e: e.time):
        if not t_min <= event.time <= t_max:
            continue
        column = int((event.time - t_min) / span * (width - 1))
        lane = lanes[event.pid]
        while column < width and lane[column] != "-":
            column += 1
        if column >= width:
            column = width - 1
        marker = MARKERS[event.kind][0]
        lane[column] = marker
        if event.kind == "crash":
            crashed_at[event.pid] = column

    # After a crash, blank the rest of the lane (the paper truncates the
    # process line).
    for pid, column in crashed_at.items():
        lane = lanes[pid]
        for index in range(column + 1, width):
            if lane[index] == "-":
                lane[index] = " "

    lines = []
    for pid in pids:
        lines.append(f"{pid:>{label_width}} {''.join(lanes[pid])}")

    axis = f"{'':>{label_width}} t={t_min:<8.1f}" + " " * max(
        0, width - 20
    ) + f"t={t_max:.1f}"
    lines.append(axis)

    if legend:
        used = {event.kind for event in events}
        parts = [
            f"{MARKERS[kind][0]}={MARKERS[kind][1]}"
            for kind in MARKERS
            if kind in used
        ]
        lines.append("")
        lines.append("legend: " + "  ".join(parts))
    return "\n".join(lines)


def describe_run(trace: TraceLog, pids: Sequence[str]) -> str:
    """A compact textual synopsis to accompany a timeline."""
    counts: Dict[str, int] = {}
    for event in trace:
        if event.kind in MARKERS:
            counts[event.kind] = counts.get(event.kind, 0) + 1
    epochs = sorted(
        {event["epoch"] for event in trace.events(kind="phase2_start")}
    )
    parts = [
        f"{MARKERS[kind][1]}: {counts[kind]}"
        for kind in MARKERS
        if kind in counts
    ]
    summary = ", ".join(parts)
    if epochs:
        summary += f"; conservative phases in epoch(s) {epochs}"
    return summary


#: The failure-free request path (the paper's Figure 2), as the four
#: intervals between its five trace events.
STAGES: Tuple[str, ...] = (
    "submit -> R-deliver@sequencer",
    "R-deliver@sequencer -> seq_order",
    "seq_order -> first follower Opt-deliver",
    "first follower Opt-deliver -> adopt",
)


@dataclass(frozen=True)
class StageLatencies:
    """Per-request stage times of one run, in the trace's own time unit.

    ``per_rid[rid][i]`` is how long ``rid`` spent in ``STAGES[i]``.
    """

    per_rid: Dict[str, Tuple[float, float, float, float]]

    def medians(self) -> Tuple[float, ...]:
        """Median of each stage over the requests (zeros when empty)."""
        if not self.per_rid:
            return (0.0,) * len(STAGES)
        return tuple(median(column) for column in zip(*self.per_rid.values()))

    def format(self, scale: float = 1.0, unit: str = "units") -> str:
        """The stage table; a wall-clock trace wants ``scale=1000, unit="ms"``."""
        medians = self.medians()
        lines = [f"stage medians over {len(self.per_rid)} requests ({unit})"]
        for stage, value in zip(STAGES, medians):
            lines.append(f"  {stage:<40} {value * scale:8.3f}")
        lines.append(f"  {'submit -> adopt (sum of medians)':<40} {sum(medians) * scale:8.3f}")
        return "\n".join(lines)


def stage_latencies(trace: TraceLog) -> StageLatencies:
    """Where each optimistically ordered request spent its time.

    A request's sequencer is the process whose ``seq_order`` first
    carried its rid; its R-delivery is timed *there* (the order cannot
    be sent earlier), its optimistic delivery at the first *other*
    replica (the sequencer's own reply weighs ``{s}`` and cannot be
    adopted alone).  Works on simulated and on wall-clock traces alike;
    requests that miss one of the five events -- settled by a
    conservative phase, never adopted, a group of one -- are left out.
    """
    first: Dict[Tuple[str, str], float] = {}  # (kind, rid) -> earliest time
    r_deliver: Dict[Tuple[str, str], float] = {}  # (rid, pid) -> time
    ordered: Dict[str, Tuple[str, float]] = {}  # rid -> (sequencer, time)
    for event in trace.events_of_kinds(("submit", "r_deliver", "seq_order", "adopt")):
        kind = event.kind
        if kind == "seq_order":
            for rid in event["rids"]:
                ordered.setdefault(rid, (event.pid, event.time))
        elif kind == "r_deliver":
            r_deliver.setdefault((event["rid"], event.pid), event.time)
        else:
            first.setdefault((kind, event["rid"]), event.time)
    for event in trace.events(kind="opt_deliver"):
        rid = event["rid"]
        if rid in ordered and event.pid != ordered[rid][0]:
            first.setdefault(("opt_deliver", rid), event.time)

    per_rid: Dict[str, Tuple[float, float, float, float]] = {}
    for rid, (sequencer, order_time) in ordered.items():
        points = (
            first.get(("submit", rid)),
            r_deliver.get((rid, sequencer)),
            order_time,
            first.get(("opt_deliver", rid)),
            first.get(("adopt", rid)),
        )
        if None not in points:
            per_rid[rid] = tuple(
                later - earlier for earlier, later in zip(points, points[1:])
            )
    return StageLatencies(per_rid)
