"""One round of one workload in this process; prints the round as one JSON line.

``run.py`` starts this file once per round, so every round has a clean
heap and pays its own imports and cluster build (an honest ``setup_s``
and ``peak_rss_mb``).  ``--verify`` runs the small full-trace pass that
puts a ``tcp_*`` workload's shape through ``check_all()`` instead.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_PROCESS_START = time.time()  # stands in for --spawned-at when run by hand

ROOT = Path(__file__).resolve().parents[2]
if not __package__:  # run as a script: import the checkout's own code
    sys.path[0] = str(ROOT)  # not this directory: its module names are generic
    sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

from repro.core.admission import Overloaded  # noqa: E402
from repro.runtime import scenario as runtime_scenario  # noqa: E402
from repro.runtime.scenario import run_runtime_scenario  # noqa: E402
from repro.sharding.cluster import run_sharded_scenario  # noqa: E402
from repro.statemachine.base import OpResult, WrongShard  # noqa: E402

from benchmarks.e2e import calibrate, layers  # noqa: E402
from benchmarks.e2e.driver import DriveStart, DueTimeDriver, injected, stamped  # noqa: E402
from benchmarks.e2e.metrics import percentile  # noqa: E402
from benchmarks.e2e.spans import SpanRecorder  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    BY_NAME,
    VERIFY_REQUESTS_PER_CLIENT,
    Workload,
    round_seed,
)


def refused(adopted: Any) -> bool:
    """Adopted, but the system did not serve it (shed, or routing gave up).

    A failed precondition (``get`` of a key never set, an overdraft) is a
    correct answer every replica agrees on, not a failure.
    """
    value = adopted.value
    return isinstance(value, OpResult) and isinstance(value.value, (Overloaded, WrongShard))


def output_problems(workload: Workload, view: Any, completed: bool) -> List[str]:
    """What is wrong with a finished run's outputs (empty when correct)."""
    problems = []
    if not completed or not all(driver.done for driver in view.drivers):
        problems.append("drivers not done by the deadline")
    for index, shard in enumerate(view.shards):
        states = [server.machine.state() for server in shard if not server.crashed]
        if any(state != states[0] for state in states[1:]):
            problems.append(f"replicas of shard {index} hold different state")
    if workload.crash is None and layers.phase2_count(view):
        problems.append("a conservative phase ran without an injected fault")
    return problems


class Round:
    """Runs the workload once and reads the numbers off the finished run."""

    def __init__(self, workload: Workload, seed: int, recorder: Optional[SpanRecorder]) -> None:
        self.workload = workload
        self.seed = seed
        self.recorder = recorder
        self.start = DriveStart()
        self.problems: List[str] = []

    # -- the two backends ------------------------------------------------

    def run_tcp(self, scenario: Any) -> None:
        config = self.workload.runtime_config(scenario)
        open_loop = functools.partial(
            DueTimeDriver, start=self.start, seconds_per_unit=config.time_scale
        )
        closed_loop = stamped(runtime_scenario.ClosedLoopDriver, self.start)
        with injected(
            runtime_scenario, OpenLoopDriver=open_loop, ClosedLoopDriver=closed_loop
        ):
            run = run_runtime_scenario(config)
        self.end_cpu = time.process_time()
        self.view = run.view
        self.completed = run.completed
        self.drive_s = run.elapsed
        self.transport = run.transport_stats()
        due_time = [d for d in run.drivers if isinstance(d, DueTimeDriver)]
        if due_time:
            self.latencies_ms = [s * 1e3 for d in due_time for s in d.latencies_s()]
            self.lateness_ms = [s * 1e3 for d in due_time for s in d.lateness_s()]
            self.adopt_times = [s for d in due_time for s in d.adopt_s if s is not None]
        else:
            adopted = run.adopted().values()
            self.latencies_ms = [a.latency * 1e3 for a in adopted]
            self.lateness_ms = []
            self.adopt_times = [a.adopt_time for a in adopted]

    def run_sim(self, scenario: Any) -> None:
        # ``arm`` runs when the built deployment starts executing: the
        # end of set-up on the simulator.
        scenario = scenario.with_changes(arm=lambda _run: self.start.mark())
        view = run_sharded_scenario(scenario)
        if self.workload.checked:
            try:
                view.check_all()
            except AssertionError as error:
                self.problems.append(f"check_all: {error}")
        self.drive_s = time.perf_counter() - self.start.perf
        self.end_cpu = time.process_time()
        self.view = view
        self.completed = view.all_done()
        self.transport = {}
        # Simulated clock, one unit read as one millisecond (the injected
        # hop delay is 1.0 unit).
        self.latencies_ms = view.latencies()
        self.lateness_ms = []
        self.adopt_times = []

    # -- measurement -----------------------------------------------------

    def execute(self, spawned_at: float) -> Dict[str, Any]:
        scenario = self.workload.scenario(self.seed)
        recorder = self.recorder
        calibration_start = time.perf_counter()
        calibration_before = calibrate.seconds_per_pass()
        window_start = time.perf_counter()
        calibrating_s = window_start - calibration_start  # not part of set-up
        if recorder is not None:
            layers.install(recorder)
        try:
            if self.workload.backend == "tcp":
                self.run_tcp(scenario)
            else:
                self.run_sim(scenario)
        finally:
            if recorder is not None:
                recorder.uninstall()
        window_s = time.perf_counter() - window_start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Host times below are multiplied by the machine's speed: what they
        # would read with the calibration kernel running at nominal pace.
        machine_speed = calibrate.speed(calibration_before, calibrate.seconds_per_pass())
        speed = 1.0 if self.workload.paced else machine_speed
        drive_s = self.drive_s * speed
        if self.workload.backend == "tcp":
            self.latencies_ms = [ms * speed for ms in self.latencies_ms]
            self.lateness_ms = [ms * speed for ms in self.lateness_ms]
            self.adopt_times = [s * speed for s in self.adopt_times]

        view = self.view
        self.problems += output_problems(self.workload, view, self.completed)
        attempted = sum(len(driver.submitted) for driver in view.drivers)
        adopted = view.adopted()
        served = sum(
            1
            for driver in view.drivers
            for rid in driver.submitted
            if rid in adopted and not refused(adopted[rid])
        )
        failed = attempted - served

        end_to_end = {
            "setup_s": (self.start.wall - spawned_at - calibrating_s) * machine_speed,
            "ops_per_s": served / drive_s,
            "cpu_ms_per_op": (self.end_cpu - self.start.cpu) * speed * 1e3 / max(served, 1),
            "latency_p50_ms": percentile(self.latencies_ms, 0.50),
            "latency_p90_ms": percentile(self.latencies_ms, 0.90),
            "peak_rss_mb": rss_mb,
        }
        per_layer = layers.counter_metrics(view, served, self.transport, self.adopt_times)
        per_layer["failed_share"] = failed / attempted
        per_layer.update(layers.latency_metrics(self.latencies_ms, self.lateness_ms))
        if view.sim is not None:
            per_layer.update(self.simulated(adopted))
        if recorder is not None:
            per_layer.update(
                layers.span_metrics(
                    recorder, view, served, drive_s, window_s, self.transport, speed
                )
            )
        return {
            "loop": self.workload.loop,
            "attempted": attempted,
            "failed": failed,
            "problems": self.problems,
            "drive_s": drive_s,
            "speed": machine_speed,
            "latency_samples": len(self.latencies_ms),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }

    def simulated(self, adopted: Dict[str, Any]) -> Dict[str, float]:
        """Outcomes on the simulated clock: exact functions of the seed."""
        view = self.view
        latencies = view.latencies()
        metrics = {
            "sim_latency_p50_units": percentile(latencies, 0.50),
            "sim_latency_p99_units": percentile(latencies, 0.99),
        }
        if adopted:
            first_submit = min(a.submit_time for a in adopted.values())
            last_adopt = max(a.adopt_time for a in adopted.values())
            metrics["sim_goodput_ops_per_unit"] = len(adopted) / (last_adopt - first_submit)
        if self.workload.crash is not None:
            # From the crash to the first adoption of an operation that
            # was submitted to the crashed shard after it: one that
            # needed the new sequencer, not one already in flight.
            crash_time, crashed_pid = self.workload.crash
            shard = next(
                index for index, group in enumerate(view.shard_groups) if crashed_pid in group
            )
            after = [
                adopted[rid].adopt_time
                for rid in view.routed_to(shard)
                if rid in adopted and adopted[rid].submit_time >= crash_time
            ]
            if after:
                metrics["sim_blackout_units"] = min(after) - crash_time
        return metrics


def verify(workload: Workload, seed: int) -> Dict[str, Any]:
    """A small full-trace run of a TCP workload's shape through ``check_all()``."""
    scenario = workload.scenario(seed).with_changes(
        requests_per_client=VERIFY_REQUESTS_PER_CLIENT, trace_level="full"
    )
    run = run_runtime_scenario(workload.runtime_config(scenario))
    problems = output_problems(workload, run.view, run.completed)
    try:
        run.check_all()
    except AssertionError as error:
        problems.append(f"check_all: {error}")
    return {"problems": problems, "checked_ops": len(run.adopted())}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None, help="write the kept spans here")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() when the parent started this process")
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else _PROCESS_START
    workload = BY_NAME[args.workload]
    seed = round_seed(args.seed, args.round)
    if args.verify:
        result = verify(workload, seed)
    else:
        recorder = SpanRecorder() if args.traced else None
        result = Round(workload, seed, recorder).execute(spawned_at)
        if recorder is not None and args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            recorder.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
