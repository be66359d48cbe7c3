"""Run one workload of the repo benchmark and print its metrics.

    python3 benchmarks/e2e/run.py --workload tcp_write_sat --seed 0 --seconds 20 --trace 0

Rounds of the workload (``round.py``, one fresh process each, one at a
time) are started until ``--seconds`` have passed; every metric is the
median over the rounds, except the simulated-clock outcomes, which come
from round 0 so that they depend on the seed alone.  With ``--trace 1``
every other round runs under the span recorder: the per-layer table is
the median over the traced rounds and ``trace.overhead_ratio`` compares
their drive time with the untraced rounds in between.  Each ``tcp_*``
workload ends with a small full-trace pass through ``check_all()``.

The last line printed is the result as one JSON object.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not __package__:  # run as a script
    sys.path[0] = str(ROOT)  # not this directory: its module names are generic

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

from benchmarks.e2e.metrics import END_TO_END, EXACT, OUT, PER_LAYER, median_of  # noqa: E402

HERE = Path(__file__).resolve().parent
#: A round takes 1-5 s here; anything near this is a hang, and the
#: whole command must end within the driver's 180 s.
ROUND_TIMEOUT_S = 120.0


def run_round(workload: str, seed: int, extra: Sequence[str]) -> Dict[str, Any]:
    """Start ``round.py``, wait for it, and return the JSON it printed."""
    command = [
        sys.executable, str(HERE / "round.py"),
        "--workload", workload, "--seed", str(seed),
        "--spawned-at", repr(time.time()), *extra,
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"round failed with exit code {done.returncode}: {' '.join(extra)}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """Rounds for ``seconds`` seconds; the untraced and the traced ones apart."""
    plain: List[Dict[str, Any]] = []
    spanned: List[Dict[str, Any]] = []
    spans_out = OUT / f"{workload}-seed{seed}.spans.jsonl"
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < seconds or (traced and not spanned):
        extra = ["--round", str(index)]
        if traced and index % 2:
            extra += ["--traced", "1"]
            if not spanned:
                extra += ["--spans-out", str(spans_out)]
            spanned.append(run_round(workload, seed, extra))
        else:
            plain.append(run_round(workload, seed, extra))
        index += 1
    return {"plain": plain, "spanned": spanned}


def summarise(rounds: Dict[str, List[Dict[str, Any]]], traced: bool) -> Dict[str, float]:
    plain, spanned = rounds["plain"], rounds["spanned"]
    if not traced:
        return median_of((r["end_to_end"] for r in plain), (name for name, _, _ in END_TO_END))
    names = [name for name, _, _ in PER_LAYER]
    values = median_of((r["per_layer"] for r in spanned), names)
    for name in EXACT:
        values[name] = plain[0]["per_layer"].get(name, 0.0)
    values["trace.overhead_ratio"] = statistics.median(
        r["drive_s"] for r in spanned
    ) / statistics.median(r["drive_s"] for r in plain)
    return values


def report(
    workload: str,
    seed: int,
    rounds: Dict[str, List[Dict[str, Any]]],
    traced: bool,
    problems: List[str],
) -> Dict[str, Any]:
    """Print every metric by name with its unit, then the result as JSON."""
    measured = rounds["plain"] + rounds["spanned"]
    problems = problems + [p for r in measured for p in r["problems"]]
    values = summarise(rounds, traced)
    table = PER_LAYER if traced else END_TO_END
    print(
        f"{workload} seed={seed} [{measured[0]['loop']}]: "
        f"{len(rounds['plain'])} untraced and {len(rounds['spanned'])} traced rounds, "
        f"{measured[0]['latency_samples']} latency samples per round, machine at "
        f"{statistics.median(r['speed'] for r in measured):.2f} of nominal speed"
    )
    for name, unit, _ in table:
        print(f"  {name:<48} {values[name]:>16.6g} {unit}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in measured),
        "failed": sum(r["failed"] for r in measured),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }
    print(json.dumps(result))
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    rounds = measure(args.workload, args.seed, args.seconds, traced)
    problems: List[str] = []
    if args.workload.startswith("tcp_"):
        verified = run_round(args.workload, args.seed, ["--verify"])
        problems += verified["problems"]
        print(f"verify pass: {verified['checked_ops']} ops through check_all()")
    report(args.workload, args.seed, rounds, traced, problems)
    return 0


if __name__ == "__main__":
    sys.exit(main())
