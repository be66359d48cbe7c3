"""``python -m benchmarks.e2e run|compare`` -- the benchmark, for people.

``run`` executes ``run.py`` (the command ``BENCHMARK.json`` names) for
every workload and seed, workloads interleaved round-robin, prints each
run's metrics and the spread table, and writes all of it to
``benchmarks/e2e/out/<label>.json`` (git-ignored).  ``compare`` judges
one such file against another; see ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e import compare
from benchmarks.e2e.metrics import OUT, ROOT, load_benchmark_json, spread


def run_suite(args: argparse.Namespace) -> int:
    spec = load_benchmark_json()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    runs: List[Dict[str, Any]] = []
    for seed in seeds:
        for name in names:
            for trace in (0, 1) if args.traced else (0,):
                command = [
                    *spec["command"], "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                ]
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    return done.returncode
                *report, last = done.stdout.splitlines()
                print("\n".join(report), flush=True)
                result = json.loads(last)
                result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
                runs.append({"workload": name, "seed": seed, "trace": trace, **result})
    summary = {"label": args.label, "run_seconds": seconds, "seeds": seeds, "claim": None}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.label}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs, "summary": summary}, handle, indent=1)
    print_spreads(spec, names, runs)
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def print_spreads(spec: dict, names: Sequence[str], runs: List[Dict[str, Any]]) -> None:
    """Median and inter-quartile spread of every end-to-end metric, per workload."""
    print(f"{'workload/metric':<40} {'median':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        for metric in spec["end_to_end"]:
            values = compare.values_of(runs, name, 0, metric["name"])
            print(
                f"{name + '/' + metric['name']:<40} {statistics.median(values):>12.5g} "
                f"{spread(values):>8.1%} {metric['bound']:>6.0%}"
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads over several seeds")
    run.add_argument("--workload", action="append", help="repeatable; default: all five")
    run.add_argument("--seeds", type=int, default=10, help="how many seeds (default 10)")
    run.add_argument("--first-seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    run.add_argument("--traced", action="store_true", help="also make the --trace 1 runs")
    run.add_argument("--label", default="latest", help="names the result file")
    cmp_ = commands.add_parser("compare", help="judge result file B against A")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_suite(args)
    return compare.main(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
