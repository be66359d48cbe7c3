"""Compare two result files of ``python -m benchmarks.e2e run``, row by row.

For every workload and end-to-end metric the second file's median may be
worse than the first's by at most the bound ``BENCHMARK.json`` fixes.  A
pairing whose run-to-run spread (inter-quartile distance over median,
in either file) is wider than its bound is *unresolved*, not unchanged.
Simulated-clock outcomes of the same workload and seed must be equal to
the last digit.  Any run that was incorrect or had failed operations is
a breach of its own.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Tuple

from benchmarks.e2e.metrics import EXACT, load_benchmark_json, spread

Runs = List[Dict[str, Any]]


def load(path: str) -> Runs:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def values_of(runs: Runs, workload: str, trace: int, metric: str) -> List[float]:
    return [
        run["metrics"][metric]
        for run in runs
        if run["workload"] == workload and run["trace"] == trace
    ]


def worsening(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is, as a share of ``before`` (negative = better)."""
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def compare(first: Runs, second: Runs) -> Tuple[List[str], List[str], List[str]]:
    """(table lines, regressions, unresolved) of ``second`` against ``first``."""
    spec = load_benchmark_json()
    lines: List[str] = []
    regressions: List[str] = []
    unresolved: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = values_of(first, workload, 0, name)
            b = values_of(second, workload, 0, name)
            if not a or not b:
                continue
            worse = worsening(statistics.median(a), statistics.median(b), metric["better"])
            widest = max(spread(a), spread(b))
            row = f"{workload}/{name}"
            if worse > bound:
                verdict = "REGRESSION"
                regressions.append(f"{row}: {worse:+.1%} worse, bound {bound:.0%}")
            elif name != "setup_s" and widest > bound:
                verdict = "unresolved"
                unresolved.append(f"{row}: spread {widest:.1%} over bound {bound:.0%}")
            else:
                verdict = "ok"
            lines.append(
                f"{row:<40} {statistics.median(a):>12.5g} -> {statistics.median(b):>12.5g} "
                f"{metric['unit']:<5} worse {worse:+7.1%}  spread {widest:6.1%}  "
                f"bound {bound:4.0%}  {verdict}"
            )
    regressions += _exact_mismatches(first, second) + _bad_runs(first) + _bad_runs(second)
    return lines, regressions, unresolved


def _exact_mismatches(first: Runs, second: Runs) -> List[str]:
    traced = {(r["workload"], r["seed"]): r for r in first if r["trace"] == 1}
    found = []
    for run in second:
        twin = traced.get((run["workload"], run["seed"])) if run["trace"] == 1 else None
        if twin is None or not run["workload"].startswith("sim_"):
            continue
        for name in EXACT:
            if run["metrics"][name] != twin["metrics"][name]:
                found.append(
                    f"{run['workload']}/{name} seed {run['seed']}: "
                    f"{twin['metrics'][name]!r} != {run['metrics'][name]!r} (simulated, exact)"
                )
    return found


def _bad_runs(runs: Runs) -> List[str]:
    return [
        f"{run['workload']} seed {run['seed']}: correct={run['correct']} failed={run['failed']}"
        for run in runs
        if not run["correct"] or run["failed"]
    ]


def main(first_path: str, second_path: str) -> int:
    lines, regressions, unresolved = compare(load(first_path), load(second_path))
    print("\n".join(lines))
    for title, found in (("unresolved", unresolved), ("regressions", regressions)):
        print(f"{title}: {len(found)}")
        for item in found:
            print(f"  {item}")
    return 1 if regressions else 0
