"""Run the perf suite and write ``BENCH_perf.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py            # full suite
    PYTHONPATH=src python benchmarks/perf/run_perf.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/perf/run_perf.py --quick \
        --check-against BENCH_perf.json                          # CI gate

The CI gate fails when the kernel's same-instant fast lane stops
paying: the ``kernel_dispatch`` cascade through the ``Simulator`` must
run at least ``KERNEL_MIN_RATIO`` times as fast as the same cascade
through the heap-only ``ReferenceLoop``, both measured in turns in this
run, so the machine cancels.  The gate also verifies the fixed-seed
determinism digest.

The B10 sharded wall-clock is gated too, so a regression in the
sharding layer (router/client/2PC/migration plumbing) is caught even
when the kernel itself is fine.  Wall-clocks are machine-dependent, so
the gate compares *kernel-normalized work*: ``b10_wallclock x
kernel_events_per_sec`` measured in the same run, against the same
product from the committed file's same-shape reference (``results`` in
full mode, ``quick_reference`` in quick mode) -- a slow CI box scales
both factors' machine term away, while B10 getting slower *relative to
the kernel* beyond ``B10_TOLERANCE`` fails.

The real-backend ``wallclock`` section is gated on its *same-run
ratio* -- binary codec >= ``CODEC_MIN_RATIO`` x stdlib pickle on the
protocol mix -- plus a kernel-normalized regression tolerance on the
TCP OAR cell, which is the transport's regression gate (see
``docs/BENCHMARKS.md``).

``history_scaling`` is gated on its same-run ratio too: the last
quarter of one long write run must keep at least ``HISTORY_MIN_RATIO``
of the first quarter's adopted ops per host second, in quick and in
full mode alike -- per-request ordering bookkeeping that grows with the
run length fails it on any machine.

``checker_scaling`` is the same kind of gate for the checker bundle:
``check_all()`` on a full-trace run with four times the requests may
take at most ``CHECKER_MAX_RATIO`` times as long as on the 1x run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)

from benchmarks.perf.harness import (  # noqa: E402
    GOLDEN_DIGEST,
    best_history_scaling,
    checker_scaling,
    format_table,
    kernel_vs_reference,
    run_suite,
    write_payload,
)

#: The same-instant cascade must run at least this many times as fast
#: on the ``Simulator`` as on the heap-only ``ReferenceLoop``.  A
#: same-run ratio: the fast lane measures 1.18-1.34 while the machine
#: is in its slow state and 1.23-1.40 in its fast one (eight runs each,
#: quick and full shapes alike); with ``call_soon`` pushed through the
#: heap instead it measures 0.81-0.89 (seven runs).
KERNEL_MIN_RATIO = 1.05

#: Tolerance for the replica-local read-path gate.  Like the B10 gate it
#: compares kernel-normalized work (read rate / kernel rate) so a slow
#: CI box cancels out; only the read fast lane getting slower relative
#: to the kernel trips it.
READ_TOLERANCE = 0.50

#: Tolerance for the execution-engine gate (kernel-normalized like the
#: read gate): only the conflict scheduler getting slower relative to
#: the kernel trips it.
EXEC_TOLERANCE = 0.50

#: Tolerance for the B10 sharded wall-clock gate.  Wall-clocks carry
#: cross-process systematic skew the rate micros do not (CPython's
#: adaptive specialization warms differently depending on what ran
#: before), so the gate is looser: it exists to catch *structural*
#: sharding-layer regressions (an accidental O(n^2) drain, a lost fast
#: path), which overshoot this margin by far.
B10_TOLERANCE = 0.60

#: The binary codec must beat pickle by at least this factor on the
#: protocol-mix micro.  Same-run ratio, so machine speed cancels; the
#: measured margin is ~3.3-3.5x and one interleaved re-measure absorbs
#: scheduler noise before the gate fails.
CODEC_MIN_RATIO = 3.0

#: Tolerance for the kernel-normalized regression check on the TCP OAR
#: cell -- as loose as the B10 gate and for the same reason:
#: real-socket wall-clocks are the noisiest numbers in the suite, and
#: this check exists to catch structural transport regressions.
WALLCLOCK_TOLERANCE = 0.60

#: The last quarter of the history-scaling run must adopt at least this
#: fraction of the first quarter's ops per host second.  A same-run
#: ratio: history-independent bookkeeping measures 0.90-1.08 at 3 000
#: writes and 0.96-1.01 at 8 000; a full copy of O_delivered per
#: Opt-delivery measured 0.37-0.41 and 0.15-0.18.
HISTORY_MIN_RATIO = 0.75

#: ``check_all()`` at 4x the requests may cost at most this many times
#: the 1x run.  A same-run ratio: the linear bundle measures 2.7-3.4 on
#: the quick shape (fixed per-run work keeps it under 4) and 4.0-4.5 on
#: the full one (the larger trace misses the cache more), six runs
#: each; the pairwise majority-guarantee sweep measured 53-54 on the
#: quick shape.
CHECKER_MAX_RATIO = 6.0


def _b10_reference(payload: dict, committed: dict) -> dict:
    """The committed same-shape B10 reference for this run's mode."""
    if payload["mode"] == "full":
        return committed.get("results", {})
    return committed.get("quick_reference", {})


def check_against(payload: dict, committed_path: str) -> int:
    """Gate: the same-run ratios (kernel fast lane, codec, history and
    checker scaling), the kernel-normalized B10, read-path, execution
    engine and TCP OAR cells, determinism digest."""
    with open(committed_path) as handle:
        committed = json.load(handle)
    measured = payload["results"]["kernel_events_per_sec"]
    failures = []
    notes = []

    # Kernel fast lane: a same-run ratio, so no committed reference is
    # involved.  One re-measure before failing, as for the other ratios.
    kernel_ratio = payload["kernel_vs_reference"]["ratio"]
    if kernel_ratio < KERNEL_MIN_RATIO:
        retry = kernel_vs_reference(payload["mode"] == "quick")
        kernel_ratio = max(kernel_ratio, retry["ratio"])
    if kernel_ratio < KERNEL_MIN_RATIO:
        failures.append(
            f"kernel fast lane lost its margin: the same-instant cascade "
            f"runs {kernel_ratio:.2f}x the heap-only reference loop, below "
            f"the {KERNEL_MIN_RATIO:.2f}x floor"
        )
    else:
        notes.append(f"kernel fast lane {kernel_ratio:.2f}x >= {KERNEL_MIN_RATIO:.2f}x")

    # B10 sharded wall-clock, normalized by the same run's kernel rate
    # so a uniformly slower machine cancels out and only the sharding
    # layer getting slower relative to the kernel trips the gate.
    reference = _b10_reference(payload, committed)
    if "b10_wallclock_sec" in reference and "kernel_events_per_sec" in reference:
        measured_work = payload["results"]["b10_wallclock_sec"] * measured
        reference_work = (
            reference["b10_wallclock_sec"] * reference["kernel_events_per_sec"]
        )
        ceiling = reference_work * (1.0 + B10_TOLERANCE)
        if measured_work > ceiling:
            failures.append(
                f"B10 sharded wall-clock regressed: "
                f"{measured_work:,.0f} kernel-equivalent events exceed "
                f"{ceiling:,.0f} ({100 * (1 + B10_TOLERANCE):.0f}% of the "
                f"committed {reference_work:,.0f})"
            )
        else:
            notes.append(
                f"b10 {measured_work:,.0f} <= {ceiling:,.0f} kernel-equiv"
            )
    else:
        notes.append("b10 gate skipped (no same-shape reference committed)")

    # Replica-local read path, normalized the same way.  Rates are
    # cross-mode comparable, so the committed full-mode figure is the
    # reference for quick runs too.
    committed_read = committed.get("results", {}).get("read_ops_per_sec")
    committed_kernel = committed.get("results", {}).get("kernel_events_per_sec")
    if committed_read and committed_kernel:
        measured_ratio = payload["results"]["read_ops_per_sec"] / measured
        reference_ratio = committed_read / committed_kernel
        floor_ratio = reference_ratio * (1.0 - READ_TOLERANCE)
        if measured_ratio < floor_ratio:
            failures.append(
                f"read path regressed: {measured_ratio:.6f} reads per kernel "
                f"event is below {floor_ratio:.6f} "
                f"({100 * (1 - READ_TOLERANCE):.0f}% of the committed "
                f"{reference_ratio:.6f})"
            )
        else:
            notes.append(
                f"read path {measured_ratio:.6f} >= {floor_ratio:.6f} "
                f"reads/kernel-event"
            )
    else:
        notes.append("read gate skipped (no committed read_ops_per_sec)")

    # Execution engine (conflict-scheduled lanes), normalized the same
    # way.
    committed_exec = committed.get("results", {}).get("exec_ops_per_sec")
    if committed_exec and committed_kernel:
        measured_ratio = payload["results"]["exec_ops_per_sec"] / measured
        reference_ratio = committed_exec / committed_kernel
        floor_ratio = reference_ratio * (1.0 - EXEC_TOLERANCE)
        if measured_ratio < floor_ratio:
            failures.append(
                f"execution engine regressed: {measured_ratio:.6f} ops per "
                f"kernel event is below {floor_ratio:.6f} "
                f"({100 * (1 - EXEC_TOLERANCE):.0f}% of the committed "
                f"{reference_ratio:.6f})"
            )
        else:
            notes.append(
                f"exec engine {measured_ratio:.6f} >= {floor_ratio:.6f} "
                f"ops/kernel-event"
            )
    else:
        notes.append("exec gate skipped (no committed exec_ops_per_sec)")

    # Wall-clock section: the same-run codec ratio floor (machine-
    # independent) plus a kernel-normalized regression check on the TCP
    # OAR cell.
    wallclock = payload.get("wallclock")
    if wallclock:
        codec_ratio = wallclock["ratios"]["codec_binary_vs_pickle"]
        if codec_ratio < CODEC_MIN_RATIO:
            # One interleaved re-measure before failing: a loaded CI
            # neighbour can shave a run's ratio; a real codec regression
            # shaves every run's.
            from benchmarks.perf.wallclock import codec_rates

            rates = codec_rates(4_000)
            codec_ratio = max(codec_ratio, rates["binary"] / rates["pickle"])
        if codec_ratio < CODEC_MIN_RATIO:
            failures.append(
                f"binary codec lost its margin: {codec_ratio:.2f}x over "
                f"pickle is below the {CODEC_MIN_RATIO:.0f}x floor"
            )
        else:
            notes.append(f"codec {codec_ratio:.2f}x >= {CODEC_MIN_RATIO:.0f}x")

        committed_oar = (
            committed.get("wallclock", {})
            .get("tcp_oar_ops_per_sec", {})
            .get("binary")
        )
        if committed_oar and committed_kernel:
            measured_ratio = wallclock["tcp_oar_ops_per_sec"]["binary"] / measured
            reference_ratio = committed_oar / committed_kernel
            floor_ratio = reference_ratio * (1.0 - WALLCLOCK_TOLERANCE)
            if measured_ratio < floor_ratio:
                failures.append(
                    f"TCP OAR wall-clock regressed: {measured_ratio:.6f} ops "
                    f"per kernel event is below {floor_ratio:.6f} "
                    f"({100 * (1 - WALLCLOCK_TOLERANCE):.0f}% of the "
                    f"committed {reference_ratio:.6f})"
                )
            else:
                notes.append(
                    f"tcp oar {measured_ratio:.6f} >= {floor_ratio:.6f} "
                    f"ops/kernel-event"
                )
        else:
            notes.append(
                "tcp oar regression check skipped (no committed wallclock)"
            )
    else:
        notes.append("wallclock gates skipped (suite ran without wallclock)")

    # History scaling: a same-run ratio, so no committed reference is
    # involved.  One re-measure before failing, as for the other ratios.
    history_ratio = payload["history_scaling"]["ratio"]
    if history_ratio < HISTORY_MIN_RATIO:
        retry = best_history_scaling(payload["mode"] == "quick", repeats=2)
        history_ratio = max(history_ratio, retry["ratio"])
    if history_ratio < HISTORY_MIN_RATIO:
        failures.append(
            f"per-request cost grows with history: the last quarter of the "
            f"write run adopts {history_ratio:.2f}x the first quarter's "
            f"ops/s, below the {HISTORY_MIN_RATIO:.2f} floor"
        )
    else:
        notes.append(f"history q4/q1 {history_ratio:.2f} >= {HISTORY_MIN_RATIO:.2f}")

    # Checker scaling: a same-run ratio too, same one-retry policy.
    checker_ratio = payload["checker_scaling"]["ratio"]
    if checker_ratio > CHECKER_MAX_RATIO:
        retry = checker_scaling(payload["mode"] == "quick")
        checker_ratio = min(checker_ratio, retry["ratio"])
    if checker_ratio > CHECKER_MAX_RATIO:
        failures.append(
            f"checker bundle is superlinear: check_all() on 4x the requests "
            f"costs {checker_ratio:.1f}x the 1x run, above the "
            f"{CHECKER_MAX_RATIO:.0f}x ceiling (linear is 4)"
        )
    else:
        notes.append(f"check_all 4x/1x {checker_ratio:.1f} <= {CHECKER_MAX_RATIO:.0f}")

    expected_digest = committed.get("golden_digest", GOLDEN_DIGEST)
    if payload["golden_digest"] != expected_digest:
        failures.append(
            "determinism broken: fixed-seed scenario digest "
            f"{payload['golden_digest']} != committed {expected_digest}"
        )
    if failures:
        for failure in failures:
            print(f"PERF GATE FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"perf gate ok: {'; '.join(notes)}; digest matches")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller workloads (CI smoke)"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="best-of-N repeats per benchmark"
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON payload (default: BENCH_perf.json at the "
        "repo root in full mode, BENCH_perf_quick.json in quick mode)",
    )
    parser.add_argument(
        "--check-against",
        metavar="FILE",
        default=None,
        help="fail (exit 1) if a same-run ratio misses its floor, a "
        "kernel-normalized cell regresses against FILE, or the determinism "
        "digest drifts",
    )
    args = parser.parse_args(argv)

    payload = run_suite(quick=args.quick, repeats=args.repeats)
    print(format_table(payload))

    output = args.output
    if output is None:
        name = "BENCH_perf_quick.json" if args.quick else "BENCH_perf.json"
        output = os.path.join(REPO_ROOT, name)
    write_payload(payload, output)
    print(f"\nwrote {output}")

    if args.check_against is not None:
        return check_against(payload, args.check_against)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
