"""A calibration kernel: how fast is this machine *right now*?

The sandbox the benchmark runs in slows down and speeds up by a factor
of 1.5-2 in waves that last from a second to a minute (measured: the
same pure-Python loop takes 26 ms or 40 ms; a deterministic simulation
adopts 1 900 or 3 000 ops/s), and no steal time is accounted.  A run is
shorter than a wave, so medians over its rounds cannot remove it.  Each
round therefore times a fixed piece of work right before and right
after its measured region and reports host times as they would read on
a machine that does that work in exactly :data:`NOMINAL_S` -- the
ROADMAP's "kernel-normalised work".  Comparisons between two commits on
one machine are unaffected by the constant.  Over ten runs of each
workload this cut the spread of the saturating workloads' rates from
17-22% to 3-8%.

The waves only reach work that keeps a core busy: the paced workload
idles three quarters of the time and its drive phase reads nearly the
same in and out of a wave, so it is reported as measured
(``Workload.paced``); its set-up, a busy burst, is not.
"""

from __future__ import annotations

import marshal
import os
import time

#: One pass of :func:`kernel` on the machine the workloads were sized on, when quiet.
NOMINAL_S = 0.010
PASSES = 6


def kernel() -> int:
    """Fixed work shaped like the protocol's hot path.

    Dict and tuple churn (``core.sequences``), marshal round trips
    (``runtime.codec``) and a pipe write + read per step (the transport's
    syscalls), so that it slows down with the workloads whatever the
    host is short of.
    """
    reader, writer = os.pipe()
    try:
        index: dict = {}
        items: tuple = ()
        checksum = 0
        for step in range(3500):
            index = index.copy()
            index[step & 255] = None
            items = items[-63:] + (step,)
            frame = marshal.dumps(("s0.p1", [step, "c1-17", items[-4:]]))
            os.write(writer, frame)
            checksum += len(marshal.loads(os.read(reader, 4096))[1]) + len(index)
        return checksum
    finally:
        os.close(reader)
        os.close(writer)


def seconds_per_pass() -> float:
    """The fastest of :data:`PASSES` passes, now.

    The fastest, not the mean: a wave slows every pass down, while a
    blip of a few milliseconds (which a 2 s round averages away) would
    spoil a mean taken over 60 ms.
    """
    fastest = float("inf")
    for _ in range(PASSES):
        started = time.perf_counter()
        kernel()
        fastest = min(fastest, time.perf_counter() - started)
    return fastest


def speed(before_s: float, after_s: float) -> float:
    """Machine speed around a measured region, 1.0 = nominal, 0.5 = half as fast."""
    return NOMINAL_S / ((before_s + after_s) / 2)
