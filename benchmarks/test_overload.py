"""Experiment B16: goodput + latency percentiles vs offered load, with
and without admission control (graceful degradation past saturation).

Every benchmark before this one runs closed-loop or mildly open-loop:
the system has never been pushed *past* its service rate.  B16 uses the
overload harness (``repro.workload.openloop``) to sweep a sessioned
Poisson arrival process from half saturation to 3x saturation against a
sequencer with ``order_cost = 0.5`` (2 ops/unit of ordering capacity)
and a bounded admission queue (``admission_limit = 16``).

What graceful degradation must look like (the ISSUE 8 acceptance):

* **Goodput plateaus** at the service ceiling instead of collapsing --
  offered load beyond capacity is shed deterministically, not queued
  into a metastable backlog that starves everything.
* **p99 latency of *admitted* ops stays bounded** by the queue: an
  admitted request waits behind at most ``admission_limit`` others at
  ``order_cost`` each, plus fixed delivery hops.  The contrast cell
  (same 2x offered load, admission off) shows the alternative: the
  unbounded queue grows for the whole run and p99 grows with it.
* **The conservation law is exact in every cell** --
  ``offered == admitted + shed + throttled`` at quiescence, asserted by
  ``check_admission_accounting`` inside the full checker bundle.

Latency percentiles come from the driver's streaming
:class:`~repro.workload.openloop.LatencyRecorder` with the warm-up rule
(ops submitted before ``measure_from`` are excluded), per the
methodology in docs/BENCHMARKS.md.
"""

import pytest

from repro.core.server import OARConfig
from repro.harness import Table, write_result
from repro.harness.scenario import ScenarioConfig, run_scenario

pytestmark = pytest.mark.bench

ORDER_COST = 0.5  #: sequencer service time/op => capacity 2 ops/unit
LIMIT = 16  #: admission queue bound (writes)
RATES = [1.0, 2.0, 4.0, 6.0]  #: offered load: 0.5x, 1x, 2x, 3x capacity
REQUESTS = 400  #: offered arrivals per cell
WARMUP = 20.0  #: measure_from: percentile warm-up window
SEED = 42
#: Queueing bound for an admitted op: a full admission queue of service
#: times, plus a generous constant for delivery hops + adoption quorum.
P99_BOUND = LIMIT * ORDER_COST + 12.0


def run_cell(rate: float, limit, seed: int = SEED):
    """One overload cell: sessioned Poisson arrivals at ``rate``/unit."""
    config = ScenarioConfig(
        seed=seed,
        driver="session",
        requests_per_client=REQUESTS,
        open_rate=rate,
        n_sessions=50,
        measure_from=WARMUP,
        oar=OARConfig(order_cost=ORDER_COST, admission_limit=limit),
        horizon=50_000.0,
        grace=100.0,
    )
    run = run_scenario(config)
    assert run.all_done()
    run.check_all()
    return run


def goodput(run) -> float:
    """Admitted adoptions per unit time over the p10-p90 adoption window.

    Shed outcomes (position -1) are refusals, not service; only really
    ordered-and-adopted ops count.  The interquantile window keeps the
    metric about the sustained rate (B14's rule).
    """
    times = sorted(
        record.adopt_time
        for client in run.clients
        for record in client.adopted.values()
        if record.position >= 0
    )
    n = len(times)
    lo, hi = times[n // 10], times[(9 * n) // 10]
    return (0.8 * n) / (hi - lo) if hi > lo else 0.0


class TestB16Overload:
    def test_goodput_plateaus_and_p99_stays_bounded(self):
        table = Table(
            f"B16  overload sweep -- order_cost={ORDER_COST} (capacity 2/unit), "
            f"admission_limit={LIMIT}, sessioned Poisson arrivals",
            ["offered/unit", "goodput", "admitted", "shed", "p50", "p99", "p999"],
        )
        curve = {}
        for rate in RATES:
            run = run_cell(rate, LIMIT)
            driver = run.drivers[0]
            # Conservation, exact (also asserted inside check_all).
            assert driver.offered == driver.admitted + driver.shed + driver.throttled
            assert driver.offered == REQUESTS
            curve[rate] = goodput(run)
            rec = driver.recorder
            table.add_row(
                rate, curve[rate], driver.admitted, driver.shed,
                rec.p50, rec.p99, rec.p999,
            )
            if rate >= 2.0 * (1.0 / ORDER_COST):
                # At and past 2x saturation: bounded p99 for admitted
                # ops -- the admission queue, not the offered load, sets
                # the wait.
                assert rec.p99 <= P99_BOUND, (
                    f"admitted p99 {rec.p99:.1f} exceeds the queue bound "
                    f"{P99_BOUND} at {rate} offered/unit"
                )
                # Past saturation the excess is shed, not queued.
                assert driver.shed > 0
        write_result("B16_overload", table.render())

        # Below saturation nothing is shed and goodput tracks offered.
        assert curve[1.0] > 0.8
        # The plateau: goodput holds (within 20%) from 1x through 3x
        # offered -- graceful degradation, no metastable collapse.
        assert curve[4.0] >= 0.8 * curve[2.0], f"collapse at 2x: {curve}"
        assert curve[6.0] >= 0.8 * curve[4.0], f"collapse at 3x: {curve}"

    def test_no_admission_contrast_unbounded_queue_unbounded_p99(self):
        # The same 2x-saturation offered load with the admission plane
        # off: every arrival queues, the backlog grows for the whole
        # run, and p99 grows with run length instead of the queue bound.
        bounded = run_cell(4.0, LIMIT)
        unbounded = run_cell(4.0, None)
        p99_bounded = bounded.drivers[0].recorder.p99
        p99_unbounded = unbounded.drivers[0].recorder.p99
        assert unbounded.drivers[0].shed == 0
        assert p99_unbounded >= 3.0 * p99_bounded, (
            f"expected the unbounded queue to blow up p99: "
            f"bounded={p99_bounded:.1f} unbounded={p99_unbounded:.1f}"
        )
        assert p99_bounded <= P99_BOUND
