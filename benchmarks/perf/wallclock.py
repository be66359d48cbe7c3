"""The real backend's two same-run gates: the codec ratio and the stage cell.

* **Codec** -- ``codec_roundtrips_per_sec``: frames through
  encode+decode of a representative protocol mix, by the ``binary``
  codec and, as the same-run reference the gate divides by, by plain
  stdlib ``pickle`` of the same frames.  The ``wallclock`` section of
  ``BENCH_perf.json`` carries both and their ratio.
* **Stage cell** -- :func:`tcp_paced_run`: one OAR group over
  localhost TCP offered a third of its capacity with a full trace, read
  as the four stages of a write
  (:func:`repro.analysis.timeline.stage_latencies`).  Its two gates
  divide costs of that one run: :func:`order_wait_ratio` two medians,
  :func:`timer_lateness_ratio` the loop's mean timer lateness by the
  median first hop.  The runtime-smoke CI job runs them.

Every gate divides two costs measured in one run, so none needs a
reference machine.  What a change does to rates over real sockets is
judged parent against change on one machine by
``python -m benchmarks.e2e compare`` (see ``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Dict, List

from repro.analysis.timeline import StageLatencies, stage_latencies
from repro.broadcast.reliable import RMsg
from repro.core.messages import Reply, Request, SeqOrder
from repro.failure.detector import Heartbeat
from repro.runtime.codec import BinaryCodec
from repro.runtime.scenario import RuntimeScenarioConfig, RuntimeShardedRun, run_runtime_scenario
from repro.sharding.cluster import ShardedScenarioConfig
from repro.statemachine.base import OpResult

from benchmarks.perf.harness import median_pair

GROUP = ("p1", "p2", "p3")

_RMSG = RMsg(
    "p1:17",
    "c1",
    Request("c1:17", "c1", ("set", "k042", 1234)),
    GROUP,
)
_REPLY = Reply(
    "c1:17",
    OpResult(True, 1234),
    17,
    frozenset(GROUP),
    0,
    conservative=False,
    slot=17,
)

#: The codec micro's message mix, weighted by what one failure-free OAR
#: round actually puts on the wire with a 3-replica group: the
#: R-multicast request frame fans out to each replica, each replica
#: answers with its own reply frame, the sequencer emits one ordering
#: message, and the failure detectors tick heartbeats throughout.
PROTOCOL_MIX: List[Any] = [
    _RMSG,
    _RMSG,
    _RMSG,
    _REPLY,
    _REPLY,
    _REPLY,
    SeqOrder(0, ("c1:15", "c2:16", "c1:17"), start=15),
    Heartbeat(17),
    Heartbeat(18),
]


class _PickleReference:
    """Whole-frame stdlib pickle: what the codec ratio is measured against."""

    @staticmethod
    def encode_frame(src: str, payload: Any) -> bytes:
        return pickle.dumps((src, payload), protocol=pickle.HIGHEST_PROTOCOL)

    decode_frame = staticmethod(pickle.loads)


def _codec_trial(codec: Any, n: int) -> float:
    """One timed pass of ``n`` x mix frames; returns frames per CPU second."""
    encode, decode = codec.encode_frame, codec.decode_frame
    mix = PROTOCOL_MIX
    start = time.process_time()
    for _ in range(n):
        for message in mix:
            decode(encode("p1", message))
    return n * len(mix) / (time.process_time() - start)


def _codec_check(codec: Any) -> None:
    """The codec must be lossless on the mix (repr fidelity is what the
    trace digests hang off)."""
    for message in PROTOCOL_MIX:
        src, out = codec.decode_frame(codec.encode_frame("p1", message))
        assert src == "p1" and repr(out) == repr(message)


def codec_rates(n: int) -> Dict[str, float]:
    """Both codec cells, measured as *interleaved* paired trials.

    Timing binary in one block and pickle in another lets CPU-state
    drift (frequency scaling, cache warmth) between the blocks move the
    reported ratio by tens of percent; alternating the trials gives both
    the same conditions (:func:`~benchmarks.perf.harness.median_pair`),
    so the binary/pickle ratio the perf gate holds is stable across
    runs."""
    for codec in (BinaryCodec, _PickleReference):
        _codec_check(codec)
        _codec_trial(codec, max(1, n // 10))  # warmup
    binary, reference = median_pair(
        lambda: _codec_trial(BinaryCodec, n), lambda: _codec_trial(_PickleReference, n)
    )
    return {"binary": binary, "pickle": reference}


#: Ceiling of :func:`order_wait_ratio` in the runtime-smoke job.  The
#: sequencer orders when the loop has drained its input, so a lone
#: write waits for Task 1a about as long as its request took to arrive
#: (~1); behind a 2 ms ordering tick the same cell reads ~6.5.
ORDER_WAIT_CEILING = 3.0

#: Ceiling of :func:`timer_lateness_ratio` in the runtime-smoke job.  The
#: loop waits in ``select`` to the microsecond, so a paced run's timers
#: fire 0.75-1.65 first hops late on average (22 runs, in both of
#: a shared 2-core container's speed states); waiting in ``epoll.poll``,
#: which rounds its timeout up to a whole millisecond, the same cell
#: reads 3.7-6.8 (eleven runs).
TIMER_LATENESS_CEILING = 2.5


def tcp_paced_run(requests_per_client: int) -> RuntimeShardedRun:
    """Where a write's time goes when nothing queues: one group of 3
    replicas, 4 open-loop clients writing kv keys at 4 x 50 ops/s (2 per
    unit x ``time_scale`` 0.04), turn-boundary flush, full trace,
    checked; ``stage_latencies(run.view.trace)`` is its stage table."""
    run = run_runtime_scenario(
        RuntimeScenarioConfig(
            scenario=ShardedScenarioConfig(
                seed=0,
                n_shards=1,
                n_servers=3,
                n_clients=4,
                requests_per_client=requests_per_client,
                machine="kv",
                workload="uniform",
                n_keys=64,
                driver="open",
                open_rate=2.0,
                trace_level="full",
            ),
            backend="tcp",
        )
    )
    assert run.completed, "the paced run did not reach quiescence"
    run.check_all()
    return run


def order_wait_ratio(stages: StageLatencies) -> float:
    """Median R-deliver@sequencer -> ``seq_order`` over median submit ->
    R-deliver@sequencer: the wait for Task 1a in units of one hop."""
    first_hop, order_wait = stages.medians()[:2]
    return order_wait / first_hop


def timer_lateness_ratio(run: RuntimeShardedRun) -> float:
    """Mean lateness of the run's fired timers (``timer_late_us`` over
    ``timers_fired``) over its median submit -> R-deliver@sequencer:
    what the loop oversleeps a due time, in units of one hop."""
    stats = run.transport_stats()
    mean_late = stats["timer_late_us"] / 1e6 / stats["timers_fired"]
    return mean_late / stage_latencies(run.view.trace).medians()[0]


# ----------------------------------------------------------------------
# Section driver
# ----------------------------------------------------------------------

def run_wallclock(quick: bool = False) -> Dict[str, Any]:
    """Measure the codec cell; returns the ``wallclock`` section."""
    codec_n = 1_300 if quick else 4_000  # x len(mix) frames per trial
    codec = {name: round(rate, 1) for name, rate in codec_rates(codec_n).items()}
    return {
        "codec_roundtrips_per_sec": codec,
        "ratios": {
            "codec_binary_vs_pickle": round(codec["binary"] / codec["pickle"], 2),
        },
    }


def format_wallclock(section: Dict[str, Any]) -> str:
    """Human-readable rendering of the wallclock section."""
    codec = section["codec_roundtrips_per_sec"]
    return (
        f"codec round trips per CPU second: binary {codec['binary']:,.0f} / "
        f"pickle {codec['pickle']:,.0f} = "
        f"{section['ratios']['codec_binary_vs_pickle']:.2f}"
    )
