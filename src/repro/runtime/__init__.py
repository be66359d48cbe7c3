"""Wall-clock runtime: the same protocol code on real time and real sockets.

The deterministic simulator answers every correctness question; this
runtime answers the "does it actually run as a networked program"
question and carries the wall-clock throughput story (benchmark B8 and
the TCP workloads of ``python -m benchmarks.e2e compare``).  It has one
host, :class:`~repro.runtime.tcp.TcpCluster`: every process served on a
real localhost TCP socket, on one ``select.epoll`` loop the cluster owns
(Linux only).  Frames are length-prefixed bodies from the
compact tagged binary codec (:mod:`repro.runtime.codec`).  Sends
coalesce into per-connection buffers; see the module docs for the flush
and reconnect rules.

Each process sees the cluster through the simulator's own
:class:`~repro.sim.process.HostEnv` (the cluster's clock, its loop's
timers, ``send``/``defer``), and the processes are the **same**
:class:`~repro.sim.process.Process` subclasses as the simulator's -- the
protocol code has no idea which world it lives in.  Full sharded
scenarios (router, sharded clients, replica-local reads) run over
sockets through :func:`~repro.runtime.scenario.run_runtime_scenario`,
which places the deployment with the simulator's own builder
(:func:`~repro.sharding.cluster.place_sharded_scenario`) and returns a
genuine :class:`~repro.sharding.cluster.ShardedRun` view, so the entire
``check_all`` checker bundle applies to wall-clock runs unchanged.
"""

from repro.runtime.codec import WIRE_TAGS, BinaryCodec, registered_types
from repro.runtime.scenario import (
    RuntimeScenarioConfig,
    RuntimeShardedRun,
    run_runtime_scenario,
)
from repro.runtime.tcp import TcpCluster

__all__ = [
    "BinaryCodec",
    "RuntimeScenarioConfig",
    "RuntimeShardedRun",
    "TcpCluster",
    "WIRE_TAGS",
    "registered_types",
    "run_runtime_scenario",
]
