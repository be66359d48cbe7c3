"""Deterministic discrete-event simulation substrate.

This package provides the asynchronous-system model of the paper (Section 3):
processes that communicate by message passing over reliable FIFO channels,
with crash failures and (transient) partitions.  Everything is driven by a
deterministic event loop with a seeded random number generator, so every run
is reproducible bit-for-bit.

The main entry points are:

* :class:`~repro.sim.loop.Simulator` -- the event loop (clock, timers, RNG).
* :class:`~repro.sim.network.SimNetwork` -- reliable FIFO channels between
  registered processes, with latency models, partitions and crash injection.
* :class:`~repro.sim.process.Host` -- the process table and crash-stop
  rule both hosts (the network above, the TCP runtime) inherit.
* :class:`~repro.sim.process.Process` -- base class for protocol actors.
* :class:`~repro.sim.process.ProcessEnv` -- the narrow environment interface
  protocol cores are written against; its one implementation,
  :class:`~repro.sim.process.HostEnv`, serves the TCP runtime in
  :mod:`repro.runtime` too.
"""

from repro.sim.latency import (
    ConstantLatency,
    LanProfile,
    LatencyModel,
    NormalLatency,
    PerLinkLatency,
    UniformLatency,
)
from repro.sim.loop import Simulator, TimerHandle
from repro.sim.network import Envelope, SimNetwork
from repro.sim.process import Host, Process, ProcessEnv
from repro.sim.trace import TraceEvent, TraceLog

__all__ = [
    "ConstantLatency",
    "Envelope",
    "Host",
    "LanProfile",
    "LatencyModel",
    "NormalLatency",
    "PerLinkLatency",
    "Process",
    "ProcessEnv",
    "SimNetwork",
    "Simulator",
    "TimerHandle",
    "TraceEvent",
    "TraceLog",
    "UniformLatency",
]
