"""Failure detection (the ◇S oracle of the paper's system model).

The paper assumes an asynchronous system augmented with the failure
detector ◇S [CT96], which provides:

* **Strong completeness** -- every crashed process is eventually suspected
  by every correct process.
* **Eventual weak accuracy** -- eventually some correct process is never
  suspected by any correct process.

:class:`~repro.failure.detector.HeartbeatFailureDetector` realizes these
properties in the simulated (and TCP) network through periodic
heartbeats with an adaptively increasing timeout.
:class:`~repro.failure.detector.ScriptedFailureDetector` gives experiments
byte-exact control over *when* suspicions happen, which is how the
figure-exact scenario reproductions trigger phase 2 at precise instants.
"""

from repro.failure.detector import (
    FailureDetector,
    Heartbeat,
    HeartbeatFailureDetector,
    ScriptedFailureDetector,
)

__all__ = [
    "FailureDetector",
    "Heartbeat",
    "HeartbeatFailureDetector",
    "ScriptedFailureDetector",
]
