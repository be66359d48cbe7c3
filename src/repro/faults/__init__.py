"""Fault-injection scripting for scenario-exact and randomized runs.

* :class:`~repro.faults.injection.CrashDuringMulticast` -- the surgical
  tool behind Figures 1(b), 3 and 4: crash a process *while* it multicasts
  a particular message so that only a chosen subset of destinations
  receives it.
* :class:`~repro.faults.injection.FaultSchedule` -- a scenario's one fault
  description: standing link rules and timed crash/partition/... actions.
* :func:`~repro.faults.injection.random_fault_schedule` -- seeded random
  schedules for soak and property testing.
"""

from repro.faults.injection import (
    CrashDuringMulticast,
    FaultAction,
    FaultSchedule,
    random_fault_schedule,
)

__all__ = [
    "CrashDuringMulticast",
    "FaultAction",
    "FaultSchedule",
    "random_fault_schedule",
]
