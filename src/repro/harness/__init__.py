"""Experiment harness: scenario builder, runner, and table formatting.

:func:`~repro.harness.scenario.run_scenario` assembles a full simulated
deployment (servers, clients, failure detectors, workload drivers, fault
schedule) from a declarative scenario config --
:func:`~repro.harness.scenario.ScenarioConfig` for one replication
group, :class:`~repro.sharding.cluster.ShardedScenarioConfig` for N --
runs it to quiescence, and returns a
:class:`~repro.sharding.cluster.ShardedRun` exposing the trace, the
protocol objects and one-call access to every correctness checker.  All
benchmarks, integration tests and examples are built on it.
"""

from repro.harness.scenario import (
    ScenarioConfig,
    build_scenario,
    run_scenario,
)
from repro.harness.tables import Table, write_result
from repro.sharding import (
    ShardedRun,
    ShardedScenarioConfig,
    build_sharded_scenario,
    run_sharded_scenario,
)

__all__ = [
    "ScenarioConfig",
    "ShardedRun",
    "ShardedScenarioConfig",
    "Table",
    "build_scenario",
    "build_sharded_scenario",
    "run_scenario",
    "run_sharded_scenario",
    "write_result",
]
