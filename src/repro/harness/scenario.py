"""One replication group: the paper's service as a one-shard scenario.

:func:`ScenarioConfig` describes it -- a
:class:`~repro.sharding.cluster.ShardedScenarioConfig` with ``n_shards=1``
and the single-group defaults below -- and :func:`build_scenario` /
:func:`run_scenario` are the sharded builder and runner themselves: one
config type, one builder and one run class
(:class:`~repro.sharding.cluster.ShardedRun`) for one group or N.
"""

from __future__ import annotations

from typing import Any

from repro.sharding.cluster import ShardedScenarioConfig
from repro.sharding.cluster import build_sharded_scenario as build_scenario
from repro.sharding.cluster import run_sharded_scenario as run_scenario

__all__ = ["ScenarioConfig", "build_scenario", "run_scenario"]

#: Where one group's scenario differs from the sharded defaults.
SINGLE_GROUP_DEFAULTS = dict(
    n_shards=1,
    n_clients=1,
    machine="counter",
    n_keys=16,
    horizon=10_000.0,
    max_events=2_000_000,
)


def ScenarioConfig(**fields: Any) -> ShardedScenarioConfig:
    """One replication group: ``fields`` over the single-group defaults.

    Unless ``fields`` names a workload, the group runs the single-group
    mix (``workload="single"``: kv sets, compare-and-sets and gets over
    keys ``a``-``d``; bank transfers, deposits, withdrawals and balances
    over ``alice``/``bob``/``carol``).  A kv group given a
    ``read_ratio`` runs the Zipf-skewed ``"readheavy"`` mix over
    ``n_keys`` keys instead; a bank group ignores ``read_ratio``.
    """
    config = {**SINGLE_GROUP_DEFAULTS, **fields}
    read_ratio = config.pop("read_ratio", None)
    if read_ratio is not None:
        config["read_ratio"] = read_ratio
    if "workload" not in config:
        reads = config["machine"] == "kv" and read_ratio is not None
        config["workload"] = "readheavy" if reads else "single"
    return ShardedScenarioConfig(**config)
