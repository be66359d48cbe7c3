"""Sharded (partitioned) optimistic active replication.

One OAR group totally orders everything through a single sequencer; this
package multiplies that pipeline.  A deterministic
:class:`~repro.sharding.router.ShardRouter` maps every key to one of N
independent replication groups (each a complete OAR deployment with its
own sequencer, replicas, epochs and undo log), the sharded client
(:class:`~repro.core.client.ShardedOARClient`) fans requests out by key,
and multi-key operations that straddle groups run a client-coordinated
two-phase escrow commit whose branches are ordinary totally-ordered
requests -- no new consensus machinery.

Routing is **epoch-versioned** (:class:`~repro.sharding.router.
RoutingTable`) so placement can change while the cluster serves traffic:
:class:`~repro.sharding.rebalance.RebalanceCoordinator` migrates hot
keys between groups as escrow-style migration transactions whose steps
are ordinary totally-ordered requests, with WrongShard redirect/retry on
the clients and crash recovery for the coordinator itself.

Entry points, for one group (``n_shards=1``, see
:func:`~repro.harness.scenario.ScenarioConfig`) or N:
:func:`~repro.sharding.cluster.run_sharded_scenario` builds and runs a
full deployment from a declarative
:class:`~repro.sharding.cluster.ShardedScenarioConfig`;
:func:`~repro.sharding.rebalance.attach_rebalancer` adds live
rebalancing to a built run.
"""

from repro.sharding.cluster import (
    ShardedRun,
    ShardedScenarioConfig,
    build_sharded_scenario,
    run_sharded_scenario,
)
from repro.sharding.rebalance import (
    MigrationRecord,
    RebalanceCoordinator,
    attach_rebalancer,
)
from repro.sharding.router import (
    HashShardRouter,
    RangeShardRouter,
    RoutingTable,
    ShardRouter,
    make_router,
)

__all__ = [
    "HashShardRouter",
    "MigrationRecord",
    "RangeShardRouter",
    "RebalanceCoordinator",
    "RoutingTable",
    "ShardRouter",
    "ShardedRun",
    "ShardedScenarioConfig",
    "attach_rebalancer",
    "build_sharded_scenario",
    "make_router",
    "run_sharded_scenario",
]
