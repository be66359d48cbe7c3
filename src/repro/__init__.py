"""repro -- a reproduction of "Optimistic Active Replication"
(Felber & Schiper, ICDCS 2001).

The package implements the OAR protocol and every substrate it depends on,
entirely in Python:

* :mod:`repro.core` -- the OAR client/server and the Cnsv-order
  conservative ordering (the paper's contribution, Figures 5-7).
* :mod:`repro.sim` -- a deterministic discrete-event simulator providing
  the asynchronous system model (reliable FIFO channels, crashes,
  partitions).
* :mod:`repro.failure` -- ◇S-style failure detectors.
* :mod:`repro.broadcast` -- reliable multicast, plus the two Atomic
  Broadcast baselines the paper positions itself against (sequencer-based
  and consensus-based).
* :mod:`repro.consensus` -- Chandra-Toueg ◇S consensus with the
  Maj-validity modification.
* :mod:`repro.statemachine` -- deterministic, undoable replicated state
  machines (stack, key-value store, counter, bank).
* :mod:`repro.replication` -- classic active and passive replication
  baselines.
* :mod:`repro.sharding` -- partitioned state machines: N independent OAR
  groups behind a deterministic key router, with a client-coordinated
  two-phase escrow commit for cross-shard operations.
* :mod:`repro.analysis` -- trace checkers for the paper's propositions.
* :mod:`repro.workload`, :mod:`repro.harness` -- workload generation and
  the experiment harness behind every benchmark.
* :mod:`repro.runtime` -- a TCP host for the same protocol code
  (wall-clock measurements).

Quickstart::

    from repro import ScenarioConfig, run_scenario

    run = run_scenario(ScenarioConfig(protocol="oar", n_servers=3,
                                      n_clients=2, requests_per_client=10))
    run.check_all()                  # assert the paper's guarantees
    print(run.latencies())           # client-perceived latencies

``ScenarioConfig`` is one replication group -- the paper's service --
as a ``ShardedScenarioConfig`` with ``n_shards=1``; every scenario, one
group or N, is built by the same builder into the same ``ShardedRun``.
"""

from repro.core import (
    AdoptedReply,
    MessageSequence,
    OARClient,
    OARConfig,
    OARServer,
    ShardedOARClient,
    common_prefix,
    compute_bad_new,
    merge_dedup,
)
from repro.harness import (
    ScenarioConfig,
    ShardedRun,
    ShardedScenarioConfig,
    run_scenario,
    run_sharded_scenario,
)

__version__ = "1.1.0"

__all__ = [
    "AdoptedReply",
    "MessageSequence",
    "OARClient",
    "OARConfig",
    "OARServer",
    "ScenarioConfig",
    "ShardedOARClient",
    "ShardedRun",
    "ShardedScenarioConfig",
    "common_prefix",
    "compute_bad_new",
    "merge_dedup",
    "run_scenario",
    "run_sharded_scenario",
    "__version__",
]
