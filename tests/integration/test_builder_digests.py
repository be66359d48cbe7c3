"""Trace digests of a fixed list of sim scenarios, pinned byte for byte.

The deployment builder places, seeds and starts processes and drivers in
an order the simulator's tie-breaking makes observable, so any change to
what it builds (or in which order) moves a ``TraceLog.digest()``.  The
pins below were taken at commit 54c1a78 (PR 13), before the builder was
split into its placement and driver steps, and cover every protocol x
driver pair of ``ScenarioConfig`` plus four ``ShardedScenarioConfig``
shapes.  The six ``run_figure_*`` pins (digest and trace length, seed 0)
were taken at commit 00de224 (PR 14), when each figure still hand-built
its own group, and hold the figures' move onto ``build_scenario`` to
byte-identical traces.  A deliberate protocol change regenerates them
with::

    PYTHONPATH=src python tests/integration/test_builder_digests.py
"""

from typing import Any, Callable, Dict, Tuple

import pytest

from repro.core.server import OARConfig
from repro.faults.injection import FaultSchedule
from repro.harness import figures
from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.sharding.cluster import ShardedScenarioConfig, run_sharded_scenario

pytestmark = pytest.mark.integration

_PROTOCOLS = ("oar", "sequencer", "ct", "passive")
_DRIVERS: Dict[str, Dict[str, Any]] = {
    "closed": dict(driver="closed", think_time=0.5),
    "open": dict(driver="open", open_rate=0.5),
    "session": dict(driver="session", open_rate=0.5, n_sessions=4, client_rate=1.0),
}


def _unsharded(protocol: str, driver: str) -> Callable[[], Any]:
    return lambda: run_scenario(
        ScenarioConfig(
            protocol=protocol, n_servers=3, n_clients=2, requests_per_client=12,
            machine="kv", seed=21, trace_messages=True, **_DRIVERS[driver],
        )
    )


def _sharded(**fields: Any) -> Callable[[], Any]:
    return lambda: run_sharded_scenario(
        ShardedScenarioConfig(n_shards=2, n_servers=3, n_clients=3, seed=33, **fields)
    )


SCENARIOS: Dict[str, Callable[[], Any]] = {
    **{
        f"{protocol}-{driver}": _unsharded(protocol, driver)
        for protocol in _PROTOCOLS
        for driver in _DRIVERS
    },
    "sharded-kv-uniform": _sharded(machine="kv", workload="uniform", requests_per_client=15),
    "sharded-bank-cross-sequencer-crash": _sharded(
        machine="bank", workload="cross", cross_ratio=0.4, requests_per_client=15,
        driver="open", open_rate=0.3, fd_interval=1.0, fd_timeout=6.0,
        fault_schedule=FaultSchedule().crash(20.0, "s0.p1"),
    ),
    "sharded-kv-readheavy-optimistic": _sharded(
        machine="kv", workload="readheavy", read_ratio=0.8, read_mode="optimistic",
        requests_per_client=20,
    ),
    "sharded-kv-exec-lanes": _sharded(
        machine="kv", workload="zipf", requests_per_client=15, driver="open",
        open_rate=0.5, oar=OARConfig(order_cost=0.5), exec_cost=0.25, exec_lanes=2,
    ),
}

DIGESTS: Dict[str, str] = {
    "ct-closed": "a6d0c710e01385ccb1a649d130844f374cebad98ef63142ee78b6d28c339bb15",
    "ct-open": "1ca61c911ab53df44e99a508d5d405590cd736fc2b3670a3ddbe36e9c5687df5",
    "ct-session": "4f0869ba190385f0b1d28e61ba6d9dc295e0de7707d768d7f19ff5c43fc457aa",
    "oar-closed": "73cecad5e34c49e63745933f68251c6209981a5b6d8555d646023678fee410cd",
    "oar-open": "e51a298183084a59820f16e33ce1370e4d37389770856e9e97b54941bdca9b9c",
    "oar-session": "d5f0a1f2e9ea8950c8971feb0d5b6064755f3291ae0bff0526ca7fd6a49a0100",
    "passive-closed": "6d703d7bc628e3296abb26b6bbde81eb437c3d885cfadfb4625008182bfe9766",
    "passive-open": "66e472ec69c11e81822fe05530f37040112ca43486f585c1f4c6bb2e6a5f33c4",
    "passive-session": "be8f7e932b9c0bd9b92677e25cd1fd2e0257c98ac76b4fa8cfceebd627634eeb",
    "sequencer-closed": "1f57b6cf8f7ef4592cfad20971e0e01694fc77634af201758fc897a4f22a5109",
    "sequencer-open": "0fa0668b7942e5950c988795d50e8f0b0ed71ca1f33e83b5d6a25c01d76a6075",
    "sequencer-session": "9e37015645642b97d491bfad75e5012ca29e5977c13e40de7340264bbf2cf63a",
    "sharded-bank-cross-sequencer-crash": (
        "c8286a5234475aed4d8867c601f33812bf6a3e9bc3cf5876c95ee1f14853ae4d"
    ),
    "sharded-kv-exec-lanes": "bae4944b3ea2edfc23a3eaf625afae061c0a424ec1215915f4bad377797a9779",
    "sharded-kv-readheavy-optimistic": (
        "a67a26dcc70dc1fb2af3321ab5da76c00d1bb91a9bdfb65cd41d28129215f12c"
    ),
    "sharded-kv-uniform": "9dea8db7b1bec34a689031415678f69a9ac1686650eb5e01a0d23d81ca366ca4",
}

FIGURES: Dict[str, Tuple[str, int]] = {
    "1a": ("1457dc75875a48146b11c10b26ca2a2a6d99a1e8d93cb2f20da8bd7b9f16767b", 18),
    "1b": ("cf8844cba0d5de2dacae61ecd7cd43b4db42a68dff48e146b6571e5ab0f5d834", 22),
    "1b_with_oar": (
        "2401aa0d559420e8d4d81bad8b8addf5b5155c1fefba40b9296b01bdf60dcc2b", 31,
    ),
    "2": ("2bf45b1537706f1e16d06516401ef646cff4b60964659e9f54ad7167aecee226", 45),
    "3": ("950b91c17024b465e68a5680be2988dbc3ec681a24a004a24c521fa0b552997c", 50),
    "4": ("e39131abc4e0da6c1ac70fe26d8c85c86bb508e9d54a0f1e78b9cbc7411a8f7b", 88),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_digest_is_pinned(name):
    run = SCENARIOS[name]()
    assert run.all_done()
    assert run.trace.digest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_digest_is_pinned(name):
    trace = getattr(figures, f"run_figure_{name}")().trace
    assert (trace.digest(), len(trace)) == FIGURES[name]


if __name__ == "__main__":
    for scenario_name in sorted(SCENARIOS):
        print(f'    "{scenario_name}": "{SCENARIOS[scenario_name]().trace.digest()}",')
    for figure_name in sorted(FIGURES):
        figure_trace = getattr(figures, f"run_figure_{figure_name}")().trace
        print(f'    "{figure_name}": ("{figure_trace.digest()}", {len(figure_trace)}),')
