"""Trace digests and exact counts of a fixed list of sim scenarios.

The deployment builder places, seeds and starts processes and drivers in
an order the simulator's tie-breaking makes observable, so any change to
what it builds (or in which order) moves a ``TraceLog.digest()``.  The
``DIGESTS`` below were taken at commit 54c1a78 (PR 13), before the
builder was split into its placement and driver steps, and cover every
protocol x driver pair of ``ScenarioConfig`` plus four
``ShardedScenarioConfig`` shapes.  The six ``run_figure_*`` pins (digest
and trace length, seed 0) were taken at commit 00de224 (PR 14), when
each figure still hand-built its own group, and hold the figures' move
onto ``build_scenario`` to byte-identical traces.

``COUNTS`` pins what each of the same runs *costs*, compared with ``==``:
logical ops adopted, simulator events processed, messages sent by
payload class and trace records by kind.  A fixed-seed sim run yields
them exactly on any machine, so a change that adds one message per
request fails here with the kind named and ``old → new`` per adopted op
-- also where no digest looks: the sharded scenarios run with
``trace_messages`` off, so their traces hold no send.  (The sends are
counted by a fault-plane drop rule that drops nothing, installed by the
config's ``arm`` hook, i.e. after ``start_all``: each detector's first heartbeat round is
sent before that and is not in ``send:Heartbeat``.)

A deliberate protocol change regenerates all three tables, in the form
this file holds them, with::

    PYTHONPATH=src python tests/integration/test_builder_digests.py
"""

import textwrap
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

import pytest

from repro.core.server import OARConfig
from repro.faults.injection import FaultSchedule
from repro.harness import figures
from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.sharding.cluster import ShardedScenarioConfig, run_sharded_scenario
from repro.sharding.rebalance import RebalanceCoordinator, attach_rebalancer

pytestmark = pytest.mark.integration

_PROTOCOLS = ("oar", "sequencer", "ct", "passive")
_DRIVERS: Dict[str, Dict[str, Any]] = {
    "closed": dict(driver="closed", think_time=0.5),
    "open": dict(driver="open", open_rate=0.5),
    "session": dict(driver="session", open_rate=0.5, n_sessions=4, client_rate=1.0),
}


#: A scenario, run to quiescence with the given ``arm`` hook.
Scenario = Callable[[Callable[[Any], None]], Any]


def _unsharded(protocol: str, driver: str) -> Scenario:
    return lambda arm: run_scenario(
        ScenarioConfig(
            protocol=protocol, n_servers=3, n_clients=2, requests_per_client=12,
            machine="kv", seed=21, trace_messages=True, arm=arm, **_DRIVERS[driver],
        )
    )


def _sharded(**fields: Any) -> Scenario:
    return lambda arm: run_sharded_scenario(
        ShardedScenarioConfig(
            n_shards=2, n_servers=3, n_clients=3, seed=33, arm=arm, **fields
        )
    )


def _rebalanced(plan: Callable[[Any, RebalanceCoordinator], None], **fields: Any) -> Scenario:
    """A sharded scenario with a rebalance coordinator attached, which
    ``plan`` schedules work on: every multi-step client path (redirect,
    read redirect, scatter read, borrow, borrow as 2PC) runs here."""

    def scenario(arm: Callable[[Any], None]) -> Any:
        def arm_both(run: Any) -> None:
            arm(run)
            plan(run, attach_rebalancer(run))

        return run_sharded_scenario(
            ShardedScenarioConfig(n_servers=3, arm=arm_both, horizon=50_000.0, **fields)
        )

    return scenario


def _split_hot_key(frags: int, unsplit_at: Optional[float] = None) -> Callable[..., None]:
    def plan(run: Any, coordinator: RebalanceCoordinator) -> None:
        hot = run.key_universe[0]
        coordinator.schedule(0.0, lambda: coordinator.split_key(hot, frags))
        if unsplit_at is not None:
            coordinator.schedule(unsplit_at, lambda: coordinator.unsplit_key(hot))

    return plan


def _migrate_hottest(run: Any, coordinator: RebalanceCoordinator) -> None:
    key = run.key_universe[0]
    dst = (run.routing_table.shard_of(key) + 1) % run.config.n_shards
    coordinator.schedule(20.0, lambda: coordinator.migrate(key, dst))


_HOTKEY: Dict[str, Any] = dict(
    n_shards=2, n_clients=2, machine="bank", workload="hotkey", hot_ratio=1.0,
    accounts_per_shard=3, seed=7, grace=200.0,
)

SCENARIOS: Dict[str, Scenario] = {
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
    "sharded-bank-split4-borrow": _rebalanced(
        _split_hot_key(4), initial_balance=30, requests_per_client=30, **_HOTKEY
    ),
    "sharded-bank-split-unsplit": _rebalanced(
        _split_hot_key(2, unsplit_at=80.0), requests_per_client=25, **_HOTKEY
    ),
    "sharded-kv-readheavy-conservative-migration": _rebalanced(
        _migrate_hottest, n_shards=2, n_clients=2, machine="kv", workload="readheavy",
        zipf_s=1.5, read_ratio=0.85, read_mode="conservative", requests_per_client=40,
        retry_interval=30.0, seed=7, grace=300.0,
    ),
    "sharded-kv-range-zipf-rebalance": _rebalanced(
        lambda run, coordinator: coordinator.schedule(
            80.0, lambda: coordinator.rebalance(max_moves=4)
        ),
        n_shards=4, n_clients=4, machine="kv", workload="zipf", zipf_s=1.5, router="range",
        n_keys=32, requests_per_client=40, seed=2,
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
        "f734a51bb09625291317b5e0eb44d2e2524f9d1a1632caccc86c6f2aeb496a48"
    ),
    "sharded-bank-split-unsplit": (
        "6b59f400bf43c9ffc85d0c768b91bbcf589c9c34c8db9eaba44fa570fb3f3cab"
    ),
    "sharded-bank-split4-borrow": (
        "1ab55bcb6cfa935093dcd953e9ea38133b86efc73e574f47da38757912d45f81"
    ),
    "sharded-kv-exec-lanes": "bae4944b3ea2edfc23a3eaf625afae061c0a424ec1215915f4bad377797a9779",
    "sharded-kv-range-zipf-rebalance": (
        "9ecdf39228f12ab7577d61441d073de50b0958bd0a76e9e4443ba6bd7ad90c92"
    ),
    "sharded-kv-readheavy-conservative-migration": (
        "e11d0df37ac58747bb008e596307e83a365e1bfd0c2cf2e827904133c3d9c6de"
    ),
    "sharded-kv-readheavy-optimistic": (
        "a67a26dcc70dc1fb2af3321ab5da76c00d1bb91a9bdfb65cd41d28129215f12c"
    ),
    "sharded-kv-uniform": "9dea8db7b1bec34a689031415678f69a9ac1686650eb5e01a0d23d81ca366ca4",
}

COUNTS: Dict[str, Dict[str, int]] = {
    "ct-closed": {
        "adopted": 24, "events": 1275, "send:CAck": 72, "send:CDecide": 336,
        "send:CEstimate": 144, "send:CProposal": 144, "send:Heartbeat": 174, "send:RMsg": 216,
        "send:Reply": 72, "trace:a_deliver": 72, "trace:abcast_decide": 72,
        "trace:abcast_propose": 72, "trace:adopt": 24, "trace:consensus_decide": 72,
        "trace:msg_recv": 1164, "trace:msg_send": 1164, "trace:r_deliver": 72,
        "trace:submit": 24,
    },
    "ct-open": {
        "adopted": 24, "events": 694, "send:CAck": 24, "send:CDecide": 112,
        "send:CEstimate": 48, "send:CProposal": 48, "send:Heartbeat": 96, "send:RMsg": 216,
        "send:Reply": 72, "trace:a_deliver": 72, "trace:abcast_decide": 24,
        "trace:abcast_propose": 24, "trace:adopt": 24, "trace:consensus_decide": 24,
        "trace:msg_recv": 622, "trace:msg_send": 622, "trace:r_deliver": 72, "trace:submit": 24,
    },
    "ct-session": {
        "adopted": 24, "events": 732, "send:CAck": 27, "send:CDecide": 126,
        "send:CEstimate": 54, "send:CProposal": 54, "send:Heartbeat": 102, "send:RMsg": 216,
        "send:Reply": 72, "trace:a_deliver": 72, "trace:abcast_decide": 27,
        "trace:abcast_propose": 27, "trace:adopt": 24, "trace:consensus_decide": 27,
        "trace:msg_recv": 657, "trace:msg_send": 657, "trace:r_deliver": 72, "trace:submit": 24,
    },
    "oar-closed": {
        "adopted": 24, "events": 528, "send:Heartbeat": 108, "send:RMsg": 216, "send:Reply": 72,
        "send:SeqOrder": 48, "trace:adopt": 24, "trace:epoch_start": 3, "trace:msg_recv": 450,
        "trace:msg_send": 450, "trace:opt_deliver": 72, "trace:r_deliver": 72,
        "trace:seq_order": 24, "trace:submit": 24,
    },
    "oar-open": {
        "adopted": 24, "events": 510, "send:Heartbeat": 96, "send:RMsg": 216, "send:Reply": 72,
        "send:SeqOrder": 48, "trace:adopt": 24, "trace:epoch_start": 3, "trace:msg_recv": 438,
        "trace:msg_send": 438, "trace:opt_deliver": 72, "trace:r_deliver": 72,
        "trace:seq_order": 24, "trace:submit": 24,
    },
    "oar-session": {
        "adopted": 24, "events": 510, "send:Heartbeat": 96, "send:RMsg": 216, "send:Reply": 72,
        "send:SeqOrder": 48, "trace:adopt": 24, "trace:epoch_start": 3, "trace:msg_recv": 438,
        "trace:msg_send": 438, "trace:opt_deliver": 72, "trace:r_deliver": 72,
        "trace:seq_order": 24, "trace:submit": 24,
    },
    "passive-closed": {
        "adopted": 24, "events": 402, "send:Heartbeat": 120, "send:Reply": 24,
        "send:Request": 72, "send:StateUpdate": 48, "send:UpdateAck": 48, "trace:a_deliver": 24,
        "trace:adopt": 24, "trace:backup_install": 48, "trace:msg_recv": 318,
        "trace:msg_send": 318, "trace:primary_process": 24, "trace:r_deliver": 72,
        "trace:submit": 24,
    },
    "passive-open": {
        "adopted": 24, "events": 366, "send:Heartbeat": 96, "send:Reply": 24,
        "send:Request": 72, "send:StateUpdate": 48, "send:UpdateAck": 48, "trace:a_deliver": 24,
        "trace:adopt": 24, "trace:backup_install": 48, "trace:msg_recv": 294,
        "trace:msg_send": 294, "trace:primary_process": 24, "trace:r_deliver": 72,
        "trace:submit": 24,
    },
    "passive-session": {
        "adopted": 24, "events": 369, "send:Heartbeat": 102, "send:Reply": 24,
        "send:Request": 72, "send:StateUpdate": 48, "send:UpdateAck": 48, "trace:a_deliver": 24,
        "trace:adopt": 24, "trace:backup_install": 48, "trace:msg_recv": 294,
        "trace:msg_send": 300, "trace:primary_process": 24, "trace:r_deliver": 72,
        "trace:submit": 24,
    },
    "sequencer-closed": {
        "adopted": 24, "events": 357, "send:Heartbeat": 90, "send:OrderMsg": 48,
        "send:Reply": 72, "send:Request": 72, "trace:a_deliver": 72, "trace:adopt": 24,
        "trace:msg_recv": 288, "trace:msg_send": 288, "trace:r_deliver": 72,
        "trace:seq_assign": 24, "trace:submit": 24,
    },
    "sequencer-open": {
        "adopted": 24, "events": 360, "send:Heartbeat": 96, "send:OrderMsg": 48,
        "send:Reply": 72, "send:Request": 72, "trace:a_deliver": 72, "trace:adopt": 24,
        "trace:msg_recv": 288, "trace:msg_send": 294, "trace:r_deliver": 72,
        "trace:seq_assign": 24, "trace:submit": 24,
    },
    "sequencer-session": {
        "adopted": 24, "events": 366, "send:Heartbeat": 96, "send:OrderMsg": 48,
        "send:Reply": 72, "send:Request": 72, "trace:a_deliver": 72, "trace:adopt": 24,
        "trace:msg_recv": 294, "trace:msg_send": 294, "trace:r_deliver": 72,
        "trace:seq_assign": 24, "trace:submit": 24,
    },
    "sharded-bank-cross-sequencer-crash": {
        "adopted": 45, "events": 3026, "send:CAck": 1, "send:CDecide": 8, "send:CEstimate": 3,
        "send:CNack": 3, "send:CProposal": 4, "send:Heartbeat": 1228, "send:RMsg": 725,
        "send:Reply": 228, "send:SeqOrder": 158, "trace:a_deliver": 16, "trace:adopt": 87,
        "trace:cnsv_order": 2, "trace:cnsv_propose": 2, "trace:consensus_decide": 2,
        "trace:crash": 1, "trace:epoch_start": 8, "trace:opt_deliver": 212,
        "trace:phase2_request": 2, "trace:phase2_start": 2, "trace:r_deliver": 228,
        "trace:seq_order": 79, "trace:submit": 87, "trace:tx_adopt": 14, "trace:tx_begin": 14,
        "trace:tx_branch_adopt": 56, "trace:tx_decide": 14,
    },
    "sharded-bank-split-unsplit": {
        "adopted": 50, "events": 2021, "send:Heartbeat": 696, "send:RMsg": 585,
        "send:Reply": 195, "send:SeqOrder": 130, "trace:adopt": 65, "trace:epoch_start": 6,
        "trace:mig_begin": 1, "trace:mig_commit": 1, "trace:mig_done": 1,
        "trace:mig_installed": 1, "trace:mig_prepared": 1, "trace:opt_deliver": 195,
        "trace:r_deliver": 195, "trace:redirect": 3, "trace:seq_order": 65,
        "trace:split_begin": 1, "trace:split_commit": 1, "trace:split_done": 1,
        "trace:split_opened": 1, "trace:split_read": 5, "trace:split_read_adopt": 5,
        "trace:split_rewrite": 43, "trace:submit": 65, "trace:unsplit_begin": 1,
        "trace:unsplit_done": 1,
    },
    "sharded-bank-split4-borrow": {
        "adopted": 60, "events": 3179, "send:Heartbeat": 828, "send:RMsg": 1197,
        "send:Reply": 399, "send:SeqOrder": 266, "trace:adopt": 133, "trace:epoch_start": 6,
        "trace:opt_deliver": 399, "trace:r_deliver": 399, "trace:redirect": 2,
        "trace:seq_order": 133, "trace:split_begin": 1, "trace:split_borrow": 12,
        "trace:split_commit": 1, "trace:split_done": 1, "trace:split_opened": 1,
        "trace:split_read": 9, "trace:split_read_adopt": 9, "trace:split_rewrite": 49,
        "trace:submit": 133, "trace:tx_adopt": 8, "trace:tx_begin": 8,
        "trace:tx_branch_adopt": 27, "trace:tx_decide": 8,
    },
    "sharded-kv-exec-lanes": {
        "adopted": 45, "events": 1185, "send:Heartbeat": 216, "send:RMsg": 405,
        "send:Reply": 135, "send:SeqOrder": 86, "trace:adopt": 45, "trace:epoch_start": 6,
        "trace:exec_done": 135, "trace:opt_deliver": 135, "trace:r_deliver": 135,
        "trace:seq_order": 43, "trace:submit": 45,
    },
    "sharded-kv-range-zipf-rebalance": {
        "adopted": 160, "events": 3913, "send:Heartbeat": 840, "send:RMsg": 1584,
        "send:Reply": 528, "send:SeqOrder": 352, "trace:adopt": 176, "trace:epoch_start": 12,
        "trace:mig_begin": 4, "trace:mig_commit": 4, "trace:mig_done": 4,
        "trace:mig_installed": 4, "trace:mig_prepared": 4, "trace:opt_deliver": 528,
        "trace:r_deliver": 528, "trace:redirect": 4, "trace:seq_order": 176, "trace:submit": 176,
    },
    "sharded-kv-readheavy-conservative-migration": {
        "adopted": 80, "events": 2171, "send:Heartbeat": 948, "send:RMsg": 144,
        "send:ReadReply": 207, "send:ReadRequest": 207, "send:Reply": 48, "send:SeqOrder": 32,
        "trace:adopt": 16, "trace:epoch_start": 6, "trace:mig_begin": 1, "trace:mig_commit": 1,
        "trace:mig_done": 1, "trace:mig_installed": 1, "trace:mig_prepared": 1,
        "trace:opt_deliver": 48, "trace:r_deliver": 48, "trace:read_adopt": 67,
        "trace:read_exec": 207, "trace:read_submit": 69, "trace:redirect": 2,
        "trace:seq_order": 16, "trace:submit": 16,
    },
    "sharded-kv-readheavy-optimistic": {
        "adopted": 60, "events": 702, "send:Heartbeat": 228, "send:RMsg": 126,
        "send:ReadReply": 46, "send:ReadRequest": 46, "send:Reply": 42, "send:SeqOrder": 28,
        "trace:adopt": 14, "trace:epoch_start": 6, "trace:opt_deliver": 42,
        "trace:r_deliver": 42, "trace:read_adopt": 46, "trace:read_exec": 46,
        "trace:read_submit": 46, "trace:seq_order": 14, "trace:submit": 14,
    },
    "sharded-kv-uniform": {
        "adopted": 45, "events": 1017, "send:Heartbeat": 228, "send:RMsg": 405,
        "send:Reply": 135, "send:SeqOrder": 90, "trace:adopt": 45, "trace:epoch_start": 6,
        "trace:opt_deliver": 135, "trace:r_deliver": 135, "trace:seq_order": 45,
        "trace:submit": 45,
    },
}

FIGURES: Dict[str, Tuple[str, int]] = {
    "1a": ("1457dc75875a48146b11c10b26ca2a2a6d99a1e8d93cb2f20da8bd7b9f16767b", 18),
    "1b": ("cf8844cba0d5de2dacae61ecd7cd43b4db42a68dff48e146b6571e5ab0f5d834", 22),
    "1b_with_oar": ("8be5b22ab5ead19f7d70df6899f8b37a6008500dafe481eb4580eb522586ba89", 31),
    "2": ("2bf45b1537706f1e16d06516401ef646cff4b60964659e9f54ad7167aecee226", 45),
    "3": ("bd4a07119898312ba08c7e5dad30f69f0873eff52f38742d42dca1644370b5a9", 50),
    "4": ("75f80994570cb573bc408dceeccb62c506baaaab2240f87737ede9a994e43b27", 88),
}


#: Digest and counts of one run.
Pin = Tuple[str, Dict[str, int]]


def measure(name: str) -> Pin:
    """Run one scenario; its trace digest and its exact counts."""
    sends: Counter = Counter()

    def count_sends(run: Any) -> None:
        def count(src: str, dst: str, payload: Any) -> bool:
            sends[type(payload).__name__] += 1
            return False  # drop nothing

        run.network.ensure_fault_plane().add_drop_rule(count)

    run = SCENARIOS[name](count_sends)
    assert run.all_done()
    trace = run.trace
    counts = {"adopted": len(run.adopted()), "events": run.sim.events_processed}
    counts.update((f"send:{kind}", sends[kind]) for kind in sorted(sends))
    counts.update((f"trace:{kind}", trace.count(kind)) for kind in sorted(trace.kinds()))
    return trace.digest(), counts


def drift(name: str, pinned: Pin, measured: Pin) -> str:
    """What moved between two pins of ``name``, one line per count; empty
    when nothing did."""
    (old_digest, old), (new_digest, new) = pinned, measured

    def per_op(counts: Dict[str, int], kind: str) -> float:
        return counts.get(kind, 0) / max(counts["adopted"], 1)

    lines = [
        f"{name}: {kind} {old.get(kind, 0)} → {new.get(kind, 0)} "
        f"({per_op(old, kind):.2f} → {per_op(new, kind):.2f} per adopted op)"
        for kind in sorted(old.keys() | new.keys())
        if old.get(kind, 0) != new.get(kind, 0)
    ]
    if old_digest != new_digest:
        lines.append(
            f"{name}: digest {old_digest} → {new_digest}"
            + ("" if lines else " (every count equal: order or content moved, not volume)")
        )
    return "\n".join(lines)


def format_counts(name: str, counts: Dict[str, int]) -> str:
    """One ``COUNTS`` entry as this file holds it."""
    # A no-break space keeps each count on its kind's line while wrapping.
    body = ", ".join(f'"{kind}":\xa0{count}' for kind, count in counts.items())
    indent = " " * 8
    wrapped = textwrap.fill(
        body, width=96, initial_indent=indent, subsequent_indent=indent,
        break_on_hyphens=False,
    ).replace("\xa0", " ")
    return f'    "{name}": {{\n{wrapped},\n    }},'


def format_entry(name: str, value: str) -> str:
    """One ``DIGESTS`` or ``FIGURES`` entry as this file holds it."""
    entry = f'    "{name}": {value},'
    return entry if len(entry) <= 100 else f'    "{name}": (\n        {value}\n    ),'


def regenerate() -> None:
    """Print the three tables' entries, ready to paste over the old ones."""
    pins = {name: measure(name) for name in sorted(SCENARIOS)}
    for name, (digest, _counts) in pins.items():
        print(format_entry(name, f'"{digest}"'))
    for name, (_digest, counts) in pins.items():
        print(format_counts(name, counts))
    for name in sorted(FIGURES):
        trace = getattr(figures, f"run_figure_{name}")().trace
        print(format_entry(name, f'("{trace.digest()}", {len(trace)})'))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_digest_is_pinned(name):
    moved = drift(name, (DIGESTS[name], COUNTS[name]), measure(name))
    if moved:
        pytest.fail(moved, pytrace=False)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_digest_is_pinned(name):
    trace = getattr(figures, f"run_figure_{name}")().trace
    assert (trace.digest(), len(trace)) == FIGURES[name]


def test_drift_names_the_scenario_the_kind_and_both_values():
    pinned = (DIGESTS["oar-closed"], COUNTS["oar-closed"])
    assert drift("oar-closed", pinned, pinned) == ""
    one_more = dict(COUNTS["oar-closed"], **{"send:Reply": 73, "send:Gossip": 24})
    assert drift("oar-closed", pinned, (DIGESTS["oar-closed"], one_more)).splitlines() == [
        "oar-closed: send:Gossip 0 → 24 (0.00 → 1.00 per adopted op)",
        "oar-closed: send:Reply 72 → 73 (3.00 → 3.04 per adopted op)",
    ]
    # A digest that moves alone says that nothing else did.
    assert drift("oar-closed", pinned, ("0" * 64, pinned[1])) == (
        f"oar-closed: digest {DIGESTS['oar-closed']} → {'0' * 64} "
        "(every count equal: order or content moved, not volume)"
    )


def test_regeneration_prints_the_tables_as_this_file_holds_them(capsys):
    regenerate()
    printed = capsys.readouterr().out.splitlines()
    held = Path(__file__).read_text(encoding="utf-8").splitlines()
    assert len(printed) > len(DIGESTS) + len(COUNTS) + len(FIGURES)
    assert [line for line in printed if line not in held] == []


if __name__ == "__main__":
    regenerate()
