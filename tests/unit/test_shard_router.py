"""Unit tests for deterministic key -> shard routing (repro.sharding)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sharding import router as router_module
from repro.sharding import (
    HashShardRouter,
    RangeShardRouter,
    RoutingTable,
    make_router,
)

pytestmark = pytest.mark.unit

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestHashRouter:
    def test_in_range(self):
        router = HashShardRouter(4)
        for i in range(200):
            assert 0 <= router.shard_of(f"key{i}") < 4

    def test_deterministic_within_process(self):
        router = HashShardRouter(8)
        first = [router.shard_of(f"k{i}") for i in range(100)]
        second = [HashShardRouter(8).shard_of(f"k{i}") for i in range(100)]
        assert first == second

    def test_deterministic_across_processes(self):
        # Rebalancing safety: a router built in a *different* interpreter
        # (fresh hash seed) must map every key identically, or replicas
        # and clients would disagree on placement after a restart.
        keys = [f"key{i}" for i in range(32)] + ["", "a", "0", "key"]
        router = HashShardRouter(5)
        local = [router.shard_of(key) for key in keys]
        script = (
            "from repro.sharding import HashShardRouter\n"
            f"keys = {keys!r}\n"
            "router = HashShardRouter(5)\n"
            "print([router.shard_of(k) for k in keys])\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="12345")
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert output == repr(local)

    def test_empty_key_routes(self):
        # The empty string is a legal (if degenerate) key: it must route
        # deterministically, not crash or fall through.
        router = HashShardRouter(3)
        shard = router.shard_of("")
        assert 0 <= shard < 3
        assert router.shard_of("") == shard

    def test_single_shard_maps_everything_to_zero(self):
        router = HashShardRouter(1)
        assert {router.shard_of(f"k{i}") for i in range(50)} == {0}
        assert router.shard_of("") == 0

    def test_spread_is_roughly_uniform(self):
        router = HashShardRouter(4)
        placement = router.placement([f"key{i}" for i in range(400)])
        assert len(placement) == 4
        for shard_keys in placement:
            assert 50 <= len(shard_keys) <= 150

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            HashShardRouter(0)

    def test_remembered_shards_equal_the_hash(self, monkeypatch):
        """The memo answers what SHA-1 would, first time and every time,
        for keys whose equality and string forms disagree (``1 == True
        == 1.0`` as dict keys; ``1`` and ``"1"`` as strings)."""

        def hashed(key, n_shards):
            digest = hashlib.sha1(str(key).encode("utf-8")).digest()
            return int.from_bytes(digest[:8], "big") % n_shards

        keys = ["1", 1, True, 1.0, "", 0, "k7", 7, ("k", 7), "('k', 7)", None]
        keys += [f"key{i}" for i in range(40)] + list(range(40))
        router = HashShardRouter(7)
        for _ in range(2):
            assert [router.shard_of(k) for k in keys] == [hashed(k, 7) for k in keys]
        assert router.shard_of(["unhashable"]) == hashed(["unhashable"], 7)
        # Full means forget everything, never a wrong answer.
        monkeypatch.setattr(router_module, "_SHARD_MEMO_LIMIT", 8)
        small = HashShardRouter(7)
        for _ in range(2):
            assert [small.shard_of(k) for k in keys] == [hashed(k, 7) for k in keys]
        assert 0 < len(small._shard_memo) <= 8

    def test_moves_and_splits_still_win_over_remembered_shards(self):
        table = RoutingTable(HashShardRouter(4))
        home = table.shard_of("hot")
        assert table.shard_of("hot") == home  # now remembered by the base
        table.move("hot", (home + 1) % 4)
        assert table.shard_of("hot") == (home + 1) % 4
        table.split("wide", [("wide#0", 2), ("wide#1", 3)])
        assert [table.shard_of("wide#0"), table.shard_of("wide#1")] == [2, 3]
        table.unsplit("wide", 1)
        assert table.shard_of("wide") == 1
        assert table.shard_of("wide#0") == table.base.shard_of("wide#0")
        # A copy shares the immutable base (and its memo), not the overrides.
        stale = RoutingTable(table.base)
        assert stale.shard_of("hot") == home


class TestRangeRouter:
    def test_boundaries_partition_the_space(self):
        router = RangeShardRouter(3, ["h", "p"])
        assert router.shard_of("a") == 0
        assert router.shard_of("g") == 0
        assert router.shard_of("h") == 1  # boundary belongs to the right
        assert router.shard_of("m") == 1
        assert router.shard_of("p") == 2
        assert router.shard_of("z") == 2

    def test_empty_key_goes_to_first_shard(self):
        router = RangeShardRouter(2, ["m"])
        assert router.shard_of("") == 0

    def test_boundary_count_enforced(self):
        with pytest.raises(ValueError):
            RangeShardRouter(3, ["m"])

    def test_boundaries_must_be_sorted(self):
        with pytest.raises(ValueError):
            RangeShardRouter(3, ["p", "h"])

    def test_single_shard_needs_no_boundaries(self):
        router = RangeShardRouter(1, ())
        assert router.shard_of("anything") == 0


class TestMakeRouter:
    def test_hash_kind(self):
        assert isinstance(make_router("hash", 4), HashShardRouter)

    def test_range_kind_derives_even_boundaries(self):
        universe = [f"k{i:03d}" for i in range(12)]
        router = make_router("range", 3, universe)
        placement = router.placement(universe)
        assert [len(shard) for shard in placement] == [4, 4, 4]

    def test_range_kind_needs_universe(self):
        with pytest.raises(ValueError):
            make_router("range", 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_router("consistent-hashing", 3)

    def test_placement_covers_every_key_once(self):
        universe = [f"k{i}" for i in range(97)]
        for kind in ("hash", "range"):
            router = make_router(kind, 4, universe)
            placement = router.placement(universe)
            flattened = [key for shard in placement for key in shard]
            assert sorted(flattened) == sorted(universe)


class TestRoutingTable:
    def test_epoch_zero_matches_base_router(self):
        base = HashShardRouter(4)
        table = RoutingTable(base)
        assert table.epoch == 0
        keys = [f"k{i}" for i in range(50)]
        assert [table.shard_of(k) for k in keys] == [base.shard_of(k) for k in keys]
        assert table.placement(keys) == base.placement(keys)

    def test_move_bumps_epoch_and_overrides(self):
        table = RoutingTable(HashShardRouter(4))
        src = table.shard_of("hot")
        dst = (src + 1) % 4
        assert table.move("hot", dst) == 1
        assert table.epoch == 1
        assert table.shard_of("hot") == dst
        # Other keys are untouched.
        assert table.shard_of("cold") == HashShardRouter(4).shard_of("cold")

    def test_move_rejects_out_of_range_destination(self):
        table = RoutingTable(HashShardRouter(2))
        with pytest.raises(ValueError):
            table.move("k", 2)
        with pytest.raises(ValueError):
            table.move("k", -1)

    def test_copy_is_independent_until_synced(self):
        authority = RoutingTable(HashShardRouter(3))
        stale = authority.copy()
        src = authority.shard_of("k")
        authority.move("k", (src + 1) % 3)
        assert stale.shard_of("k") == src  # the copy did not move
        assert stale.epoch == 0
        assert stale.sync_from(authority) is True
        assert stale.epoch == authority.epoch
        assert stale.shard_of("k") == authority.shard_of("k")

    def test_sync_is_noop_at_equal_epoch(self):
        authority = RoutingTable(HashShardRouter(3))
        copy = authority.copy()
        assert copy.sync_from(authority) is False

    def test_moves_accumulate_across_syncs(self):
        authority = RoutingTable(HashShardRouter(2))
        copy = authority.copy()
        authority.move("a", 1 - authority.shard_of("a"))
        copy.sync_from(authority)
        authority.move("b", 1 - authority.shard_of("b"))
        copy.sync_from(authority)
        assert copy.overrides == authority.overrides
        assert copy.epoch == 2
