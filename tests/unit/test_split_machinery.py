"""Unit tests for hot-key splitting (machines, router, exec weights).

The sharded end-to-end paths (client rewrite, borrowing, auto-split,
conservation under traffic) live in
``tests/integration/test_key_split_cluster.py``; these tests pin the
building blocks in isolation: the
:class:`~repro.statemachine.base.SplittableMachine` hook surface and
``split_open``/``split_close`` op semantics on a sharded bank, the
routing table's split bookkeeping, and the per-op execution weights
(:meth:`~repro.statemachine.base.StateMachine.exec_cost_of`) the engine
charges for them.
"""

import pytest

from repro.core.execution import ExecutionEngine
from repro.sharding.router import RoutingTable, make_router
from repro.sim.loop import Simulator
from repro.statemachine.bank import BankMachine
from repro.statemachine.base import SplittableMachine, StateMachine
from repro.statemachine.kvstore import KVStoreMachine
from repro.statemachine.undo import UndoLog

pytestmark = pytest.mark.unit


class TestFragmentNaming:
    def test_fragment_keys_round_trip_through_parent_key(self):
        frags = BankMachine.fragment_keys("acct07", 3)
        assert frags == ("acct07#f0", "acct07#f1", "acct07#f2")
        for frag in frags:
            assert BankMachine.parent_key(frag) == "acct07"

    def test_parent_key_rejects_non_fragments(self):
        assert BankMachine.parent_key("acct07") is None
        assert BankMachine.parent_key("acct#fx") is None  # non-digit suffix
        assert BankMachine.parent_key("#f0") is None  # empty stem
        assert BankMachine.parent_key(("acct", 0)) is None  # non-string

    def test_nested_fragment_parses_to_the_inner_parent(self):
        # rfind: a fragment of a fragment names its immediate parent.
        assert BankMachine.parent_key("a#f0#f1") == "a#f0"


class TestBankSplitHooks:
    def test_split_parts_is_exact_for_awkward_values(self):
        machine = BankMachine()
        for value in (0, 1, 7, 100, -7, -100, 999):
            for n in (2, 3, 4, 8):
                parts = machine.split_parts(value, n)
                assert len(parts) == n
                assert machine.merge_parts(parts) == value

    def test_split_kind_classification(self):
        assert BankMachine.split_kind(("deposit", "a", 5)) == "local"
        assert BankMachine.split_kind(("withdraw", "a", 5)) == "budget"
        assert BankMachine.split_kind(("balance", "a")) == "read"
        # Multi-key and structural ops are not fragment-rewritable.
        assert BankMachine.split_kind(("transfer", "t1", "a", "b", 5)) is None
        assert BankMachine.split_kind(("open", "a")) is None

    def test_fragment_op_substitutes_the_key(self):
        op = BankMachine.fragment_op(("deposit", "a", 5), "a", "a#f1")
        assert op == ("deposit", "a#f1", 5)

    def test_merge_read_sums_fragment_balances(self):
        assert BankMachine.merge_read(("balance", "a"), (3, 4, 5)) == 12


class TestSplitOpsOnShardedBank:
    def make(self, balance=90):
        return BankMachine({"a": balance, "b": 10}, owned=("a", "b"))

    def test_split_open_installs_frag0_and_escrows_the_rest(self):
        machine = self.make()
        result = machine.apply(("split_open", "s1", "a", ("a#f0", "a#f1", "a#f2"), (0, 1, 2)))
        assert result.ok
        kind, shipped = result.value
        assert kind == "split" and len(shipped) == 2
        assert shipped[0] == ("s1.1", "a#f1", 1, 30)
        assert shipped[1] == ("s1.2", "a#f2", 2, 30)
        assert not machine.owns("a") and machine.owns("a#f0")
        assert machine.fragment_value("a#f0") == 30
        # The escrowed parts still count toward the shard's conserved total.
        assert machine.conserved_total() == 100

    def test_split_open_undo_restores_the_key_exactly(self):
        machine = self.make()
        before = machine.fingerprint()
        result, undo = machine.apply_with_undo(
            ("split_open", "s1", "a", ("a#f0", "a#f1"), (0, 1))
        )
        assert result.ok
        undo()
        assert machine.fingerprint() == before

    def test_split_open_rejections(self):
        machine = self.make()
        # Not owned here: WrongShard-shaped failure.
        assert not machine.apply(("split_open", "s1", "zz", ("zz#f0", "zz#f1"), (0, 1))).ok
        # Fewer than two fragments.
        assert not machine.apply(("split_open", "s1", "a", ("a#f0",), (0,))).ok
        # Fragment key collides with an existing owned key.
        assert not machine.apply(("split_open", "s1", "a", ("a#f0", "b"), (0, 1))).ok

    def test_split_close_merges_and_is_idempotent(self):
        machine = BankMachine({"a#f0": 60, "a#f1": 40}, owned=("a#f0", "a#f1"))
        result = machine.apply(("split_close", "u1", "a", ("a#f0", "a#f1")))
        assert result.ok and result.value == ("merged", 100)
        assert machine.owns("a") and machine.fragment_value("a") == 100
        assert not machine.owns("a#f0")
        # A re-delivered close of the merged key is a no-op ack.
        again = machine.apply(("split_close", "u1", "a", ("a#f0", "a#f1")))
        assert again.ok and again.value == ("already",)

    def test_split_close_undo_restores_fragments(self):
        machine = BankMachine({"a#f0": 60, "a#f1": 40}, owned=("a#f0", "a#f1"))
        before = machine.fingerprint()
        result, undo = machine.apply_with_undo(("split_close", "u1", "a", ("a#f0", "a#f1")))
        assert result.ok
        undo()
        assert machine.fingerprint() == before

    def test_split_close_requires_all_fragments_local(self):
        machine = BankMachine({"a#f0": 60}, owned=("a#f0",))
        result = machine.apply(("split_close", "u1", "a", ("a#f0", "a#f1")))
        assert not result.ok  # a#f1 lives elsewhere: migrate it home first


class TestRoutingTableSplits:
    def make(self, n_shards=3):
        keys = tuple(f"k{i}" for i in range(9))
        return RoutingTable(make_router("range", n_shards, keys)), keys

    def test_split_routes_fragments_and_bumps_epoch_once(self):
        table, keys = self.make()
        key = keys[0]
        epoch = table.split(key, (("k0#f0", 0), ("k0#f1", 1), ("k0#f2", 2)))
        assert epoch == table.epoch == 1
        assert table.fragments_of(key) == (("k0#f0", 0), ("k0#f1", 1), ("k0#f2", 2))
        assert table.shard_of("k0#f1") == 1
        assert table.shard_of("k0#f2") == 2

    def test_unsplit_drops_fragment_routes_and_homes_the_key(self):
        table, keys = self.make()
        table.split(keys[0], (("k0#f0", 0), ("k0#f1", 2)))
        table.unsplit(keys[0], 2)
        assert table.fragments_of(keys[0]) is None
        assert table.shard_of(keys[0]) == 2
        assert "k0#f1" not in table.overrides

    def test_split_validation(self):
        table, keys = self.make()
        with pytest.raises(ValueError):
            table.split(keys[0], (("k0#f0", 0),))  # < 2 fragments
        with pytest.raises(ValueError):
            table.split(keys[0], (("k0#f0", 0), ("k0#f1", 9)))  # shard range
        table.split(keys[0], (("k0#f0", 0), ("k0#f1", 1)))
        with pytest.raises(ValueError):
            table.split(keys[0], (("k0#f0", 0), ("k0#f1", 1)))  # already split
        with pytest.raises(ValueError):
            table.unsplit(keys[1], 0)  # not split

    def test_copy_and_sync_carry_splits(self):
        table, keys = self.make()
        stale = table.copy()
        table.split(keys[0], (("k0#f0", 0), ("k0#f1", 1)))
        assert stale.fragments_of(keys[0]) is None  # snapshot is independent
        assert stale.sync_from(table)
        assert stale.fragments_of(keys[0]) == table.fragments_of(keys[0])
        assert stale.shard_of("k0#f1") == 1
        table.unsplit(keys[0], 0)
        assert stale.sync_from(table)
        assert stale.fragments_of(keys[0]) is None


class TestPerOpExecWeights:
    """exec_cost_of scales how long an op occupies an execution lane."""

    def run_one(self, machine, op, cost=1.0):
        sim = Simulator(seed=0)
        engine = ExecutionEngine(
            machine, lanes=1, cost=cost, timer=sim.schedule, undo_log=UndoLog()
        )
        engine.submit("r1", op, lambda r, lane: None, True)
        sim.run()
        return sim.now

    def test_default_weight_is_one(self):
        assert StateMachine.exec_cost_of(("anything",)) == 1.0
        took = self.run_one(KVStoreMachine(), ("set", "x", 1))
        assert took == pytest.approx(1.0)

    def test_kv_scan_charges_double(self):
        assert KVStoreMachine.exec_cost_of(("keys",)) == 2.0
        took = self.run_one(KVStoreMachine(), ("keys",))
        assert took == pytest.approx(2.0)

    def test_migration_bulk_ops_charge_4x(self):
        assert KVStoreMachine.exec_cost_of(("mig_prepare", "m1", "k", 1)) == 4.0
        assert KVStoreMachine.exec_cost_of(("mig_install", "m1", "k", ())) == 4.0
        assert KVStoreMachine.exec_cost_of(("mig_forget", "m1")) == 1.0
        assert KVStoreMachine.exec_cost_of(("mig_status", "m1")) == 1.0

    def test_split_ops_charge_4x(self):
        assert SplittableMachine.exec_cost_of(("split_open", "s", "k", (), ())) == 4.0
        assert SplittableMachine.exec_cost_of(("split_close", "s", "k", ())) == 4.0
        machine = BankMachine({"a": 90}, owned=("a",))
        took = self.run_one(machine, ("split_open", "s1", "a", ("a#f0", "a#f1"), (0, 1)))
        assert took == pytest.approx(4.0)

    def test_weighted_ops_delay_the_chain_behind_them(self):
        # A weight-2 scan followed by a conflicting... every kv op after
        # a global-footprint scan waits: 2.0 (scan) + 1.0 (set) = 3.0.
        sim = Simulator(seed=0)
        machine = KVStoreMachine()
        engine = ExecutionEngine(
            machine, lanes=2, cost=1.0, timer=sim.schedule, undo_log=UndoLog()
        )
        done = []
        engine.submit("r1", ("keys",), lambda r, lane: done.append(sim.now), True)
        engine.submit("r2", ("set", "x", 1), lambda r, lane: done.append(sim.now), True)
        sim.run()
        assert done == [pytest.approx(2.0), pytest.approx(3.0)]
