"""Property: the inversion-witness majority check equals the pairwise one.

``check_majority_guarantee`` decides an epoch from one witness per
replica (does its Opt-delivery order, mapped onto a final order, descend
anywhere?) and enumerates pairs only when a majority of witnesses fire.
The oracle below is the definition read aloud -- every ordered pair of
rids, every epoch, every final order -- which is what the checker did
before, now in both directions.  On every generated history the two
must agree on the verdict *and* on the set of offending
``(epoch, pid, m1, m2)``.

Histories are drawn to cover what real runs produce and what they must
never produce: 3 or 5 replicas, 1-3 epochs, Opt-delivery orders cut
short (a replica that crashed mid-epoch), undone suffixes delivered
again in another order, final orders that lack some rids, and -- for
the failing side -- the same pair swapped at a majority of replicas, or
one replica A-delivering against a majority.  Seeds are fixed, so
tier-1 draws the same histories every time.
"""

import random
from collections import defaultdict
from typing import Dict, List, Set, Tuple

import pytest

from repro.analysis.checkers import (
    CheckFailure,
    DeliveryIndex,
    check_majority_guarantee,
    majority_inversions,
)
from repro.sim.trace import TraceLog

pytestmark = pytest.mark.property

SEEDS = range(400)

Violation = Tuple[int, str, str, str]


def oracle(trace: TraceLog, group_size: int) -> Set[Violation]:
    """Every (epoch, pid, m1, m2): a majority Opt-delivered m1 before m2
    in the epoch and pid's final sequence has m2 first."""
    majority = group_size // 2 + 1
    finals: Dict[str, List[str]] = defaultdict(list)
    epoch_orders: Dict[int, Dict[str, List[str]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for event in trace.events_of_kinds(("opt_deliver", "a_deliver", "opt_undeliver")):
        if event.kind == "opt_undeliver":
            assert finals[event.pid].pop() == event["rid"]
            continue
        finals[event.pid].append(event["rid"])
        if event.kind == "opt_deliver":
            epoch_orders[event["epoch"]][event.pid].append(event["rid"])
    final_positions = {
        pid: {rid: position for position, rid in enumerate(order)}
        for pid, order in finals.items()
    }

    violations: Set[Violation] = set()
    for epoch, orders in epoch_orders.items():
        ranks = [
            {rid: rank for rank, rid in enumerate(order)} for order in orders.values()
        ]
        rids = sorted({rid for order in orders.values() for rid in order})
        for m1 in rids:
            for m2 in rids:
                before = sum(
                    1 for rank in ranks
                    if m1 in rank and m2 in rank and rank[m1] < rank[m2]
                )
                if before < majority:
                    continue
                for pid, positions in final_positions.items():
                    if m1 in positions and m2 in positions:
                        if positions[m2] < positions[m1]:
                            violations.add((epoch, pid, m1, m2))
    return violations


def history(seed: int) -> Tuple[TraceLog, int]:
    """One seeded delivery history and its group size."""
    rng = random.Random(seed)
    group_size = rng.choice((3, 5))
    majority = group_size // 2 + 1
    pids = [f"p{i}" for i in range(1, group_size + 1)]
    log = TraceLog()
    clock = [0.0]
    delivered: Dict[str, List[str]] = {pid: [] for pid in pids}
    crashed: Set[str] = set()

    def emit(pid: str, kind: str, rid: str, epoch: int) -> None:
        clock[0] += 1.0
        if kind == "opt_undeliver":
            delivered[pid].pop()
            log.record(clock[0], pid, kind, rid=rid, epoch=epoch)
        else:
            delivered[pid].append(rid)
            position = len(delivered[pid])
            log.record(
                clock[0], pid, kind, rid=rid, epoch=epoch, position=position, value=0
            )

    carried: List[str] = []  # undone and not delivered again: next epoch's head
    for epoch in range(rng.randint(1, 3)):
        fresh = [f"r{epoch}.{i}" for i in range(rng.randint(2, 7))]
        sequenced = carried + fresh
        rng.shuffle(sequenced)
        # The failing side, part one: a majority shares one swapped pair.
        swap = None
        if len(sequenced) >= 2 and rng.random() < 0.3:
            swap = tuple(rng.sample(range(len(sequenced)), 2))
        swapped = set(rng.sample(pids, rng.randint(1, group_size))) if swap else set()
        # What the epoch settles on: a kept prefix of the sequencer's
        # order, the rest again in some other order, some of it dropped.
        keep = rng.randint(0, len(sequenced))
        rest = sequenced[keep:]
        rng.shuffle(rest)
        dropped = rest[rng.randint(0, len(rest)):] if rng.random() < 0.5 else []
        settled = sequenced[:keep] + [rid for rid in rest if rid not in dropped]

        for pid in pids:
            if pid in crashed:
                continue
            order = list(sequenced)
            if pid in swapped:
                i, j = swap
                order[i], order[j] = order[j], order[i]
            if rng.random() < 0.15:  # a lone replica with a private order
                rng.shuffle(order)
            order = order[: rng.randint(0, len(order))]
            for rid in order:
                emit(pid, "opt_deliver", rid, epoch)
            if rng.random() < 0.15:
                crashed.add(pid)  # died before phase 2: never undoes
                continue
            # Undo back to the longest prefix shared with the settled
            # order -- or, part two of the failing side, not far enough.
            agree = 0
            while agree < min(len(order), len(settled)) and order[agree] == settled[agree]:
                agree += 1
            if rng.random() < 0.2:
                agree = rng.randint(agree, len(order))
            for rid in reversed(order[agree:]):
                emit(pid, "opt_undeliver", rid, epoch)
            tail = [rid for rid in settled if rid not in order[:agree]]
            if rng.random() < 0.2:  # a replica A-delivering its own way
                rng.shuffle(tail)
            if rng.random() < 0.2:  # crashed part-way through the tail
                tail = tail[: rng.randint(0, len(tail))]
                crashed.add(pid)
            for rid in tail:
                emit(pid, "a_deliver", rid, epoch)
        carried = dropped
        if len(crashed) >= majority:
            break
    return log, group_size


@pytest.mark.parametrize("seed", SEEDS)
def test_fast_check_equals_pairwise_oracle(seed):
    log, group_size = history(seed)
    expected = oracle(log, group_size)
    found = {
        (epoch, pid, m1, m2)
        for epoch, pid, m1, m2, _holders in majority_inversions(
            DeliveryIndex(log), group_size // 2 + 1
        )
    }
    assert found == expected
    if expected:
        with pytest.raises(CheckFailure, match="majority guarantee violated"):
            check_majority_guarantee(log, group_size)
    else:
        check_majority_guarantee(log, group_size)


def test_histories_cover_both_verdicts_and_the_cold_path():
    """The seeds are worth something: many histories pass, many fail,
    some have a majority of disagreeing replicas yet no majority behind
    any one pair (the enumeration runs and finds nothing), and some of
    the failing pairs are not neighbours in any holder's Opt order."""
    passing = failing = cold_and_clean = non_adjacent = 0
    for seed in SEEDS:
        log, group_size = history(seed)
        majority = group_size // 2 + 1
        index = DeliveryIndex(log)
        violations = list(majority_inversions(index, majority))
        if violations:
            failing += 1
            for epoch, _pid, m1, m2, holders in violations:
                orders = index.opt_orders[epoch]
                if all(orders[h][m2] - orders[h][m1] > 1 for h in holders):
                    non_adjacent += 1
                    break
            continue
        passing += 1
        for epoch, orders in index.opt_orders.items():
            for final in index.final_positions.values():
                disagreeing = 0
                for ranks in orders.values():
                    mapped = [final[rid] for rid in ranks if rid in final]
                    disagreeing += mapped != sorted(mapped)
                if disagreeing >= majority:
                    cold_and_clean += 1
    assert passing >= 100 and failing >= 50
    assert cold_and_clean >= 10 and non_adjacent >= 10
