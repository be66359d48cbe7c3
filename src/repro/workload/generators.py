"""Deterministic operation-stream generators for the bundled state machines.

Each generator is an infinite iterator of operation tuples, fully
determined by the random generator passed in, so a scenario seed pins the
entire workload.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Any, Iterator, Sequence, Tuple

Op = Tuple[Any, ...]


def counter_ops() -> Iterator[Op]:
    """An endless stream of increments (the order-revealing workload)."""
    while True:
        yield ("incr",)


def stack_ops(rng: random.Random, push_bias: float = 0.6) -> Iterator[Op]:
    """The Figure 1 workload: interleaved push(x) / pop().

    ``push_bias`` keeps the stack from being empty most of the time, so
    pops usually return a value and order sensitivity stays high (a pop
    of an empty stack returns the same error everywhere, hiding order
    differences).
    """
    counter = itertools.count()
    while True:
        if rng.random() < push_bias:
            yield ("push", f"x{next(counter)}")
        else:
            yield ("pop",)


def kv_ops(
    rng: random.Random,
    keys: Sequence[str] = ("a", "b", "c", "d"),
    write_ratio: float = 0.7,
) -> Iterator[Op]:
    """Mixed reads/writes/cas over a small hot key set."""
    counter = itertools.count()
    while True:
        key = rng.choice(list(keys))
        roll = rng.random()
        if roll < write_ratio * 0.8:
            yield ("set", key, f"v{next(counter)}")
        elif roll < write_ratio:
            yield ("cas", key, f"v{next(counter)}", f"v{next(counter)}")
        else:
            yield ("get", key)


def zipfian_kv_ops(
    rng: random.Random,
    keys: Sequence[str],
    s: float = 1.2,
    write_ratio: float = 0.7,
) -> Iterator[Op]:
    """Skewed reads/writes: key popularity follows a Zipf(s) law.

    The canonical sharding stress: with high skew most traffic lands on
    the hot keys' shards, so aggregate goodput stops scaling with shard
    count -- the benchmark quantifies exactly that.  ``keys[0]`` is the
    hottest key.
    """
    if not keys:
        raise ValueError("zipfian workload needs at least one key")
    if s < 0:
        raise ValueError("zipf exponent must be >= 0")
    weights = [1.0 / (rank ** s) for rank in range(1, len(keys) + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for weight in weights:
        acc += weight
        cdf.append(acc / total)
    counter = itertools.count()

    def pick() -> str:
        index = bisect.bisect_left(cdf, rng.random())
        return keys[min(index, len(keys) - 1)]

    while True:
        key = pick()
        if rng.random() < write_ratio:
            yield ("set", key, f"v{next(counter)}")
        else:
            yield ("get", key)


def read_heavy_kv_ops(
    rng: random.Random,
    keys: Sequence[str],
    s: float = 1.2,
    read_ratio: float = 0.9,
) -> Iterator[Op]:
    """Zipf-skewed kv mix dominated by reads (default 90/10 get/set).

    The replica-local read-path workload (benchmark B12): with reads
    bypassing the sequencer, goodput under this mix should scale with
    replica count while the 10% write stream stays pinned to the
    ordering pipeline.  Values written are unique (``v<n>``), which is
    what lets the read-consistency checker attribute every observed
    value to exactly one write.
    """
    if not 0.0 <= read_ratio <= 1.0:
        raise ValueError("read_ratio must be within [0, 1]")
    return zipfian_kv_ops(rng, keys, s=s, write_ratio=1.0 - read_ratio)


def read_heavy_bank_ops(
    rng: random.Random,
    accounts_by_shard: Sequence[Sequence[str]],
    read_ratio: float = 0.9,
    cross_ratio: float = 0.0,
) -> Iterator[Op]:
    """Bank mix dominated by balance reads (transfers keep conservation)."""
    if not 0.0 <= read_ratio <= 1.0:
        raise ValueError("read_ratio must be within [0, 1]")
    return cross_shard_bank_ops(
        rng, accounts_by_shard, cross_ratio=cross_ratio, read_ratio=read_ratio
    )


def cross_shard_bank_ops(
    rng: random.Random,
    accounts_by_shard: Sequence[Sequence[str]],
    cross_ratio: float = 0.3,
    read_ratio: float = 0.2,
) -> Iterator[Op]:
    """Transfers with a controlled fraction straddling shard boundaries.

    Only transfers and balance reads are generated, so the global
    ``conserved_total`` of the bank machines is invariant -- the
    cross-shard atomicity checker relies on that.  ``cross_ratio`` is the
    probability that a transfer's source and destination live on
    different shards (requires at least two shards holding accounts).
    """
    populated = [list(accounts) for accounts in accounts_by_shard if accounts]
    if not populated:
        raise ValueError("no shard holds any account")
    all_accounts = [account for shard in populated for account in shard]
    multi = [shard for shard in populated if len(shard) >= 2]

    def cross_transfer() -> Op:
        src_shard, dst_shard = rng.sample(populated, 2)
        return (
            "transfer",
            rng.choice(src_shard),
            rng.choice(dst_shard),
            rng.randint(1, 25),
        )

    while True:
        roll = rng.random()
        if roll < read_ratio:
            yield ("balance", rng.choice(all_accounts))
        elif roll < read_ratio + cross_ratio and len(populated) >= 2:
            yield cross_transfer()
        elif multi:
            shard = rng.choice(multi)
            src, dst = rng.sample(shard, 2)
            yield ("transfer", src, dst, rng.randint(1, 25))
        elif len(populated) >= 2:
            # Degenerate placement (every shard holds one account):
            # all transfers are necessarily cross-shard.
            yield cross_transfer()
        else:
            # One shard, one account: reads are the only legal op.
            yield ("balance", all_accounts[0])


def hot_key_bank_ops(
    rng: random.Random,
    accounts: Sequence[str],
    hot_ratio: float = 0.8,
    read_ratio: float = 0.2,
) -> Iterator[Op]:
    """Deposits/withdrawals/balances concentrated on one hot account.

    ``accounts[0]`` is the hot account: with probability ``hot_ratio``
    an operation targets it, so at high skew one key's shard -- and,
    within that shard, one conflict-serialized key -- bounds goodput no
    matter how many shards or execution lanes the cluster has.  This is
    the key-splitting stress (benchmark B14): every generated operation
    is split-rewritable (deposits commute onto any fragment,
    withdrawals run against one fragment's escrow budget, balances
    merge-on-read), so splitting the hot account should recover the
    lost parallelism.  Deposits mean account totals are *not*
    conserved; runs on this workload disable the money-supply checks
    and assert ``check_fragment_conservation`` instead.
    """
    if not accounts:
        raise ValueError("hot-key workload needs at least one account")
    if not 0.0 <= hot_ratio <= 1.0:
        raise ValueError("hot_ratio must be within [0, 1]")
    if not 0.0 <= read_ratio <= 1.0:
        raise ValueError("read_ratio must be within [0, 1]")
    accounts = list(accounts)
    hot, cold = accounts[0], accounts[1:]

    while True:
        if cold and rng.random() >= hot_ratio:
            account = rng.choice(cold)
        else:
            account = hot
        roll = rng.random()
        if roll < read_ratio:
            yield ("balance", account)
        elif roll < read_ratio + (1.0 - read_ratio) / 2:
            yield ("deposit", account, rng.randint(1, 100))
        else:
            yield ("withdraw", account, rng.randint(1, 80))


def bank_ops(
    rng: random.Random,
    accounts: Sequence[str] = ("alice", "bob", "carol"),
    transfer_ratio: float = 0.6,
) -> Iterator[Op]:
    """Transfers/deposits/withdrawals; order-sensitive via overdraft checks."""
    accounts = list(accounts)
    while True:
        roll = rng.random()
        if roll < transfer_ratio:
            src, dst = rng.sample(accounts, 2)
            yield ("transfer", src, dst, rng.randint(1, 50))
        elif roll < transfer_ratio + 0.2:
            yield ("deposit", rng.choice(accounts), rng.randint(1, 100))
        elif roll < transfer_ratio + 0.35:
            yield ("withdraw", rng.choice(accounts), rng.randint(1, 80))
        else:
            yield ("balance", rng.choice(accounts))
