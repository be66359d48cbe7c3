#!/usr/bin/env python
"""Run the OAR protocol as a real networked program over localhost TCP.

The exact same protocol classes that power the deterministic simulator
are hosted on sockets: three replica processes, one client,
length-prefixed frames from the binary codec, a live heartbeat failure
detector, all on the cluster's own event loop.  The script measures wall-clock latency, then crashes the
sequencer and shows the fail-over happening in real time.

Run:  python examples/tcp_failover.py
"""

from repro.analysis import checkers
from repro.analysis.stats import summarize
from repro.core.client import OARClient
from repro.core.server import OARConfig, OARServer
from repro.failure.detector import HeartbeatFailureDetector
from repro.runtime import TcpCluster
from repro.statemachine import KVStoreMachine

REQUESTS_BEFORE_CRASH = 10
REQUESTS_TOTAL = 20


def scenario() -> None:
    cluster = TcpCluster()
    group = ["p1", "p2", "p3"]
    servers = []
    for pid in group:
        server = OARServer(
            pid,
            group,
            KVStoreMachine(),
            lambda host: HeartbeatFailureDetector(
                host, group, interval=0.05, timeout=0.3
            ),
            OARConfig(),
        )
        servers.append(server)
        cluster.add_process(server)
    client = OARClient("c1", [group])
    cluster.add_process(client)

    submitted = {"n": 0}

    def submit_next(_adopted=None) -> None:
        if submitted["n"] < REQUESTS_TOTAL:
            key = f"k{submitted['n'] % 4}"
            client.submit(("set", key, submitted["n"]))
            submitted["n"] += 1

    client.on_adopt = submit_next

    print("starting 3 replicas on localhost TCP sockets...")
    cluster.start_all()
    submit_next()

    cluster.run_until(lambda: len(client.adopted) >= REQUESTS_BEFORE_CRASH, timeout=15)
    before = summarize(
        [a.latency * 1000 for a in client.adopted.values()]
    )
    print(f"  {REQUESTS_BEFORE_CRASH} requests adopted; latency {before.row()} (ms)")

    print("\ncrashing the sequencer p1 ...")
    cluster.crash("p1")
    done = cluster.run_until(lambda: len(client.adopted) >= REQUESTS_TOTAL, timeout=20)
    cluster.shutdown()
    assert done, "fail-over did not complete"

    survivors = [s for s in servers if not s.crashed]
    checkers.check_total_order(survivors)
    checkers.check_replica_convergence(survivors)
    checkers.check_external_consistency(cluster.trace, strict=False)

    after = summarize([a.latency * 1000 for a in client.adopted.values()])
    print(f"  all {REQUESTS_TOTAL} requests adopted; latency {after.row()} (ms)")
    print(f"  survivors now in epoch {survivors[0].epoch}, "
          f"sequencer {survivors[0].current_sequencer}")
    print("\nfinal replicated key-value store (identical on every survivor):")
    for key, value in survivors[0].machine.fingerprint():
        print(f"  {key} = {value}")
    print("\ntotal order, convergence and external consistency verified.")


if __name__ == "__main__":
    scenario()
