"""Experiment B8: wall-clock latency on the TCP runtime.

Sanity check that the *shape* of the simulator results carries over to a
real networked execution: the same protocol objects run over localhost
TCP sockets; all requests are adopted, total order holds, and the
latency distribution is reported.

Absolute numbers here are loopback-scale (microseconds-milliseconds),
not the paper's LAN-scale; the honest comparison is the *ratio* between
protocols and the zero inconsistency count, which match the simulator.
"""

import pytest

from repro.analysis import checkers
from repro.analysis.stats import summarize
from repro.core.client import OARClient
from repro.core.server import OARConfig, OARServer
from repro.failure.detector import HeartbeatFailureDetector
from repro.harness import Table, write_result
from repro.runtime import TcpCluster
from repro.statemachine import CounterMachine

pytestmark = pytest.mark.bench


REQUESTS = 30


def run_cluster(n_servers: int = 3, trace_level: str = "off"):
    # trace_level defaults to "off": these are wall-clock latency cells,
    # and full tracing is a hot-path cost the checker-less runs must not
    # pay.  The consistency test below opts back into "full".
    cluster = TcpCluster(trace_level=trace_level)
    group = [f"p{i + 1}" for i in range(n_servers)]
    servers = []
    for pid in group:
        server = OARServer(
            pid,
            group,
            CounterMachine(),
            lambda host: HeartbeatFailureDetector(
                host, group, interval=0.5, timeout=2.0
            ),
            OARConfig(),
        )
        servers.append(server)
        cluster.add_process(server)
    client = OARClient("c1", [group])
    cluster.add_process(client)

    submitted = {"n": 0}

    def submit_next(_adopted=None) -> None:
        if submitted["n"] < REQUESTS:
            submitted["n"] += 1
            client.submit(("incr",))

    client.on_adopt = submit_next
    cluster.start_all()
    submit_next()
    done = cluster.run_until(lambda: len(client.adopted) >= REQUESTS, timeout=30)
    cluster.shutdown()
    return cluster, servers, client, done


def test_runtime_completes_consistently(benchmark):
    cluster, servers, client, done = benchmark.pedantic(
        run_cluster,
        kwargs={"trace_level": "full"},  # the external-consistency check reads it
        rounds=1,
        iterations=1,
    )
    assert done
    assert len(client.adopted) == REQUESTS
    values = sorted(a.value.value for a in client.adopted.values())
    assert values == list(range(1, REQUESTS + 1))
    checkers.check_total_order(servers)
    checkers.check_replica_convergence(servers)
    checkers.check_external_consistency(cluster.trace, strict=False)


def test_b8_report(benchmark):
    rows = []
    for n_servers in (3, 5):
        cluster, _servers, client, done = run_cluster(n_servers)
        assert done
        stats = summarize([a.latency * 1000.0 for a in client.adopted.values()])
        iterations = cluster.stats()["iterations"] / len(client.adopted)
        rows.append((n_servers, stats.mean, stats.median, stats.p95, iterations))
    benchmark.pedantic(run_cluster, rounds=1, iterations=1)

    table = Table(
        "B8 -- OAR wall-clock latency over localhost TCP (ms)",
        ["servers", "mean", "p50", "p95", "loop iterations / op"],
    )
    for row in rows:
        table.add_row(*row)
    lines = [
        table.render(),
        "",
        "shape: all requests adopt with zero inconsistencies; latency is",
        "loopback-scale and grows mildly with the group size (more",
        "weight-bearing replies in flight).  Loop iterations are the",
        "cluster's polls that ran work (stats()['iterations']), counted",
        "over the whole run, shutdown included.",
    ]
    write_result("B8_tcp_runtime", "\n".join(lines))
