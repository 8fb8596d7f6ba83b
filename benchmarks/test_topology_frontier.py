"""Benchmarks for the coordination-topology frontier.

The tentpole of the topology refactor: every registered
``repro.coordination`` topology replays the paper-default workload on the
simulator, and each (topology, property) point is recorded into the
session's ``BENCH_*.json`` under the ``topology-frontier`` group, with the
wall time of that point's own runs as its ``seconds`` and two extra
comparable fields — ``topology_messages_total`` (the full monitor
message count, token + termination + digest) and
``topology_verdict_latency`` (the virtual-time instant the monitors went
quiescent).  ``tools/compare_bench.py`` tracks both across sessions, so a
topology silently drifting along either axis of the frontier shows up in
the benchmark diff.

The assertions pin the frontier's qualitative shape rather than exact
numbers: tree relaying costs extra token hops, gossip pays a digest
overhead, and every topology declares the same verdicts (soundness is
covered by ``tests/coordination/``).
"""

import time

import pytest

from conftest import BENCH_SCALE, record_timing
from repro.coordination import TOPOLOGIES
from repro.experiments import format_table
from repro.experiments.harness import run_topology_frontier

_PROPERTIES = ("B", "C")
_NUM_PROCESSES = 3

#: one frontier sweep per session, shared by every test in the file
_FRONTIER_CACHE: list = []


def _frontier():
    if _FRONTIER_CACHE:
        return _FRONTIER_CACHE[0]
    start = time.perf_counter()
    rows = run_topology_frontier(
        properties=_PROPERTIES,
        num_processes=_NUM_PROCESSES,
        scale=BENCH_SCALE,
    )
    seconds = time.perf_counter() - start
    record_timing(
        "topology_frontier_sweep",
        seconds,
        group="topology-frontier",
        scenario="paper-default",
        properties=list(_PROPERTIES),
    )
    for row in rows:
        record_timing(
            f"topology_{row['topology']}_{row['property']}",
            row["seconds"],
            group="topology-frontier",
            scenario="paper-default",
            topology=row["topology"],
            property=row["property"],
            topology_messages_total=float(row["messages"]),
            topology_verdict_latency=float(row["verdict_latency"]),
        )
    _FRONTIER_CACHE.append(rows)
    return rows


def _by_topology(rows, property_name):
    return {
        row["topology"]: row for row in rows if row["property"] == property_name
    }


@pytest.mark.benchmark(group="topology-frontier")
def test_topology_frontier_covers_every_registered_topology():
    rows = _frontier()
    print("\ntopology frontier\n")
    print(format_table(rows))
    for property_name in _PROPERTIES:
        per = _by_topology(rows, property_name)
        assert set(TOPOLOGIES) <= set(per)
        assert "centralized" in per  # the baseline row anchors the frontier


@pytest.mark.benchmark(group="topology-frontier")
def test_topology_frontier_message_decomposition_is_consistent():
    rows = _frontier()
    # the centralized baseline counts observation deliveries, which have no
    # token/termination/digest split — only decentralized rows decompose
    for row in rows:
        if row["topology"] == "centralized":
            continue
        assert row["messages"] == pytest.approx(
            row["token_messages"]
            + row["termination_messages"]
            + row["digest_messages"]
        ), row


@pytest.mark.benchmark(group="topology-frontier")
def test_topology_frontier_shape():
    rows = _frontier()
    for property_name in _PROPERTIES:
        per = _by_topology(rows, property_name)
        base = per["round-robin-token"]
        # gossip pays a digest overhead (tokens still route directly, but
        # flooded termination arrives on a different schedule, so the token
        # count may drift slightly either way)
        assert per["gossip"]["digest_messages"] > 0
        # hop-by-hop tree relaying can only add token messages
        assert per["tree-aggregation"]["token_messages"] >= base["token_messages"]
        # every decentralized topology reaches the same conclusive verdicts
        declared = {per[name]["declared"] for name in TOPOLOGIES}
        assert len(declared) == 1, declared
