"""Concurrent typed scatters: each query's binding is its own.

A typed query's :class:`~repro.planner.plan.Binding` -- its typed values,
what they bind into each plan its shards pick, the synopsis state its
scatter prune read -- is an argument of the one query call.  Four client
threads issue typed scatter queries of different shapes and values
against one loaded 4-shard table for about a second, with the switch
interval shortened so that they interleave inside queries; every answer
must equal the one the same query got single-threaded.  A binding kept
anywhere shared -- a module-, table- or shard-level "last query" slot --
hands one thread's values to another thread's shards and fails here.
"""

import sys
import threading
import time

from repro.planner import Query

from tests.properties.test_scatter_binding_oracle import (
    KEYS, MOVED_SHARD, make_table, row,
)

CLIENTS = 4
SECONDS = 1.0


def client_queries():
    """One list per client thread: every e2e scatter shape, each thread
    with values of its own, so that two threads run one shape (and share
    its compiled plans) with different values at the same time."""
    return [
        [
            Query(equalities=(("customer", f"c{(slot + step) % 5}"),))
            for step in (0, 2)
        ] + [
            Query(ranges=(("region", f"r{(slot + step) % 4}", f"r{(slot + step) % 4}"),
                          ("amount", 0, 1500 + slot)),
                  projection=("order_id", "amount"))
            for step in (0, 1)
        ] + [
            Query(ranges=(("order_id", low, low + 30),))
            for low in (slot * 35, slot * 35 + 17)
        ] + [
            Query(ranges=(("region", f"r{slot}", f"r{slot}"), ("order_id", 40 + slot, 79)),
                  projection=("order_id", "amount"))
        ]
        for slot in range(CLIENTS)
    ]


def test_concurrent_typed_scatters_answer_as_single_threaded():
    table = make_table("smart")
    for start in range(0, KEYS, 40):
        table.ingest([row(k) for k in range(start, start + 40)])
        table.tick()
    moved = [k for k in range(KEYS) if table.shard_of_key((k,)) == MOVED_SHARD]
    table.ingest([row(k, region_shift=1, generation=1) for k in moved])
    table.tick()
    lists = client_queries()
    expected = {query: table.query(query) for queries in lists for query in queries}
    assert all(expected.values())

    wrong, rounds = [], [0] * CLIENTS
    deadline = time.perf_counter() + SECONDS

    def client(slot, queries):
        while time.perf_counter() < deadline and not wrong:
            for query in queries:
                answer = table.query(query)
                if answer != expected[query]:
                    wrong.append(query)
                    return
            rounds[slot] += 1

    threads = [
        threading.Thread(target=client, args=(slot, queries))
        for slot, queries in enumerate(lists)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong, wrong[0]
    assert all(rounds), rounds
