"""Guard for refactors: the e2e tracer's layer boundaries still exist.

``benchmarks/e2e/tracer.py`` times the layers outside-in by replacing the
bound methods named in its ``BOUNDARIES`` table on the instances the
benchmark built.  A boundary whose attribute is gone only warns at run
time and its time silently folds into the enclosing layer, so a rename
in ``src/`` could shift the per-layer trajectory without anyone noticing.
This test reads the table (nothing under ``benchmarks/e2e`` is modified)
and fails instead.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from repro.planner import Query

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def load(name):
    """Import one benchmark file by path, without touching ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = load("tracer").BOUNDARIES
make_table = load("workloads").make_table


@pytest.mark.parametrize(
    "layer,owners_of,method",
    [boundary[:3] for boundary in BOUNDARIES],
    ids=[f"{layer}:{method}" for layer, _, method, _ in BOUNDARIES],
)
def test_every_boundary_resolves_on_a_fresh_table(layer, owners_of, method):
    owners = owners_of(make_table(2))
    assert owners, f"{layer}:{method} has no owner"
    for owner in owners:
        assert callable(getattr(owner, method, None)), (
            f"{layer}:{method} is absent on {type(owner).__name__}; its time "
            "would fall into the enclosing layer"
        )


def test_front_door_reaches_boundaries_replaced_on_the_instance():
    """The tracer (and ``monkeypatch``) replace *instance* attributes, so
    the serving path must look each boundary up per call -- the whole
    point chain included: a point lookup plans nothing and calls the index
    directly, and must still find ``lookup``, ``fetch_record`` and (once
    its blocks are purged) ``read`` on the instance."""
    table = make_table(2)
    calls = Counter()

    def count(owner, layer, method):
        inner = getattr(owner, method)

        def counted(*args, **kwargs):
            calls[layer, method] += 1
            return inner(*args, **kwargs)

        setattr(owner, method, counted)

    for layer, owners_of, method, _ in BOUNDARIES:
        for owner in owners_of(table):
            count(owner, layer, method)

    table.ingest([(i, f"c{i % 3}", f"r{i % 2}", i) for i in range(40)])
    for _ in range(4):
        table.tick()
    # Order 4 moves from c1 to c2: its old by_customer entry stays visible
    # under c1 (a ghost), so a customer query AS-OF before the move
    # fetches that key back through the primary's batch_lookup; the clean
    # keys never reach it.
    before_move = min(shard.clock.snapshot_ts for shard in table.shards)
    table.ingest([(4, "c2", "r0", 4)])
    table.tick()
    assert table.point_query((), (7,)).values == (7, "c1", "r1", 7)
    point = calls.copy()
    assert table.query(Query(equalities=(("order_id", 7),))) == [(7, "c1", "r1", 7)]
    assert len(table.query(Query(
        equalities=(("customer", "c1"),), query_ts=before_move,
    ))) == 13

    assert calls["wildfire.cluster", "point_query"] == 1
    assert calls["wildfire.cluster", "query"] == 2
    assert calls["wildfire.cluster", "ingest"] == 2
    assert calls["wildfire.cluster", "tick"] == 5
    assert calls["qos.admission", "admit"] == 5  # one token per front-door op
    assert calls["wildfire.engine", "ingest"] == 3  # both shards, then one
    assert calls["wildfire.engine", "point_query"] == 1
    assert calls["wildfire.engine", "_query_tagged"] == 3  # 1 routed + 2 scattered
    assert calls["planner", "plan_query"] == 3
    assert point["planner", "plan_query"] == 0
    assert point["core.index", "lookup"] == 1
    assert point["wildfire.blockstore", "fetch_record"] == 1
    assert calls["core.index", "scan"] >= 1  # the customer query's
    assert calls["core.index", "batch_lookup"] >= 1
    assert calls["wildfire.blockstore", "fetch_records"] >= 1

    for shard in table.shards:
        for shard_index in shard.indexes.all():
            shard_index.index.cache.set_cache_level(-1)
    reads = calls["storage.hierarchy", "read"]
    assert table.point_query((), (7,)).values == (7, "c1", "r1", 7)
    assert calls["storage.hierarchy", "read"] >= reads + 1


def test_a_customer_query_counts_its_fetch_back_keys_at_the_boundary():
    """What the tracer's observers read off the typed path's boundaries.

    ``fetchback_keys_per_query`` is ``len(args[0])`` at
    ``core.index.batch_lookup``: the ghosted winners a fetch-back's shard
    cannot vouch for, which must still go through that boundary (a
    fetch-back that went around it would read 0), and
    ``planner.plan_share.*`` counts one ``plan_query`` per contacted
    shard -- however few times the cluster binds the query's values.
    """
    table = make_table(2)
    rows = [(i, f"c{i % 3}", f"r{i % 2}", i) for i in range(40)]
    table.ingest(rows)
    for _ in range(4):
        table.tick()
    # Order 4 moves from c1 to c2: its old by_customer entry stays visible
    # under c1 (a ghost), so read AS-OF before the move it is a fetch-back
    # key (its newest version is past the read); order 7 gets a new amount
    # under the same customer, so its hit is already the newest version
    # at that snapshot: no fetch-back key.
    before_move = min(shard.clock.snapshot_ts for shard in table.shards)
    table.ingest([(4, "c2", "r0", 4), (7, "c1", "r1", 107)])
    for _ in range(2):
        table.tick()

    batches, plans, tagged = [], [], []
    for shard_id, shard in enumerate(table.shards):
        primary = shard.index

        def batch_lookup(*args, _inner=primary.batch_lookup, _shard=shard_id):
            batches.append((_shard, len(args[0])))
            return _inner(*args)

        def plan_query(*args, _inner=shard.plan_query, _shard=shard_id):
            plans.append(_shard)
            return _inner(*args)

        def query_tagged(*args, _inner=shard._query_tagged, _shard=shard_id):
            tagged.append(_shard)
            return _inner(*args)

        primary.batch_lookup = batch_lookup
        shard.plan_query = plan_query
        shard._query_tagged = query_tagged

    answer = table.query(Query(
        equalities=(("customer", "c1"),), query_ts=before_move,
    ))
    keys = [i for i in range(40) if i % 3 == 1]
    assert answer == [(i, "c1", f"r{i % 2}", i) for i in keys]
    assert sorted(tagged) == sorted(plans) == [0, 1]  # once per contacted shard
    # Only order 4 is ghosted: its shard's batch carries exactly that key,
    # and a shard with no ghosted winner makes no primary call at all.
    assert batches == [(table.shard_of_key((4,)), 1)]
    # At the latest snapshot the moved key's newest version is in every
    # index, so its stale hit is dropped without the primary.
    del batches[:]
    answer = table.query(Query(equalities=(("customer", "c1"),)))
    assert answer == [
        (i, "c1", f"r{i % 2}", 107 if i == 7 else i) for i in keys if i != 4
    ]
    assert batches == []
