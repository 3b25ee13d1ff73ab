"""Deterministic hot-path guards: Python calls per ``point_query`` and per row.

Wall-clock numbers do not repeat on a shared CI box; the number of Python
``call`` events a front-door point lookup makes does.  This test loads the
e2e benchmark's orders table (``make_table`` from
``benchmarks/e2e/workloads.py``, imported by path, read-only) on 2 shards
until every index holds several runs in both zones, then counts ``call``
events with ``sys.setprofile`` over a fixed key list -- once with
everything cached and once after ``set_cache_level(-1)`` on every index
(each lookup then refetches its blocks from shared storage and releases
them at query exit).

Recorded on this fixture (Python 3.11, calls per ``point_query``):

=========================  =====  ======
commit                      warm  purged
=========================  =====  ======
af7751c (before)           357.9   508.4
block-local kernel         161.6   294.3
2d5f04b                    154.3   284.9
no plan, exact-key kernel   88.3   202.1
pin finalizer, no closure   84.3   196.1
bound ledger rows, one drop 84.3   130.7
one lifecycle, one format   74.3   119.7
one lock, no finalizer      68.3   111.7
=========================  =====  ======

The ceilings below are the last row plus a little headroom for
interpreter versions, and must stay at or under 65 % of the ``before``
row: a change that brings back per-probe ``locate -> block_view ->
sort_key_at`` hops, per-block table unpacking or a whole-run release
sweep fails here, without a stopwatch -- and so does a ``Query`` or an
``AccessPlan`` built per lookup (the hinted pass-through layer was ~15
calls and a third of the time), a ``RangeScanQuery`` probe and candidate
list per lookup, the per-run ``_search_start -> _seek -> first_geq ->
scan_visible`` chain (9 calls per run searched), a generator or a
property hop in ``sim_now`` (8 calls per call at two shards, twice per
op), a Python-level ``__hash__`` on ``BlockId`` / ``RID`` (one per tier
dict probe: 17 per purged lookup), or -- the ``pin finalizer`` row --
a finalizer on the query pin re-entering ``release`` for a pin its query
already released (2) and a closure per query exit.  The purged column's
``bound ledger rows`` row is the storage cycle itself: a ``TierStats()``
built per charge,
``_charge_*`` -> ``TierName.value`` -> ``LatencyModel.cost`` ->
``record_*`` per tier operation, ``Block.size`` five times a block, a
locked ``would_fit`` before every ``ssd.write``, the breaker's
``_state_locked`` twice per shared read, an ``is_pinned`` per released run
and a ``drop_from_cache`` -> ``memory.delete`` -> ``ssd.delete`` per
released block were ~31 calls per block fetched.  The ``one lifecycle``
row is the pin and its release as one locked section each: a lifecycle
mode branch, ``_unpack``, the drain helpers called on empty lists, the
current node's refresh as a call of its own and the in-collector check
were ~10 calls per lookup.  The last row makes the lifecycle mutex a
plain ``threading.Lock`` (no Python ``__enter__`` / ``__exit__`` that
recorded an owner thread for finalizer re-entry), the Unref part of
``release`` itself and drops the pin's ``__del__``: 6 calls per lookup, 8
per purged one.  Lower them when the path gets shorter; raise them only
deliberately.

The write path has the same guard: ``call`` events per ingested row inside
``ingest`` + ``tick`` over the whole load of this fixture (48 rounds, 7 175
rows, two post-grooms, every groom, evolve and merge included):

==============================  ==============
commit                          calls per row
==============================  ==============
4d5e3c1                                  343.0
columnar write path (8bb587f)            123.7
0393a71 (before)                         114.2
block-and-column maintenance              58.5
f9174e8 (before the bound rows)           55.6
bound ledger rows                         51.5
one pass per batch                        26.0
==============================  ==============

A per-row ``IndexEntry``, a per-value runtime-type dispatch or a per-key
post-groom lookup coming back shows up here -- and so does a per-entry
hop in merge, evolve or the run builder (``iter_raw`` -> ``stream`` ->
``heapq.merge`` -> dedupe -> splice -> the builder's loop were ~50 calls
per row on their own), or a ``PointLookup`` + ``encode_point_key`` per key
in the post-groom sweep.  The last row validates, encodes and hashes an
ingest batch once, column at a time: per row, five ``validate`` frames
(the router's and ``validate_row``'s) and the generator feeding four of
them, the ``key_hash`` ->
``encode_typed`` -> ``ENCODERS`` chain in front of ``fnv1a64``, the
``upsert`` -> ``_ensure_open`` -> ``SideLog.append`` staging,
``compose_begin_ts`` in the groomer, ``with_prev_rid`` -> ``RID.__new__``
-> ``set_end_ts`` and ``_bucket_of`` in the post-groom chain loop, and the
generator of the log's size estimate came out; so did the second
``encode_columns`` of every groomed batch (one for the block, one for the
index runs).

And the typed path: ``call`` events per ``table.query`` on the same warmed
fixture, one row per query shape of the e2e ``typed_scatter`` workload
(``customer = c`` full row: secondary scan + batched fetch-back, 133 rows;
``region = r AND amount <= 200`` projected: index-only; ``order_id BETWEEN
k AND k + 200``: primary scan on both shards; ``order_id = k``: routed):

=========================  ========  ======  ========  ===========
commit                     customer  region  pk range  pk equality
=========================  ========  ======  ========  ===========
8bb587f (before)            11308.5  2112.6    3235.7        282.6
template + scan kernels      4669.9   904.0     821.8        194.3
column-encoded batch keys    3196.1   902.0     819.8        191.3
point path (see above)       3049.8   885.0     702.4        140.3
fused kernels, row passes     385.7   257.2     258.1        105.3
one lifecycle, one format     345.7   237.2     238.4         95.3
one lock, no finalizer        321.7   225.2     226.5         89.3
one door per read             319.7   223.2     224.5         89.3
=========================  ========  ======  ========  ===========

A per-call ``candidate_shape``, a per-entry generator hop in the scan, a
per-key fence / search / first-visible call chain or a per-key
``encode_point_key`` in the fetch-back, or a per-row
``Predicate.matches`` coming back shows up in the three scatter shapes; the routed equality is mostly the point path, which has its own
budget above.  The ``fused kernels`` row is what is left when a run searched
is one kernel frame (``IndexRun.scan_visible`` / ``batch_visible``, no
``search_run_hits -> _seek -> key_position_bounds -> first_geq`` chain per
run or per batched key), a shard's entries become rows, pass their checks
and are projected in list passes with C getters (no ``_entry_values`` /
``passes`` / ``entry_pk`` call per entry or record: the customer shape's
133 rows cost ~1,500 calls on their own), ``bind_values`` runs once per
query and the planner's and the scatter prune's synopsis terms are read
off the plan template until a publication moves them.  The last row is
the point path's pin and release again, once per shard searched: the
``one lifecycle`` row's one locked section each, the ``one lock`` row's
plain lock and no finalizer.  The last row is ``UmziIndex.scan`` calling
``QueryExecutor.scan`` directly: no ``range_scan`` hop on the facade and
the executor, one call per shard scanned.
"""

import gc
import importlib.util
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"

BEFORE = {"warm": 357.9, "purged": 508.4}
CEILING = {"warm": 71.0, "purged": 115.0}

WRITE_BEFORE = 114.2
WRITE_CEILING = 29.0

TYPED_BEFORE = {
    "customer": 11308.5, "region": 2112.6, "range": 3235.7, "equality": 282.6,
}
TYPED_CEILING = {
    "customer": 323.0, "region": 226.0, "range": 227.0, "equality": 92.0,
}

ROWS = 6_000
BATCH = 125  # 48 ingest+tick rounds: two post-grooms, eight grooms after
ARRIVAL_GAP_NS = 100_000  # keeps the admission bucket full


def load_make_table():
    """``make_table`` from the benchmark's workloads file, by path."""
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", E2E / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_table


def loaded_table(profiler=None):
    """The fixture; ``profiler`` is installed around each ingest + tick."""
    table = load_make_table()(2)
    # Every order_id once, in a fixed scrambled order (7919 is coprime
    # with ROWS), plus re-upserts of the oldest keys so runs overlap.
    order = [2 * ((i * 7919) % ROWS) for i in range(ROWS)]
    for start in range(0, ROWS, BATCH):
        fresh = order[start : start + BATCH]
        again = order[start // 4 : start // 4 + BATCH // 5] if start else []
        rows = [
            (k, f"c{k % 90:03d}", f"r{(k // 2) % 50:02d}", (k * 31 + start) % 5000)
            for k in again + fresh
        ]
        sys.setprofile(profiler)
        try:
            table.ingest(rows)
            table.tick()
        finally:
            sys.setprofile(None)
    for shard in table.shards:
        stats = shard.index.stats()
        assert stats.groomed_run_count >= 1 and stats.post_groomed_run_count >= 1
        assert stats.total_runs >= 3
    return table, order


def calls_per_query(table, keys):
    """Mean Python ``call`` events inside ``point_query`` over ``keys``."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    point_query, advance = table.point_query, table.advance_clock
    gc.collect()
    gc.disable()  # a collection pass would add its callbacks' calls
    try:
        for key in keys:
            advance(ARRIVAL_GAP_NS)
            sys.setprofile(profiler)
            try:
                row = point_query((), (key,))
            finally:
                sys.setprofile(None)
            assert row is not None and row.values[0] == key
    finally:
        gc.enable()
    return calls / len(keys)


def calls_per_typed_query(table, queries):
    """Mean Python ``call`` events inside ``table.query`` over ``queries``."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    query, advance = table.query, table.advance_clock
    gc.collect()
    gc.disable()
    try:
        for typed in queries:
            advance(ARRIVAL_GAP_NS)
            sys.setprofile(profiler)
            try:
                rows = query(typed)
            finally:
                sys.setprofile(None)
            assert rows
    finally:
        gc.enable()
    return calls / len(queries)


def typed_queries(order):
    """The four e2e shapes over the fixture's keys, a fixed list each."""
    from repro.planner import Query

    return {
        "customer": [
            # order_ids are even, so only even customers exist.
            Query(equalities=(("customer", f"c{n:03d}"),)) for n in range(0, 90, 2)
        ],
        "region": [
            Query(
                ranges=(("region", f"r{n:02d}", f"r{n:02d}"), ("amount", 0, 200)),
                projection=("order_id", "amount"),
            )
            for n in range(50)
        ],
        "range": [
            Query(ranges=(("order_id", low, low + 200),))
            for low in range(0, 2 * ROWS - 200, 131)
        ],
        "equality": [
            Query(equalities=(("order_id", key),)) for key in order[::40]
        ],
    }


def test_python_calls_per_typed_query_stay_under_budget():
    table, order = loaded_table()
    queries = typed_queries(order)
    for shape in queries.values():  # warm views, entry memos, plan templates
        for typed in shape:
            table.advance_clock(ARRIVAL_GAP_NS)
            table.query(typed)
    for shape, ceiling in TYPED_CEILING.items():
        measured = calls_per_typed_query(table, queries[shape])
        if shape != "equality":  # the routed one rides the point budget
            assert ceiling <= 0.65 * TYPED_BEFORE[shape]
        assert measured <= ceiling, (
            f"{shape}: {measured:.1f} Python calls per table.query, budget "
            f"{ceiling} (was {TYPED_BEFORE[shape]} before the typed-path kernels)"
        )


def test_python_calls_per_point_query_stay_under_budget():
    table, order = loaded_table()
    keys = order[::9]  # 667 keys spread over every run
    for key in keys:  # warm views, planner hints and admission state
        table.advance_clock(ARRIVAL_GAP_NS)
        table.point_query((), (key,))

    measured = {"warm": calls_per_query(table, keys)}
    for shard in table.shards:
        for shard_index in shard.indexes.all():
            shard_index.index.cache.set_cache_level(-1)
    measured["purged"] = calls_per_query(table, keys)

    for regime, ceiling in CEILING.items():
        assert ceiling <= 0.65 * BEFORE[regime]
        assert measured[regime] <= ceiling, (
            f"{regime}: {measured[regime]:.1f} Python calls per point_query, "
            f"budget {ceiling} (was {BEFORE[regime]} before the kernel)"
        )


def test_python_calls_per_ingested_row_stay_under_budget():
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc.disable()
    try:
        loaded_table(profiler)
    finally:
        gc.enable()
    rows = ROWS + (ROWS // BATCH - 1) * (BATCH // 5)
    measured = calls / rows
    assert WRITE_CEILING <= 0.65 * WRITE_BEFORE
    assert measured <= WRITE_CEILING, (
        f"{measured:.1f} Python calls per ingested row through ingest + tick, "
        f"budget {WRITE_CEILING} (was {WRITE_BEFORE} before the block-and-"
        "column maintenance kernel)"
    )
