"""Deterministic hot-path guards: Python calls (and bytecodes) per
``point_query``, calls and bytecodes per row, GC-tracked objects and bytes
retained per row and young collections per row.

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
one pass through the door   52.2    95.6
one pass per purged block   52.2    71.8
one call per layer          27.2    47.8
reads name their intent     27.2    46.8
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
per purged one.  The ``one pass through the door`` row takes out what the
front door paid around the index: the map registry's ``Condition`` on pin
and unpin (its ``__enter__`` / ``__exit__`` twice and ``notify_all`` ->
``notify``; pin and unpin now take its plain lock and notify only a
registered drainer), locked or property reads of one value
(``CircuitBreaker.state`` -> ``_state_locked``, the arrival clock's
``now_ns`` twice per op, ``QosConfig.rate_per_ns``, ``HybridClock.now`` ->
``compose_begin_ts``) and forwarding hops (``point_query`` ->
``index_lookup`` -> ``current_snapshot_ts``, ``is_purged_level`` per run
released): 16 calls per lookup, warm or purged.  A ``Condition`` back on
the pin path, a locked single-value read or a forwarding hop coming back
fails here.  The ``one pass per purged block`` row is the purged lookup's
per-run steps done in one pass each: the frozen dataclass constructor
and the per-column decode calls of an ``IndexEntry`` (now a tuple built by
a decoder compiled per definition), the memory and SSD tier calls on a
miss, ``_shared_call``'s frame around the first shared attempt,
``_charge_write`` in ``SSDTier.admit``, ``_u32_table`` in the view and the
exit path's ``data_block_id`` / ``drop_decode_cache`` hops came out:
~24 calls per purged lookup.  The ``one call per layer`` row crosses each
layer of the front door in one call and encodes the key once: the
routing bytes are the lookup key of a table whose primary-index key is
its sharding key (``encode_point_key`` -> ``_key_prefix`` -> ``_encode``
-> ``encode_search_key`` -> ``encode_typed`` -> its list comprehension
-> ``encode_int64`` a second time, 7 calls), the map pin is ``pin`` and
``unpin`` (no ``MapPin`` ``__init__`` / ``__enter__`` / ``__exit__`` /
``release``: 4), admission is ``admit`` with the refill inline and the
work clock summed in C (no ``_refill_locked``, ticket ``__init__`` and
``finish`` or ``sim_now`` twice: 5), a CLOSED breaker and a shard that
is not degraded are attribute reads (``CircuitBreaker.state``, the
``degraded`` property: 2), the executor pins and releases in the door
(``_enter_query``, ``_exit_query``, ``QueryPin.__init__``: 3), the cache
hook reads the thread's intent only when a run holds a transient block
(``current_read_intent``: 1 warm) and ``point_query`` routes a whole key
itself (``_bound_sharding_values`` and its comprehension: 2).  The
``reads name their intent`` row drops the read scope: a purged exit's
``release_after_query`` no longer calls ``current_read_intent`` (1), and
a shared read takes its intent from its caller, not the thread.  Lower
them when the path gets shorter; raise them only deliberately.

Calls cannot see a Python loop that makes none: the binary search inside
a run was ~11 probes per run searched without a call among them.  So the
point test also counted ``line`` events per ``point_query`` with
``sys.settrace`` over the same keys, warm and purged:

=========================  =====  ======
commit                      warm  purged
=========================  =====  ======
385f969 (before)           550.4   877.6
warm blocks bisected       369.0   883.9
one pass through the door  340.9   855.8
one pass per purged block  320.0   666.2
one call per layer         251.0   606.4
no knob only tests set     247.0   600.4
reads name their intent    247.0   591.2
=========================  =====  ======

The last row searches a warm block -- a view the run handle memoized, come
back to by a query -- with ``bisect_left`` over its sort-key column
(``DataBlockView.keys``) instead of the probe loop; calls stayed at 68.3
and 111.7.  A purged lookup still runs the loop over cold views, and pays
a few lines for the check.  A probe loop coming back on warm blocks
shows up here, and nowhere else.  The ``one pass per purged block`` row
resolves the one block the fences bracket and bisects a cold one with a
block-local loop on the same midpoints (no cross-block window test per
probe), and decodes the entry in straight-line code.  The ``no knob
only tests set`` row drops what only test-set parameters cost each
lookup: ``WildfireShard.point_query``'s two ``freshness`` checks,
``admit``'s per-call deadline default and, on a purged exit,
``release_after_query``'s ``intent`` default (calls stayed at 27.2 and
47.8).  The ``reads name their intent`` row is the purged path without
the thread-local: the miss's intent lookup in ``StorageHierarchy.read``
and the exit's ``current_read_intent`` call.

A line event fires per source line of a comprehension per element, so
reflowing code moved that reading with no work added or removed.  The
point test now counts executed bytecodes instead (``opcode`` events, with
``frame.f_trace_opcodes`` set on every traced frame), which reflowing
does not move:

=========================  ======  ======
commit                       warm  purged
=========================  ======  ======
723956d                    1448.7  3599.9
38ecee9 (before)           1452.7  3603.9
no Bloom, no per-key arm   1446.5  3597.6
=========================  ======  ======

Each ceiling was set at the reading times the slack the line ceiling had
over its last reading (250 / 247.0 and 594 / 591.2); a shorter path lowers
it by what it removed, keeping the margin over the reading.  The last row
deleted the per-run Bloom-filter check from ``QueryExecutor.lookup``'s run
loop (calls stayed at 27.2 and 46.8).

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
793ae68 (before the columns)              24.4
rows off the heap                         20.7
per value, not per entry                  18.2
no per-row object on writes               13.7
validated once, columns to the block      12.8
a batch hashed at once, bounds known      11.6
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
index runs).  The ``rows off the heap`` row runs groom and post-groom on
columns: no ``Record`` per groomed row, no ``RID`` or ``Record`` per
migrated version, no ``get_block`` frame behind a memoized
``fetch_record``, no ``RidSplices.__missing__`` per evolved version (the
PSN record publishes the serialized splice map) and no generator per row
in ``_bucket_of``.  The ``per value, not per entry`` row hashes an
equality value once per shard (a memo on the ``ShardIndex``), and the
post-groom sweep reads each predecessor's RID off its entry blob: no
``DataBlockView.entry`` -> decode per predecessor.  The ``no per-row
object on writes`` row is mostly ``RunBuilder``'s fixed cost: the
offset array's bucket bounds are encoded once per definition, not one
``to_bytes`` per bucket per run (256 per run at the default hash bits).
The ``validated once`` row keeps an ingest batch column-major from the
door to the post-groomed block: the shard stages the door's validated
columns without checking them again, the post-groom copies the groomed
blocks' stored encodings instead of encoding its rows a second time,
and the door maps ``ShardMap.route_of`` and ``SlotRoute.write_shard``
over the batch's hashes (no ``ShardMap.write_shard`` frame per row).
Its ceiling keeps a narrower margin than the rows above (12.85, not the
reading 12.79 times 14.5 / 13.7): staging a door's batch through
``validate_rows`` again, as the shard did before this row, reads 12.92
and fails here -- its checks run in C-speed passes, so bytecodes (+4
per row) and collections do not see it.  The ``a batch hashed at once``
row hashes the door's routing keys and the post-groom's partition keys
with ``fnv1a64_column`` (one big-int lane per key, no ``fnv1a64`` frame
per row) and hands the run builder the beginTS bounds the groom and an
unfiltered merge already know.  Its ceiling is 11.70 against a reading
of 11.60 (3.11): hashing per row with ``fnv1a64`` again reads 12.60
calls and 1345.7 bytecodes and fails both ceilings.

Calls cannot see a per-entry Python loop either: ``line`` events per
ingested row over the same load (``sys.settrace``) were the guard:

==============================  ==============
commit                          lines per row
==============================  ==============
4ae6acb (before)                         313.4
per value, not per entry                 288.1
==============================  ==============

The last row tracks ghosts a column at a time (``map`` / ``compress``
over the batch's keys instead of a loop over its rows: 6.2 lines per
row), sorts a permutation of the groom's sort-key column instead of
``(sort_key, blob)`` pairs, hashes a value the shard's memo holds no
more, and keys the post-groom's version chains by a one-column primary
key's value.  The per-row ghost loop coming back read 295.4.

The write test now counts bytecodes per ingested row too, as the point
test does: folding ``IndexRun.block_columns``' four-line blob
comprehension onto one line took the line reading from 260.8 to 241.9
per row and leaves this one at 1421.3.

==============================  ==================
commit                          bytecodes per row
==============================  ==================
723956d (before)                            1588.8
no per-row object on writes                 1421.3
validated once, columns to the block        1350.2
a batch hashed at once, bounds known        1236.7
==============================  ==================

The last row transposes rows into columns with ``map(itemgetter(i),
rows)`` (``zip(*rows)`` makes an iterator per row), keys the ghost memo,
``ghosted`` and a groom's newest versions by a one-column primary key's
value, and keeps only a secondary key's columns outside the primary key
in the memo (calls per row went 18.0 to 13.7 with it).  Its ceiling is
the reading times the slack of the line ceiling (293 / 287.5); the
per-row ghost loop coming back reads 1465.1.

The heap has a budget too: GC-tracked objects retained per loaded row,
counted with ``gc.get_objects()`` after a collection before and after the
same load (imports done first):

==============================  ===============
commit                          tracked per row
==============================  ===============
793ae68 (before)                          1.452
rows off the heap                         0.309
per value, not per entry                  0.154
==============================  ===============

The before row is a ``Record`` dataclass per version the block catalog
ever wrote (7,675 on this fixture) and a ``RID`` per ended version in the
endTS overlay; the catalog now keeps columns of tuples and ints, which the
cyclic collector stops tracking, and one ``{offset: endTS}`` dict per
block.  A per-row object kept for the table's lifetime shows up here --
so does an ``IndexEntry`` the post-groom sweep decodes and memoizes on a
post-groomed block view per predecessor, which the last row stopped
making (0.296 before it).

Tuples of plain values are untracked by the collector, so that count
does not see a memo holding one per row.  Two more readings on the same
load do: generation-0 collections per 1,000 rows through ``ingest`` +
``tick`` (``gc.callbacks``, the thresholds as found, counted from a
collection), and ``tracemalloc`` bytes the table retains per loaded row
(imports done first, a collection before each reading):

==============================  ===========  =============
commit                          gen-0 / 1 k  bytes per row
==============================  ===========  =============
723956d (before)                      8.084          789.1
no per-row object on writes           1.951          658.9
validated once, columns to the block  1.394          658.1
==============================  ===========  =============

Both repeat exactly under ``PYTHONHASHSEED`` 1, 2 and 3.  The before row
transposed with ``zip(*rows)``, whose per-row iterators, all alive at
once, pushed every large post-groom through generation 0 several times,
and kept a primary-key 1-tuple and a ``(secondary value, pk)`` tuple per
row and secondary in the ghost memo for the table's lifetime.
``zip(*rows)`` back in ``encode_columns`` alone reads 2.927 collections,
a memo keyed by 1-tuples 699.0 bytes.  The ``validated once`` row
makes each row's tuple once, in the groom, where the door's zip-back
made one that lived until the shard's re-validation made the next; a
groomed block keeps one offset per column (every value's only on a
table with a partition key; every value's here read 667.6 bytes), so
the bytes stay put.  Python 3.12 reads 11.3 calls, 1280.0 bytecodes,
0.976 collections and 641.4 bytes per row.

And the typed path: ``call`` events per ``table.query`` on the same warmed
fixture, one row per query shape of the e2e ``typed_scatter`` workload
(``customer = c`` full row: secondary scan + fetch-back, 133 rows;
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
one pass through the door     294.7   204.2     205.6         76.2
33ee4fc (before)              278.4   204.2     192.6         75.2
ghosted keys only             206.4   204.2     192.6         75.2
per-row tail                  200.2   198.1     187.3         75.2
bound once per query          174.2   170.1     163.8         75.2
newest versions recorded      172.2   170.1     163.8         75.2
one call per layer            155.2   153.1     146.8         62.2
one vouch per hit             155.2   152.1     146.8         62.2
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
plain lock and no finalizer.  The ``one door per read`` row is
``UmziIndex.scan`` calling ``QueryExecutor.scan`` directly: no
``range_scan`` hop on the facade and the executor, one call per shard
scanned.  The last row is the point path's front-door cut in a typed query: 9 calls per query (the map pin's
``Condition``, the arrival clock and the refill rate), 2 per shard
searched (``HybridClock.now`` -> ``compose_begin_ts``) and 1 per run
released (``is_purged_level``: 12 in a customer query).  The
``ghosted keys only`` row fetches back through the primary only the
winners whose key is in the secondary's ghosted set; this fixture moves
no customer, so a customer query makes no primary ``batch_lookup`` (its
pin, fence search, batch kernel and release) on either shard.  The
``per-row tail`` row is ``IndexRun.scan_visible`` returning one hit list
per run instead of a generator resumed once per block (a frame per block
and per run), with residuals run on the entries and records read as
``(values, beginTS)`` pairs, which cost no calls either way.  The
``bound once per query`` row hands every shard a query reaches one
``Binding``: a second shard that picks the same plan binds no key
arguments or residuals (``key_values``, ``bind_predicates``), encodes no
scan bounds (``compute_scan_bounds`` -> ``_key_prefix`` -> ``_encode``)
and reads its synopsis stamp once, in the scatter prune, not again in its
planner; the shape is compiled once per table.  The routed equality plans
on one shard and stays where it was.  The ``newest versions recorded``
row sorts a fetch-back's winners in one loop (own RID, dropped, or through
the primary, by the ghosted key's recorded newest beginTS) where the
clean case built the RID list in a comprehension: one frame per shard
searched fewer.  The ``one call per layer`` row is the point path's
front-door cut in a typed query: the map pin's four wrapper frames,
admission's five, and per shard searched the executor's
``_enter_query`` / ``_exit_query`` / ``QueryPin.__init__`` and the cache
hook's ``current_read_intent``.  The ``one vouch per hit`` row runs the
fetch-back's per-key vouch on index-only plans too (no ghost gate in the
planner): the vouched rows are projected by C getters over ``zip`` /
``map``, so ``_project_entries`` and its comprehension are two frames
fewer per shard searched, less the ``bind_predicates`` frame and two
``Predicate`` frames the region plan's record checks now bind once per
query; the fetch-back reads its vouched RIDs the same way.
"""

import gc
import importlib.util
import sys
import tracemalloc
from pathlib import Path

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"

BEFORE = {"warm": 357.9, "purged": 508.4}
CEILING = {"warm": 30.0, "purged": 50.0}
OPCODE_CEILING = {"warm": 1460.0, "purged": 3611.0}

WRITE_BEFORE = 114.2
WRITE_CEILING = 11.70
WRITE_OPCODE_CEILING = 1265.0
HEAP_BEFORE = 1.452
HEAP_CEILING = 0.20
GC0_BEFORE = 8.084
GC0_CEILING = 1.8
BYTES_BEFORE = 789.1
BYTES_CEILING = 679.0

TYPED_BEFORE = {
    "customer": 11308.5, "region": 2112.6, "range": 3235.7, "equality": 282.6,
}
TYPED_CEILING = {
    "customer": 158.0, "region": 155.0, "range": 150.0, "equality": 65.0,
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


def loaded_table(profiler=None, tracer=None, gc_callback=None):
    """The fixture; ``profiler`` (``sys.setprofile``), ``tracer``
    (``sys.settrace``) and ``gc_callback`` (``gc.callbacks``) are
    installed around each ingest + tick."""
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
        if gc_callback is not None:
            gc.callbacks.append(gc_callback)
        sys.setprofile(profiler)
        sys.settrace(tracer)
        try:
            table.ingest(rows)
            table.tick()
        finally:
            sys.settrace(None)
            sys.setprofile(None)
            if gc_callback is not None:
                gc.callbacks.remove(gc_callback)
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


def opcode_tracer():
    """A ``sys.settrace`` tracer counting executed bytecodes (``opcode``
    events, no ``line`` events) and its count: unlike a line count, it
    does not move when code is reflowed across source lines."""
    count = [0]

    def tracer(frame, event, arg):
        if event == "opcode":
            count[0] += 1
        elif event == "call":
            frame.f_trace_opcodes, frame.f_trace_lines = True, False
        return tracer

    return tracer, count


def opcodes_per_query(table, keys):
    """Mean Python ``opcode`` events inside ``point_query`` over ``keys``."""
    tracer, count = opcode_tracer()
    point_query, advance = table.point_query, table.advance_clock
    gc.collect()
    gc.disable()
    try:
        for key in keys:
            advance(ARRIVAL_GAP_NS)
            sys.settrace(tracer)
            try:
                row = point_query((), (key,))
            finally:
                sys.settrace(None)
            assert row is not None and row.values[0] == key
    finally:
        gc.enable()
    return count[0] / len(keys)


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
    opcodes = {"warm": opcodes_per_query(table, keys)}
    for shard in table.shards:
        for shard_index in shard.indexes.all():
            shard_index.index.cache.set_cache_level(-1)
    measured["purged"] = calls_per_query(table, keys)
    opcodes["purged"] = opcodes_per_query(table, keys)

    for regime, ceiling in CEILING.items():
        assert ceiling <= 0.65 * BEFORE[regime]
        assert measured[regime] <= ceiling, (
            f"{regime}: {measured[regime]:.1f} Python calls per point_query, "
            f"budget {ceiling} (was {BEFORE[regime]} before the kernel)"
        )
    for regime, ceiling in OPCODE_CEILING.items():
        assert opcodes[regime] <= ceiling, (
            f"{regime}: {opcodes[regime]:.1f} bytecodes per point_query, "
            f"budget {ceiling}"
        )


def test_tracked_objects_retained_per_loaded_row_stay_under_budget():
    load_make_table()  # imports are not the table's
    gc.collect()
    before = len(gc.get_objects())
    table, _order = loaded_table()
    gc.collect()
    retained = (len(gc.get_objects()) - before) / loaded_rows()
    assert table.shards and HEAP_CEILING <= 0.5 * HEAP_BEFORE
    assert retained <= HEAP_CEILING, (
        f"{retained:.3f} GC-tracked objects retained per loaded row, budget "
        f"{HEAP_CEILING} (was {HEAP_BEFORE} with a Record per row)"
    )


def loaded_rows():
    """Rows the fixture ingests: every key once plus the re-upserts."""
    return ROWS + (ROWS // BATCH - 1) * (BATCH // 5)


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
    measured = calls / loaded_rows()
    assert WRITE_CEILING <= 0.65 * WRITE_BEFORE
    assert measured <= WRITE_CEILING, (
        f"{measured:.1f} Python calls per ingested row through ingest + tick, "
        f"budget {WRITE_CEILING} (was {WRITE_BEFORE} before the block-and-"
        "column maintenance kernel)"
    )


def test_bytecodes_per_ingested_row_stay_under_budget():
    tracer, count = opcode_tracer()
    gc.collect()
    gc.disable()
    try:
        loaded_table(tracer=tracer)
    finally:
        gc.enable()
    measured = count[0] / loaded_rows()
    assert measured <= WRITE_OPCODE_CEILING, (
        f"{measured:.1f} bytecodes per ingested row through ingest + tick, "
        f"budget {WRITE_OPCODE_CEILING}"
    )


def test_young_collections_per_loaded_row_stay_under_budget():
    counted = [0]

    def on_collection(phase, info):
        if phase == "start" and info["generation"] == 0:
            counted[0] += 1

    load_make_table()
    gc.collect()  # thresholds as found, generation counts from zero
    loaded_table(gc_callback=on_collection)
    measured = 1000 * counted[0] / loaded_rows()
    assert GC0_CEILING <= 0.65 * GC0_BEFORE
    assert measured <= GC0_CEILING, (
        f"{measured:.2f} generation-0 collections per 1,000 rows through "
        f"ingest + tick, budget {GC0_CEILING} (was {GC0_BEFORE} with a "
        "per-row iterator per transpose and tuple-keyed ghost memos)"
    )


def test_bytes_retained_per_loaded_row_stay_under_budget():
    load_make_table()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table, _order = loaded_table()
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - before) / loaded_rows()
    finally:
        tracemalloc.stop()
    assert table.shards and BYTES_CEILING < BYTES_BEFORE
    assert retained <= BYTES_CEILING, (
        f"{retained:.0f} bytes retained per loaded row, budget "
        f"{BYTES_CEILING} (was {BYTES_BEFORE} with tuple-keyed ghost memos)"
    )
