"""Fetch back only what a shard cannot vouch for, against the fetch-back
of every hit.

A fetch-back plan reads a winner's own RID when its primary key is not in
the secondary's ``ghosted`` map or its beginTS is the key's recorded
newest version, drops a ghosted winner whose recorded newer version every
index of the read holds, and resolves only the rest through the primary.
``tests/reference_fetch_back.py`` keeps the executor that sent every
winner through the primary.  Seeded rounds of upserts -- some moving
``customer`` and/or ``region``, some changing only ``amount``, with ticks
(grooms, post-grooms, evolves) between rounds and one split and one merge
on the way -- feed a 2-shard table carrying both e2e secondaries and a
``planner="baseline"`` twin.  After every round, customer and region
queries, full-row and projected, at the latest snapshot and AS-OF a
snapshot taken mid-stream, must give the same rows three ways: the
shortcut, the reference executor on the same table and the twin's primary
path.  The keys the shortcut hands to the primary's ``batch_lookup`` must
be exactly the winners ``reference_fetch_back.unvouched_keys`` names (no
call when there are none), every recorded beginTS must be its key's
newest version in the primary and the secondary, and the live shards'
ghosted keys must add up to exactly the keys whose secondary key ever
moved.

The other tests pin the cases the rule must send through the primary: an
AS-OF read from before a move, a read racing a groom, a groom publishing
between a read's scan and its fetch-back, one publishing between a read's
horizon and its scan (index-only and fetch-back), a crash between two
indexes' publications, and keys adopted at a split and a merge.
"""

import random

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.faults.errors import SimulatedCrash
from repro.planner import Query
from repro.planner.plan import Binding
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

from tests import reference_fetch_back

KEYS = 90
CUSTOMERS = 6
REGIONS = 4
ROUNDS = 8
SNAPSHOT_AFTER, SPLIT_AFTER, MERGE_AFTER = 2, 3, 5


def make_table(planner):
    schema = TableSchema(
        name="orders",
        columns=(
            ColumnSpec("order_id"),
            ColumnSpec("customer", ColumnType.STRING),
            ColumnSpec("region", ColumnType.STRING),
            ColumnSpec("amount"),
        ),
        primary_key=("order_id",),
        sharding_key=("order_id",),
    )
    config = ShardConfig(
        planner=planner,
        post_groom_every=3,
        secondary_indexes={
            "by_customer": IndexSpec(
                equality_columns=("customer",), included_columns=("amount",)
            ),
            "by_region": IndexSpec(
                sort_columns=("region",), included_columns=("amount",)
            ),
        },
    )
    return ShardedTable(
        schema, IndexSpec(sort_columns=("order_id",)), num_shards=2,
        config=config,
    )


def upserts(rng, latest):
    """One round's rows: new keys, moves of customer and/or region, and
    amount-only updates (which ghost nothing)."""
    rows = []
    for _ in range(24):
        key = rng.randrange(KEYS)
        previous = latest.get(key)
        customer = f"c{rng.randrange(CUSTOMERS)}"
        region = f"r{rng.randrange(REGIONS)}"
        amount = rng.randrange(3000)
        if previous is not None:
            kind = rng.choice(["customer", "region", "both", "amount", "amount"])
            if kind not in ("customer", "both"):
                customer = previous[1]
            if kind not in ("region", "both"):
                region = previous[2]
        latest[key] = row = (key, customer, region, amount)
        rows.append(row)
    return rows


def queries(query_ts):
    for c in range(CUSTOMERS):
        yield Query(equalities=(("customer", f"c{c}"),), query_ts=query_ts)
        yield Query(equalities=(("customer", f"c{c}"),),
                    projection=("order_id", "amount"), query_ts=query_ts)
    for r in range(REGIONS):
        yield Query(equalities=(("region", f"r{r}"),), query_ts=query_ts)
        yield Query(equalities=(("region", f"r{r}"),),
                    ranges=(("amount", 500, 2500),),
                    projection=("region", "amount"), query_ts=query_ts)


def expected_batch(shard, query):
    """The batches a fetch-back must hand the primary: one holding the
    winners the shard cannot vouch for, or none."""
    plan = shard.plan_query(query, Binding(shard.schema, query))
    ts = query.query_ts if query.query_ts is not None else shard.clock.snapshot_ts
    keys = reference_fetch_back.unvouched_keys(shard, plan, ts)
    return [list(map(shard._primary_key_of_pk, keys))] if keys else []


def live_shards(table):
    return [table.shards[shard_id] for shard_id in table.live_shard_ids()]


def check_records(table):
    """Every recorded beginTS names its key's newest version, and the
    secondary holds that version."""
    for shard in live_shards(table):
        for shard_index in shard.indexes.secondaries.values():
            for pk, newest in shard_index.ghosted.items():
                if newest is not None:
                    assert reference_fetch_back.newest_begin_ts_in(
                        shard, shard_index, pk
                    ) == (newest, newest), (shard_index.name, pk)


def check(table, twin, query):
    """Shortcut == reference on ``table`` (== ``twin``'s answer, unless
    ``twin`` is None), with exactly the unvouched keys fetched back;
    returns how many keys were."""
    live = live_shards(table)
    expected = {id(shard): expected_batch(shard, query) for shard in live}
    batches = {id(shard): [] for shard in live}
    for shard in live:
        def batch_lookup(keys, ts, _inner=shard.index.batch_lookup,
                         _seen=batches[id(shard)]):
            _seen.append(list(keys))
            return _inner(keys, ts)
        shard.index.batch_lookup = batch_lookup
    try:
        answer = table.query(query)
    finally:
        for shard in live:
            del shard.index.batch_lookup
    assert batches == expected, query
    for shard in live:
        reference_fetch_back.install(shard)
    try:
        reference = table.query(query)
    finally:
        for shard in live:
            reference_fetch_back.uninstall(shard)
    assert answer == reference, query
    if twin is not None:
        assert answer == twin.query(query), query
    return sum(len(keys) for seen in batches.values() for keys in seen)


def moved_keys(history, column):
    return {key for key, values in history.items() if len(values[column]) > 1}


@pytest.mark.parametrize("seed", [0, 1])
def test_ghosted_fetch_back_matches_reference_and_baseline(seed):
    rng = random.Random(seed)
    table, twin = make_table("smart"), make_table("baseline")
    latest, history = {}, {}
    snapshot = None
    successors = None
    for round_no in range(ROUNDS):
        rows = upserts(rng, latest)
        for row in rows:
            seen = history.setdefault(row[0], {1: set(), 2: set()})
            seen[1].add(row[1])
            seen[2].add(row[2])
        ticks = rng.randint(1, 2)
        for t in (table, twin):
            t.ingest(rows)
            for _ in range(ticks):
                t.tick()
        if round_no == SNAPSHOT_AFTER:
            snapshot = min(
                table.shards[shard_id].clock.snapshot_ts
                for shard_id in table.live_shard_ids()
            )
        if round_no == SPLIT_AFTER:
            split = table.split_shard(0)
            assert twin.split_shard(0)["successors"] == split["successors"]
            successors = split["successors"]
        if round_no == MERGE_AFTER:
            merged = table.merge_shards(*successors)
            assert twin.merge_shards(*successors)["target"] == merged["target"]
        for name, column in (("by_customer", 1), ("by_region", 2)):
            ghosted = set().union(*[
                table.shards[shard_id].indexes.get(name).ghosted
                for shard_id in table.live_shard_ids()
            ])
            assert ghosted == moved_keys(history, column), name
        check_records(table)
        for query in queries(None):
            check(table, twin, query)
        if snapshot is not None:
            for query in queries(snapshot):
                check(table, twin, query)


def grow(rng, latest, *tables, rounds=3):
    """``rounds`` of upserts, each ingested and groomed on every table."""
    for _ in range(rounds):
        rows = upserts(rng, latest)
        for t in tables:
            t.ingest(rows)
            t.tick()


def test_an_as_of_read_before_a_move_fetches_the_moved_key_back():
    table, twin = make_table("smart"), make_table("baseline")
    rows = [(k, f"c{k % CUSTOMERS}", f"r{k % REGIONS}", k) for k in range(KEYS)]
    moves = [
        (k, f"c{(k + 1) % CUSTOMERS}", f"r{(k + 1) % REGIONS}", k + 1)
        for k in range(0, KEYS, 7)
    ]
    for t in (table, twin):
        t.ingest(rows)
        t.tick()
    before_move = min(shard.clock.snapshot_ts for shard in live_shards(table))
    for t in (table, twin):
        t.ingest(moves)
        t.run_cycles(2)
    # Before the move, each moved key's old entry is its visible version
    # but not its newest: only the primary can say so.
    assert sum(check(table, twin, query) for query in queries(before_move)) > 0
    # At the latest snapshot every moved key's newest version is in every
    # index: a stale hit is dropped, the newest answers for itself.
    assert sum(check(table, twin, query) for query in queries(None)) == 0
    check_records(table)


def test_a_read_racing_a_groom_answers_as_the_reference():
    table = make_table("smart")
    rng, latest = random.Random(7), {}
    grow(rng, latest, table)
    raced = []
    for shard in live_shards(table):
        # by_region publishes last: the primary and by_customer already
        # hold the groom's run, the snapshot does not cover it yet.
        index = shard.indexes.get("by_region").index

        def racing(*args, _inner=index.add_groomed_columns, **kwargs):
            check_records(table)
            for query in queries(None):
                check(table, None, query)
            raced.append(_inner)
            return _inner(*args, **kwargs)

        index.add_groomed_columns = racing
    table.ingest(upserts(rng, latest))
    table.tick()
    for shard in live_shards(table):
        del shard.indexes.get("by_region").index.add_groomed_columns
    assert len(raced) == 2
    check_records(table)
    for query in queries(None):
        check(table, None, query)


def test_a_groom_overtaking_a_reads_scan_leaves_its_version_to_the_primary():
    # Order 5 moved from c1 to c2, so its key is ghosted with its c2
    # version recorded; a newer c2 version waits in the live log.  A read
    # far in the future scans by_customer, and only then does that
    # version's groom publish and record it: the read's scan never saw
    # it, so the c2 hit it holds must go through the primary, not be
    # dropped for a newer version that will not answer for itself.
    table = make_table("smart")
    for amount, customer in ((10, "c1"), (20, "c2")):
        table.ingest([(5, customer, "r1", amount)])
        table.tick()
    table.ingest([(5, "c2", "r1", 30)])
    shard = table.shards[table.shard_of_key((5,))]
    index = shard.indexes.get("by_customer").index

    def scan(*args, _inner=index.scan):
        hits = _inner(*args)
        del index.scan
        shard.tick()
        return hits

    index.scan = scan
    rows = table.query(Query(equalities=(("customer", "c2"),), query_ts=2**62))
    assert "scan" not in vars(index), "the query never scanned by_customer"
    assert rows == [(5, "c2", "r1", 30)]


@pytest.mark.parametrize("projection", [("order_id", "amount"), None])
def test_a_groom_publishing_before_a_reads_scan_answers_a_key_once(projection):
    # Order 5 sits in r1 and its move to r2 waits in the live log.  A read
    # far in the future reads its horizon, then that groom publishes and
    # records the r2 version before the read scans by_region over r1..r2:
    # the scan holds both entries, the new one vouched (its key's recorded
    # newest) and the old one doubtful (recorded newest above the
    # horizon).  The vouched hit is the answer; the primary must not add
    # the same version a second time.
    table = make_table("smart")
    table.ingest([(5, "c1", "r1", 10)])
    table.tick()
    table.ingest([(5, "c1", "r2", 20)])
    shard = table.shards[table.shard_of_key((5,))]
    query = Query(ranges=(("region", "r1", "r2"),), projection=projection,
                  query_ts=2**62)
    plan = shard.explain(query)
    assert plan["index"] == "by_region", plan
    assert plan["index_only"] == (projection is not None), plan
    index = shard.indexes.get("by_region").index

    def scan(*args, _inner=index.scan):
        del index.scan
        shard.tick()
        return _inner(*args)

    index.scan = scan
    rows = table.query(query)
    assert "scan" not in vars(index), "the query never scanned by_region"
    assert shard.indexes.get("by_region").ghosted == {
        5: shard.index.lookup((), (5,), 2**62).begin_ts
    }
    assert rows == ([(5, 20)] if projection else [(5, "c1", "r2", 20)])


def test_a_crash_between_two_indexes_publications_leaves_its_keys_unvouched():
    table, twin = make_table("smart"), make_table("baseline")
    rng, latest = random.Random(11), {}
    grow(rng, latest, table, twin)
    rows = upserts(rng, latest)
    for t in (table, twin):
        t.ingest(rows)
    twin.tick()
    shard = table.shards[0]
    index = shard.indexes.get("by_region").index

    def crash(*args, **kwargs):
        raise SimulatedCrash("groom.between_publications", 1)

    index.add_groomed_columns = crash
    with pytest.raises(SimulatedCrash):
        table.tick()
    del index.add_groomed_columns
    shard.crash_and_recover()
    # The primary and by_customer hold the lost groom's versions, by_region
    # does not, and no record names them.
    assert None in shard.indexes.get("by_customer").ghosted.values()
    check_records(table)
    for query in queries(None):
        check(table, None, query)
    # Later grooms move the snapshot past the lost versions, which only
    # some indexes hold: the ghosted keys among them stay unrecorded.  (A
    # clean key's lost version is then read through the primary but not
    # through by_region, here and before ghosts had records alike, so
    # answers are compared again once the replay has landed.)
    fresh = [(KEYS + k, "c0", "r0", k) for k in range(8)]
    for t in (table, twin):
        t.ingest(fresh)
        t.run_cycles(2)
    check_records(table)
    # The lost rows come back as a replay of the live log would bring
    # them: upserted again.
    table.ingest(rows)
    table.run_cycles(2)
    check_records(table)
    for query in queries(None):
        check(table, twin, query)


def test_keys_adopted_at_split_and_merge_are_unvouched_until_groomed_again():
    table, twin = make_table("smart"), make_table("baseline")
    rng, latest = random.Random(3), {}
    grow(rng, latest, table, twin)

    def adopted_records(shard_ids):
        return [
            newest for shard_id in shard_ids
            for newest in table.shards[shard_id].indexes.get("by_customer")
            .ghosted.values()
        ]

    successors = table.split_shard(0)["successors"]
    assert twin.split_shard(0)["successors"] == successors
    # The copy brought every version the source held: no key the
    # successors took over has a record, so a stale hit of one goes
    # through the primary.
    records = adopted_records(successors)
    assert records and set(records) == {None}
    assert sum(check(table, twin, query) for query in queries(None)) > 0
    grow(rng, latest, table, twin, rounds=2)
    assert set(adopted_records(successors)) - {None}
    check_records(table)
    for query in queries(None):
        check(table, twin, query)

    target = table.merge_shards(*successors)["target"]
    assert twin.merge_shards(*successors)["target"] == target
    records = adopted_records([target])
    assert records and set(records) == {None}
    assert sum(check(table, twin, query) for query in queries(None)) > 0
    grow(rng, latest, table, twin, rounds=2)
    assert set(adopted_records([target])) - {None}
    check_records(table)
    for query in queries(None):
        check(table, twin, query)
