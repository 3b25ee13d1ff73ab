"""Tests for the multi-shard table layer."""

import threading

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.core.encoding import EncodingError
from repro.core.query import QueryError
from repro.planner import PlanError, Query
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, SchemaError, TableSchema


def make_table(num_shards=4, post_groom_every=2):
    schema = TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    spec = IndexSpec(("device",), ("msg",), ("reading",))
    return ShardedTable(
        schema, spec, num_shards=num_shards,
        config=ShardConfig(post_groom_every=post_groom_every),
    )


class TestRouting:
    def test_same_device_same_shard(self):
        table = make_table()
        assert table.shard_of_row((7, 1, 0)) == table.shard_of_row((7, 99, 0))

    def test_devices_spread_across_shards(self):
        table = make_table(num_shards=4)
        shards = {table.shard_of_row((d, 0, 0)) for d in range(64)}
        assert len(shards) == 4

    def test_routing_deterministic(self):
        a, b = make_table(), make_table()
        for d in range(20):
            assert a.shard_of_row((d, 0, 0)) == b.shard_of_row((d, 0, 0))

    def test_sharding_key_required(self):
        schema = TableSchema(
            name="t", columns=(ColumnSpec("k"),), primary_key=("k",),
        )
        with pytest.raises(SchemaError):
            ShardedTable(schema, IndexSpec(equality_columns=("k",)),
                         num_shards=2)

    def test_bad_shard_count(self):
        with pytest.raises(ValueError):
            make_table(num_shards=0)


class TestRoutingOnTypedShardingValues:
    """Rows and lookups route on the sharding values ``upsert`` stores.

    The front doors used to hash the *raw* values while the shard
    normalised them afterwards, so on a FLOAT64 sharding column a key
    ingested as the int 3 sat on the shard of ``hash(3)`` and was looked
    for on the shard of ``hash(3.0)``.
    """

    @staticmethod
    def float_keyed_table():
        schema = TableSchema(
            name="f",
            columns=(ColumnSpec("k", ColumnType.FLOAT64), ColumnSpec("v")),
            primary_key=("k",),
            sharding_key=("k",),
        )
        return ShardedTable(schema, IndexSpec(sort_columns=("k",)), num_shards=4)

    def test_every_key_found_under_both_spellings(self):
        table = self.float_keyed_table()
        table.ingest([(k, k) for k in range(50)])  # ints into FLOAT64
        table.tick()
        for k in range(50):
            as_float = table.point_query((), (float(k),))
            as_int = table.point_query((), (k,))
            assert as_float is not None and as_float.values == (float(k), k)
            assert as_int == as_float
            assert table.shard_of_row((k, 0)) == table.shard_of_key((float(k),))
        assert len({table.shard_of_key((k,)) for k in range(50)}) == 4

    @pytest.mark.parametrize("bad", ["3", None, True, float("nan"), b"3"])
    def test_an_out_of_type_sharding_value_is_refused_before_routing(self, bad):
        table = self.float_keyed_table()
        # The write door: upsert's own error, but before any row is routed
        # -- nothing of the batch reaches any shard.
        with pytest.raises(EncodingError, match="column 'k'"):
            table.ingest([(1.0, 1), (bad, 2), (3.0, 3)])
        assert all(len(shard.committed_log) == 0 for shard in table.shards)
        with pytest.raises(EncodingError):
            table.shard_of_key((bad,))
        # The read doors refuse it too, worded by ``ColumnSpec.validate``
        # like ``query``'s predicates: column, declared type and value.
        # (A bool used to pass as 1.0, and the others leaked the encoder's
        # own text: "'<=' not supported between ...".)
        refusal = {
            "'3'": "column 'k' expects float64, got str ('3')",
            "None": "column 'k' expects float64, got NoneType (None)",
            "True": "column 'k' expects float64, got bool (True)",
            "nan": "column 'k': NaN is not orderable",
            "b'3'": "column 'k' expects float64, got bytes (b'3')",
        }[repr(bad)]
        table.ingest([(float(k), k) for k in range(8)])
        table.tick()
        with pytest.raises(PlanError) as refused:
            table.point_query((), (bad,))
        assert str(refused.value) == f"sharding key: {refusal}"
        # A range bound routes nothing (the query scatters); the typed door
        # refuses it like any predicate value, never as a bare
        # EncodingError.  ``None`` is an open bound there, not a value.
        if bad is not None:
            for low, high in [(bad, 10.0), (0.0, bad)]:
                with pytest.raises(PlanError) as refused:
                    table.query(Query(ranges=(("k", low, high),)))
                assert str(refused.value) == f"query predicate: {refusal}"

    @pytest.mark.parametrize("bad,refusal", [
        (True, "column 'device' expects int64, got bool (True)"),
        (1.0, "column 'device' expects int64, got float (1.0)"),
        ("2", "column 'device' expects int64, got str ('2')"),
        (float("nan"), "column 'device' expects int64, got float (nan)"),
        (2**70, "column 'device': integer 1180591620717411303424 outside "
                "signed 64-bit range"),
    ], ids=["bool", "float", "str", "nan", "beyond-int64"])
    def test_routed_doors_refuse_what_ingest_refuses(self, bad, refusal):
        """INT64 sharding key bound by the equality column: the point and
        the typed door both route, and both refuse before any shard is
        asked.  ``True`` used to be answered as device 1."""
        table = make_table()
        table.ingest([(d, m, d) for d in range(4) for m in range(3)])
        table.tick()
        assert table.point_query((1,), (1,)).values == (1, 1, 1)
        for door, refused_as in (
            (lambda: table.point_query((bad,), (1,)), "sharding key"),
            (lambda: table.query(Query(
                equalities=(("device", bad),), ranges=(("msg", 0, 2),),
            )), "query predicate"),
        ):
            with pytest.raises(PlanError) as refused:
                door()
            assert str(refused.value) == f"{refused_as}: {refusal}"
        # A key value that routes nothing is refused by the shard's index.
        with pytest.raises(QueryError, match="column 'msg' expects int64, got bool"):
            table.point_query((1,), (True,))

    def test_an_int_still_finds_the_float_it_was_stored_as(self):
        table = self.float_keyed_table()
        table.ingest([(2.0, 7)])
        table.tick()
        assert table.point_query((), (2,)).values == (2.0, 7)
        assert table.query(Query(ranges=(("k", 1, 3),))) == [(2.0, 7)]


class TestRefusedBatchCommitsNothing:
    """A batch refused for one bad value commits nothing on any shard.

    The per-row door routed every row first and then ingested shard by
    shard, so the shards ingested before the bad row's shard had already
    committed their rows (21 of 40 on two shards).  The refusal itself --
    exception type and message -- is still the per-row door's.
    """

    @staticmethod
    def table():
        schema = TableSchema(
            name="iot",
            columns=(
                ColumnSpec("device"),
                ColumnSpec("msg"),
                ColumnSpec("reading", ColumnType.FLOAT64),
            ),
            primary_key=("device", "msg"),
            sharding_key=("device",),
        )
        return ShardedTable(
            schema, IndexSpec(("device",), ("msg",), ("reading",)), num_shards=2
        )

    @pytest.mark.parametrize("bad_row,error,message", [
        (lambda d: (d, True, 1.0), EncodingError,
         "column 'msg' expects int64, got bool (True)"),
        (lambda d: (d, "not-an-int", 1.0), EncodingError,
         "column 'msg' expects int64, got str ('not-an-int')"),
        (lambda d: (d, 2**63, 1.0), EncodingError,
         "column 'msg': integer 9223372036854775808 outside signed 64-bit range"),
        (lambda d: (d, 1, float("nan")), EncodingError,
         "column 'reading': NaN is not orderable"),
        (lambda d: (d, 1), SchemaError,
         "row has 2 values; schema 'iot' has 3 columns"),
    ], ids=["bool", "str-in-int64", "2**63", "nan", "short-row"])
    def test_a_refused_batch_commits_nothing(self, bad_row, error, message):
        table = self.table()
        rows = [(d, 1, d / 2) for d in range(40)]
        # The bad row sits on the shard the batch reaches second.
        first = table.shard_of_key((0,))
        victim = next(d for d in range(40) if table.shard_of_key((d,)) != first)
        rows[victim] = bad_row(victim)
        with pytest.raises(error) as refused:
            table.ingest(rows)
        assert type(refused.value) is error and str(refused.value) == message
        assert all(len(shard.committed_log) == 0 for shard in table.shards)
        table.tick()
        assert [d for d in range(40) if table.point_query((d,), (1,))] == []
        # The rest of the batch, resent without its bad row, all lands.
        del rows[victim]
        assert sum(table.ingest(rows).values()) == 39
        table.tick()
        for device, msg, reading in rows:
            assert table.point_query((device,), (msg,)).values == (
                device, msg, reading,
            )


class TestIngestAndQuery:
    def test_ingest_routes_rows(self):
        table = make_table()
        distribution = table.ingest([(d, 0, d) for d in range(40)])
        assert sum(distribution.values()) == 40
        assert len(distribution) > 1

    def test_point_query_routed(self):
        table = make_table()
        table.ingest([(d, 1, d * 10) for d in range(16)])
        table.tick()
        for d in (0, 7, 15):
            record = table.point_query((d,), (1,))
            assert record.values == (d, 1, d * 10)

    def test_routed_range_query(self):
        table = make_table()
        table.ingest([(3, m, m) for m in range(10)])
        table.tick()
        rows = table.query(
            Query(equalities=(("device", 3),), ranges=(("msg", 2, 5),))
        )
        assert [row[1] for row in rows] == [2, 3, 4, 5]

    def test_upsert_goes_to_same_shard(self):
        table = make_table()
        table.ingest([(5, 1, 100)])
        table.tick()
        table.ingest([(5, 1, 200)])
        table.tick()
        assert table.point_query((5,), (1,)).values == (5, 1, 200)

    def test_stats_aggregate(self):
        table = make_table()
        table.ingest([(d, 0, 0) for d in range(20)])
        table.tick()
        stats = table.stats()
        assert stats["total_entries"] == 20
        assert stats["num_shards"] == 4

    def test_stats_rolls_up_every_shard_sub_ledger(self):
        """ISSUE 8 regression: the cluster ``io`` rollup must equal the
        field-for-field sum of the shard ledgers (plus the cluster's own),
        sub-ledgers included -- the old rollup dropped everything below
        the top-level tier sums."""
        table = make_table()
        table.ingest([(d, m, d) for d in range(20) for m in range(3)])
        table.run_cycles(3)
        for d in range(20):
            assert table.point_query((d,), (1,)) is not None

        merged = table.stats()["io"]
        shard_ledgers = [shard.hierarchy.stats for shard in table.shards]
        # Tier counters: per-tier sums survive the merge.
        for tier in ("memory", "ssd", "shared"):
            expected = sum(s.tier(tier).reads for s in shard_ledgers)
            assert merged.tier(tier).reads == expected
            expected_ns = sum(s.tier(tier).sim_ns for s in shard_ledgers)
            assert merged.tier(tier).sim_ns == expected_ns
        # Decode / epoch sub-ledgers: someone decoded entries and every
        # query pinned a run-list version on its shard's own ledger.
        assert merged.decode.entry_decodes == sum(
            s.decode.entry_decodes for s in shard_ledgers
        )
        assert merged.decode.entry_decodes > 0
        shard_refs = sum(s.epochs.version_refs for s in shard_ledgers)
        # The cluster ledger adds the routing-map pins on top.
        assert merged.epochs.version_refs == (
            shard_refs + table.epoch_stats().version_refs
        )
        assert table.epoch_stats().version_refs > 0
        # The rollup is a snapshot, not an alias of any live ledger.
        before = merged.decode.entry_decodes
        table.point_query((0,), (1,))
        assert merged.decode.entry_decodes == before


class TestLifecycleIndependence:
    def test_full_lifecycle_on_all_shards(self):
        table = make_table(post_groom_every=1)
        table.ingest([(d, m, 0) for d in range(8) for m in range(4)])
        table.run_cycles(2)
        for shard in table.shards:
            if shard.index.stats().total_entries:
                assert shard.index.indexed_psn >= 1

    def test_one_shard_crash_does_not_affect_others(self):
        table = make_table()
        table.ingest([(d, 1, d) for d in range(16)])
        table.run_cycles(3)
        victim = table.shard_of_row((3, 1, 0))
        table.crash_and_recover_shard(victim)
        for d in range(16):
            assert table.point_query((d,), (1,)) is not None

    def test_recovery_with_live_daemons_on_other_shards(self):
        """ISSUE 7 satellite: one shard crash-recovers while the *other*
        shards' daemons keep running -- and the survivors answer
        byte-identically throughout the recovery window."""
        table = make_table(num_shards=3)
        table.ingest([(d, m, d * 100 + m) for d in range(24) for m in range(3)])
        table.run_cycles(4)
        victim = table.shard_of_row((0, 0, 0))
        definition = table.shards[0].index.definition

        def survivor_blobs():
            blobs = {}
            for d in range(24):
                shard_id = table.shard_of_row((d, 0, 0))
                if shard_id == victim:
                    continue
                for m in range(3):
                    entry = table.shards[shard_id].index_lookup((d,), (m,))
                    blobs[(d, m)] = entry.to_blob(definition)
            return blobs

        baseline = survivor_blobs()
        assert baseline  # the victim did not swallow every device

        for shard_id, shard in enumerate(table.shards):
            if shard_id != victim:
                shard.start_daemons(groom_interval_s=0.002)
        stop = threading.Event()
        mismatches = []

        def probe():
            while not stop.is_set():
                for key, blob in baseline.items():
                    shard_id = table.shard_of_row((key[0], 0, 0))
                    entry = table.shards[shard_id].index_lookup(
                        (key[0],), (key[1],)
                    )
                    if entry is None or entry.to_blob(definition) != blob:
                        mismatches.append(key)
                        return

        prober = threading.Thread(target=probe, daemon=True)
        prober.start()
        try:
            # Fresh rows keep the survivors' daemons genuinely busy
            # while the victim recovers.
            table.ingest(
                [(d, 10 + m, d) for d in range(24) for m in range(2)
                 if table.shard_of_row((d, 0, 0)) != victim]
            )
            table.crash_and_recover_shard(victim)
        finally:
            stop.set()
            prober.join(timeout=5.0)
            for shard_id, shard in enumerate(table.shards):
                if shard_id != victim:
                    shard.stop_daemons()
        assert mismatches == []
        # Survivors still match the pre-crash baseline exactly ...
        assert survivor_blobs() == baseline
        # ... the recovered victim serves again, and the rows ingested
        # during the window land once the lifecycle drains.
        table.run_cycles(4)
        for d in range(24):
            assert table.point_query((d,), (1,)).values == (d, 1, d * 100 + 1)
            if table.shard_of_row((d, 0, 0)) != victim:
                assert table.point_query((d,), (10,)).values == (d, 10, d)
