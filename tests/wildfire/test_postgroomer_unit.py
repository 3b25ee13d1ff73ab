"""Focused unit tests for the post-groomer (paper section 2.1)."""

import functools
import itertools
import random

import pytest

from repro.core.definition import ColumnSpec
from repro.core.encoding import encode_ts_desc
from repro.core.entry import RID, Zone
from repro.storage.block import BlockId
from repro.storage.metrics import ReadIntent
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema

from tests.conftest import block_records
from tests.reference_postgroom import (
    per_key_repartition_and_write,
    reencoded_payload,
    reference_migrate,
    sweep_repartition_and_write,
)


def make_shard(partition_buckets=3, secondary_indexes=None):
    schema = TableSchema(
        name="pg",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    return WildfireShard(
        schema, IndexSpec(("device",), ("msg",), ("reading",)),
        config=ShardConfig(post_groom_every=100,  # manual post-grooms only
                           partition_buckets=partition_buckets,
                           secondary_indexes=secondary_indexes),
    )


class TestPsnMetadata:
    def test_psns_are_consecutive(self):
        shard = make_shard()
        for batch in range(3):
            shard.ingest([(batch, 0, 0)])
            shard.groomer.groom()
            op = shard.post_groomer.post_groom()
            assert op.psn == batch + 1

    def test_op_covers_exactly_new_groomed_range(self):
        shard = make_shard()
        shard.ingest([(1, 1, 0)])
        shard.groomer.groom()  # gid 0
        shard.ingest([(1, 2, 0)])
        shard.groomer.groom()  # gid 1
        first = shard.post_groomer.post_groom()
        assert (first.min_groomed_id, first.max_groomed_id) == (0, 1)
        shard.ingest([(1, 3, 0)])
        shard.groomer.groom()  # gid 2
        second = shard.post_groomer.post_groom()
        assert (second.min_groomed_id, second.max_groomed_id) == (2, 2)

    def test_last_post_groomed_gid_tracked(self):
        shard = make_shard()
        assert shard.post_groomer.post_groom() is None  # nothing groomed yet
        shard.ingest([(1, 1, 0)])
        shard.groomer.groom()
        op = shard.post_groomer.post_groom()
        assert (op.min_groomed_id, op.max_groomed_id) == (0, 0)
        # gid 0 is remembered as post-groomed: it is not migrated twice.
        assert shard.post_groomer.post_groom() is None


class TestOpMapsAreReleased:
    """A PSN's splice map (raw ``~beginTS`` suffix -> serialized RID) lives
    until every index evolved it."""

    BY_READING = {"by_reading": IndexSpec(sort_columns=("reading",))}

    @staticmethod
    def post_groom_a_batch(shard, batch):
        shard.ingest([(device, batch % 2, 10 * batch + device) for device in range(6)])
        shard.groomer.groom()
        return shard.post_groomer.post_groom()

    @staticmethod
    def psns_holding_a_map(shard):
        ops = shard.post_groomer._ops
        return sorted(psn for psn, op in ops.items() if op.splices)

    def test_only_unevolved_ops_hold_a_map(self):
        shard = make_shard(secondary_indexes=self.BY_READING)
        published = [self.post_groom_a_batch(shard, batch) for batch in range(4)]
        assert self.psns_holding_a_map(shard) == [1, 2, 3, 4]
        applied = [shard.indexer.step()]
        assert self.psns_holding_a_map(shard) == [2, 3, 4]
        applied += shard.indexer.drain()
        assert self.psns_holding_a_map(shard) == []
        assert [step.evolve.spliced_blobs for step in applied] == [6] * 4
        # What the grace-PSN cleanup reads stays.
        for op in published:
            kept = shard.post_groomer.get_op(op.psn)
            assert (kept.min_groomed_id, kept.max_groomed_id) == (
                op.min_groomed_id, op.max_groomed_id,
            )
            assert kept.post_groomed_block_ids == op.post_groomed_block_ids
            assert kept.record_count == op.record_count == 6
        by_reading = shard.indexes.get("by_reading").index
        for device in range(6):
            assert shard.point_query((device,), (1,)).values == (device, 1, 30 + device)
            (hit,) = by_reading.scan((), (30 + device,), (30 + device,))
            assert hit.rid.zone is Zone.POST_GROOMED

    def test_crash_replay_of_an_unevolved_psn_still_finds_its_map(self):
        from repro.faults.crash import CrashSchedule, install_crash_schedule
        from repro.faults.errors import SimulatedCrash

        shard = make_shard(secondary_indexes=self.BY_READING)
        op = self.post_groom_a_batch(shard, 1)
        # Die inside the *secondary's* evolve: the primary already has
        # PSN 1, the step as a whole has not finished.
        with install_crash_schedule(CrashSchedule({"evolve.pre_publish": {2}})):
            with pytest.raises(SimulatedCrash):
                shard.indexer.step()
        assert shard.index.indexed_psn == 1
        assert shard.indexes.min_indexed_psn() == 0
        assert shard.post_groomer.get_op(1).splices == op.splices
        assert len(op.splices) == 6
        shard.crash_and_recover()

        result = shard.indexer.step()
        assert result.evolve.new_run_id == ""  # the primary was not redone
        (replayed,) = result.secondary_evolves
        assert replayed.spliced_blobs == 6
        assert self.psns_holding_a_map(shard) == []
        by_reading = shard.indexes.get("by_reading").index
        for device in range(6):
            (hit,) = by_reading.scan((), (10 + device,), (10 + device,))
            assert hit.rid.zone is Zone.POST_GROOMED
            assert hit.rid.to_bytes() == op.splices[encode_ts_desc(hit.begin_ts)]

    def test_a_released_map_is_rebuilt_from_the_blocks(self):
        shard = make_shard(secondary_indexes=self.BY_READING)
        op = self.post_groom_a_batch(shard, 1)
        shard.post_groomer.release_rid_map(1)  # as for an index attached later
        released = shard.post_groomer.get_op(1)
        assert released.splices == {} and len(op.splices) == 6
        # The blocks give back the map the PSN record published, pair for
        # pair: bytes to bytes, every version of the PSN.
        assert shard.indexer.splices_of(released) == op.splices
        (result,) = shard.indexer.drain()
        assert result.evolve.spliced_blobs == 6
        for device in range(6):
            entry = shard.index_lookup((device,), (1,))
            assert entry.rid.zone is Zone.POST_GROOMED
            assert entry.rid.to_bytes() == op.splices[encode_ts_desc(entry.begin_ts)]


class TestPartitioning:
    def test_partition_assignment_deterministic(self):
        ops = []
        for _ in range(2):
            shard = make_shard(partition_buckets=4)
            shard.ingest([(d, m, 0) for d in range(4) for m in range(12)])
            shard.groomer.groom()
            ops.append(shard.post_groomer.post_groom())
        assert ops[0].post_groomed_block_ids == ops[1].post_groomed_block_ids
        assert ops[0].record_count == ops[1].record_count

    def test_same_partition_value_lands_in_one_block(self):
        shard = make_shard(partition_buckets=4)
        shard.ingest([(d, 7, 0) for d in range(8)])  # one msg value
        shard.groomer.groom()
        op = shard.post_groomer.post_groom()
        assert len(op.post_groomed_block_ids) == 1

    def test_single_bucket_configuration(self):
        shard = make_shard(partition_buckets=1)
        shard.ingest([(d, m, 0) for d in range(3) for m in range(5)])
        shard.groomer.groom()
        op = shard.post_groomer.post_groom()
        assert len(op.post_groomed_block_ids) == 1
        assert op.record_count == 15

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            make_shard(partition_buckets=0)


class TestHiddenColumnMaintenance:
    def test_end_ts_set_on_replaced_post_groomed_version(self):
        shard = make_shard()
        shard.ingest([(1, 1, 100)])
        shard.groomer.groom()
        shard.post_groomer.post_groom()
        shard.indexer.drain()  # index the first version
        old_entry = shard.index_lookup((1,), (1,))
        shard.ingest([(1, 1, 200)])
        shard.groomer.groom()
        shard.post_groomer.post_groom()
        old_record = shard.catalog.fetch_record(old_entry.rid)
        assert old_record.end_ts is not None

    def test_prev_rid_links_across_post_grooms(self):
        shard = make_shard()
        shard.ingest([(1, 1, 100)])
        shard.groomer.groom()
        shard.post_groomer.post_groom()
        shard.indexer.drain()
        shard.ingest([(1, 1, 200)])
        shard.groomer.groom()
        shard.post_groomer.post_groom()
        shard.indexer.drain()
        newest = shard.index_lookup((1,), (1,))
        record = shard.catalog.fetch_record(newest.rid)
        assert record.prev_rid is not None
        assert record.prev_rid.zone is Zone.POST_GROOMED
        previous = shard.catalog.fetch_record(record.prev_rid)
        assert previous.values[2] == 100

    def test_records_keep_begin_ts_through_post_groom(self):
        shard = make_shard()
        shard.ingest([(1, 1, 100), (2, 1, 200)])
        shard.groomer.groom()
        before = {
            d: shard.index_lookup((d,), (1,)).begin_ts for d in (1, 2)
        }
        shard.post_groomer.post_groom()
        shard.indexer.drain()
        after = {
            d: shard.index_lookup((d,), (1,)).begin_ts for d in (1, 2)
        }
        assert before == after


class TestOneSweepPredecessors:
    """The post-groom sweep against the per-key lookup it replaced.

    Two post-grooms leave an older and a newer post-groomed run; the batch
    under test then spans three grooms with keys updated 0, 1 and 3 times
    inside it, predecessors in either run, and keys the index has never
    seen.  ``tests/reference_postgroom.py`` replays the same batch one
    lookup per key.
    """

    BATCH = (
        # device 5: predecessor only in the older run; 25: a version in
        # both runs (newest must win); 35: only in the newer run; 100 and
        # 101: absent.  Device 5 is updated once more inside the batch,
        # device 101 three times (twice within one groom).
        [(5, 1, 205), (25, 1, 225), (35, 1, 235), (100, 1, 300), (101, 2, 301)],
        [(101, 2, 302), (5, 1, 206)],
        [(101, 2, 303), (101, 2, 304)],
    )

    def run_scenario(self, reference=False, purged=False):
        shard = make_shard()
        if reference:
            shard.post_groomer._migrate = functools.partial(
                reference_migrate, shard.post_groomer, per_key_repartition_and_write
            )
        for rows in (
            [(d, 1, d) for d in range(30)],
            [(d, 1, 100 + d) for d in range(20, 50)],
        ):
            shard.ingest(rows)
            shard.groomer.groom()
            shard.post_groomer.post_groom()
            shard.indexer.drain()
        post_groomed = shard.index.run_lists[Zone.POST_GROOMED].snapshot()
        assert len(post_groomed) == 2
        if purged:
            shard.index.cache.set_cache_level(-1)

        for rows in self.BATCH:
            shard.ingest(rows)
            shard.groomer.groom()
        intents = shard.hierarchy.stats.intents
        before = {intent: stats.snapshot() for intent, stats in intents.items()}
        overlay_before = shard.catalog.export_end_ts_overlay()
        op = shard.post_groomer.post_groom()
        query, maintenance = (
            intents[intent].diff(before[intent])
            for intent in (ReadIntent.QUERY, ReadIntent.MAINTENANCE)
        )
        reads = {  # the per-key reference reads as QUERY, the sweep not
            "shared": query.shared_reads + maintenance.shared_reads,
            "query": query.reads,
            "promotions": maintenance.promotions,
        }
        blocks = [
            block_records(shard.catalog.get_block(Zone.POST_GROOMED, block_id))
            for block_id in op.post_groomed_block_ids
        ]
        # The endTS overlay after the batch, and what the batch set in it:
        # ``(rid, end_ts)`` pairs in the order they were set.
        overlay = shard.catalog.export_end_ts_overlay()
        end_ts_set = [
            (rid, end_ts) for rid, end_ts in overlay.items()
            if rid not in overlay_before
        ]
        return shard, op, blocks, (overlay, end_ts_set), reads, post_groomed

    @pytest.mark.parametrize("purged", [False, True])
    def test_identical_to_the_per_key_path(self, purged):
        _, op, blocks, (overlay, end_ts_set), _, _ = self.run_scenario(
            purged=purged
        )
        _, ref_op, ref_blocks, (ref_overlay, ref_set), _, _ = self.run_scenario(
            reference=True, purged=purged
        )
        assert op.splices == ref_op.splices
        assert op.post_groomed_block_ids == ref_op.post_groomed_block_ids
        assert blocks == ref_blocks  # prevRID chains included
        assert overlay == ref_overlay
        assert end_ts_set == ref_set
        assert len(end_ts_set) == 7  # every version but 100's and 101's first

    def test_chains_are_what_the_scenario_says(self):
        shard, op, blocks, _, _, _ = self.run_scenario()
        by_begin_ts = {r.begin_ts: r for records in blocks for r in records}
        begin_ts_of = {
            RID(Zone.POST_GROOMED, block_id, offset): record.begin_ts
            for block_id, records in zip(op.post_groomed_block_ids, blocks)
            for offset, record in enumerate(records)
        }

        def chain(device, msg):
            """Readings along the prevRID chain, newest first."""
            newest = max(
                (r for r in by_begin_ts.values() if r.values[:2] == (device, msg)),
                key=lambda r: r.begin_ts,
            )
            readings, record = [], newest
            while True:
                readings.append(record.values[2])
                if record.prev_rid is None:
                    return readings
                if record.prev_rid in begin_ts_of:
                    record = by_begin_ts[begin_ts_of[record.prev_rid]]
                else:  # a predecessor from an earlier post-groom
                    record = shard.catalog.fetch_record(record.prev_rid)

        assert chain(101, 2) == [304, 303, 302, 301]
        assert chain(100, 1) == [300]
        assert chain(5, 1) == [206, 205, 5]
        assert chain(25, 1) == [225, 125, 25]  # through the newest run's version
        assert chain(35, 1) == [235, 135]

    def test_purged_runs_are_swept_without_promotion_or_residue(self):
        shard, _, _, _, reads, post_groomed = self.run_scenario(purged=True)
        _, _, _, _, ref_reads, _ = self.run_scenario(reference=True, purged=True)
        assert reads["query"] == 0
        assert reads["promotions"] == 0
        assert 0 < reads["shared"] <= ref_reads["shared"]
        for run in post_groomed:
            for index in range(run.header.num_data_blocks):
                block_id = run.data_block_id(index)
                assert not shard.hierarchy.memory.contains(block_id)
                assert not shard.hierarchy.ssd.contains(block_id)


class TestColumnPathMatchesRecordPath:
    """The column-major post-groom against the Record-based one it replaced
    (``sweep_repartition_and_write`` in ``tests/reference_postgroom.py``).

    Seeded batches over a small key space, four PSNs of one to three grooms
    each: keys come back across PSNs (predecessors in older post-groomed
    blocks) and every groom updates one key twice.  Both paths must write
    the same payloads, set the same endTS overlay, publish the same splice
    map (the reference's ``beginTS -> RID`` map, serialized) and leave the
    same ``prevRID`` chains behind ``time_travel``.
    """

    @staticmethod
    def run(seed, partition_buckets, reference=False):
        shard = make_shard(partition_buckets=partition_buckets)
        if reference:
            shard.post_groomer._migrate = functools.partial(
                reference_migrate, shard.post_groomer, sweep_repartition_and_write
            )
        rng, reading = random.Random(seed), itertools.count()
        ops, keys = [], set()
        for _psn in range(4):
            for _groom in range(rng.randint(1, 3)):
                rows = [
                    (rng.randrange(6), rng.randrange(4), next(reading))
                    for _ in range(rng.randint(1, 12))
                ]
                rows.append(rows[0][:2] + (next(reading),))  # updated twice
                keys.update(row[:2] for row in rows)
                shard.ingest(rows)
                shard.groomer.groom()
            ops.append(shard.post_groomer.post_groom())
            shard.indexer.drain()
        payloads = [
            shard.hierarchy.shared.read(BlockId(
                shard.catalog.namespace_of(Zone.POST_GROOMED, block_id), 0
            )).payload
            for op in ops for block_id in op.post_groomed_block_ids
        ]
        now = shard.current_snapshot_ts()
        chains = {
            key: shard.time_travel((key[0],), (key[1],), now)
            for key in sorted(keys)
        }
        return ops, payloads, shard.catalog.export_end_ts_overlay(), chains

    @pytest.mark.parametrize("partition_buckets", [1, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_to_the_record_path(self, seed, partition_buckets):
        ops, payloads, overlay, chains = self.run(seed, partition_buckets)
        ref_ops, ref_payloads, ref_overlay, ref_chains = self.run(
            seed, partition_buckets, reference=True
        )
        assert payloads == ref_payloads
        assert overlay == ref_overlay
        assert chains == ref_chains
        for op, ref_op in zip(ops, ref_ops):
            assert op.post_groomed_block_ids == ref_op.post_groomed_block_ids
            assert op.record_count == ref_op.record_count
            assert op.splices == ref_op.splices
            assert len(op.splices) == op.record_count
        if partition_buckets > 1:
            assert any(len(op.post_groomed_block_ids) > 1 for op in ops)
        # Some chain crosses PSNs (a predecessor the sweep found in an
        # older PSN's blocks), and every replaced version carries the
        # endTS its successor began at.
        psn_of = {
            block_id: op.psn for op in ops for block_id in op.post_groomed_block_ids
        }
        assert any(
            len({psn_of[r.prev_rid.block_id] for r in chain if r.prev_rid}) > 1
            for chain in chains.values()
        )
        for chain in chains.values():
            assert chain[0].end_ts is None
            for newer, older in zip(chain, chain[1:]):
                assert older.end_ts == newer.begin_ts
                assert older.values[:2] == newer.values[:2]


class TestGatherMatchesReencode:
    """The post-groom copies each version's user bytes from its groomed
    block's payload by offset (a run of consecutive versions one bucket
    takes as one slice per column); every post-groomed payload must be
    what encoding its rows again writes (``reencoded_payload``)."""

    @staticmethod
    def post_groomed_payloads(shard, ops):
        for op in ops:
            for block_id in op.post_groomed_block_ids:
                block = shard.catalog.get_block(Zone.POST_GROOMED, block_id)
                stored = shard.hierarchy.shared.read(BlockId(
                    shard.catalog.namespace_of(Zone.POST_GROOMED, block_id), 0
                )).payload
                yield block, stored

    def run(self, shard, crash=False):
        rng, ops = random.Random(7), []
        for psn in range(3):
            for groom in range(3):
                shard.ingest([
                    (rng.randrange(40), rng.randrange(9), rng.randrange(1000))
                    for _ in range(rng.randint(1, 30))
                ])
                shard.groomer.groom()
                if crash and groom == 1:  # blocks from bytes beside memoized ones
                    shard.crash_and_recover()
                    assert not any(zone is Zone.GROOMED for zone, _ in shard.catalog._decoded)
            ops.append(shard.post_groomer.post_groom())
            shard.indexer.drain()
        checked = 0
        for block, stored in self.post_groomed_payloads(shard, ops):
            assert stored == reencoded_payload(shard.schema, block)
            checked += 1
        return ops, checked

    def test_partitioned_buckets_interleave(self):
        ops, checked = self.run(make_shard(partition_buckets=4))
        assert all(len(op.post_groomed_block_ids) > 1 for op in ops)
        assert checked == sum(len(op.post_groomed_block_ids) for op in ops)

    def test_no_partition_key_copies_whole_sections(self):
        schema = TableSchema(
            name="flat",
            columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
            primary_key=("device", "msg"),
            sharding_key=("device",),
        )
        shard = WildfireShard(
            schema, IndexSpec(("device",), ("msg",), ("reading",)),
            config=ShardConfig(post_groom_every=100, partition_buckets=4),
        )
        ops, checked = self.run(shard)
        assert checked == len(ops)  # one block a post-groom: bucket 0

    def test_groomed_blocks_decoded_after_a_crash(self):
        ops, checked = self.run(make_shard(partition_buckets=3), crash=True)
        assert checked >= len(ops)
