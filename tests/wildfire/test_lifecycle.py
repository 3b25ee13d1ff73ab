"""Tests for groomer, post-groomer, and indexer working together."""

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.core.encoding import EncodingError
from repro.core.entry import Zone
from repro.storage.retry import TransientIOError
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema
from repro.wildfire.txlog import CommittedTransaction
from tests.conftest import committed_rows, pending_psns


def make_shard(post_groom_every=3, partition_buckets=2):
    schema = TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    spec = IndexSpec(("device",), ("msg",), ("reading",))
    return WildfireShard(
        schema, spec,
        config=ShardConfig(post_groom_every=post_groom_every,
                           partition_buckets=partition_buckets),
    )


class TestGroomer:
    def test_groom_empty_live_zone_is_noop(self):
        shard = make_shard()
        assert shard.groomer.groom() is None

    def test_groom_creates_block_and_run(self):
        shard = make_shard()
        shard.ingest([(1, 1, 10), (2, 1, 20)])
        result = shard.groomer.groom()
        assert result.groomed_block_id == 0
        block = shard.catalog.get_block(Zone.GROOMED, result.groomed_block_id)
        assert len(block.rows) == 2
        assert len(shard.index.run_lists[Zone.GROOMED]) == 1

    def test_begin_ts_monotonic_across_grooms(self):
        shard = make_shard()
        newest = []
        for msg in (1, 2):
            shard.ingest([(1, msg, 10 * msg)])
            result = shard.groomer.groom()
            block = shard.catalog.get_block(Zone.GROOMED, result.groomed_block_id)
            newest.append(block.begin_ts[-1])
            assert newest[-1] <= shard.clock.snapshot_ts  # published
        assert newest[1] > newest[0]

    def test_commit_order_preserved_within_groom(self):
        shard = make_shard()
        shard.ingest([(1, 1, 10)])
        shard.ingest([(1, 1, 20)])  # same key, later commit
        shard.groomer.groom()
        record = shard.point_query((1,), (1,))
        assert record.values == (1, 1, 20)  # last writer wins


class TestPoisonRows:
    """A value the encodings cannot hold must never reach the groomer.

    On the parent commit ``(4, 2, 2**70)`` passed ``upsert`` and raised
    ``EncodingError`` inside the groom *after* the committed log was
    drained; only ``TransientIOError`` requeued, so the valid row sharing
    the batch was lost.
    """

    def make_float_shard(self):
        schema = TableSchema(
            name="f",
            columns=(ColumnSpec("k"), ColumnSpec("x", ColumnType.FLOAT64)),
            primary_key=("k",),
            sharding_key=("k",),
        )
        return WildfireShard(schema, IndexSpec((), ("k",), ("x",)))

    def test_out_of_range_integer_is_refused_at_ingest(self):
        shard = make_shard()
        for poison in (2**70, -(2**63) - 1):
            with pytest.raises(EncodingError):
                shard.ingest([(2, 1, 5), (4, 2, poison)])
        assert shard.committed_log.pending_rows() == 0
        shard.ingest([(2, 1, 5), (4, 2, 2**63 - 1), (5, 2, -(2**63))])
        shard.tick()
        assert shard.point_query((2,), (1,)).values == (2, 1, 5)
        assert shard.point_query((4,), (2,)).values == (4, 2, 2**63 - 1)
        assert shard.point_query((5,), (2,)).values == (5, 2, -(2**63))

    def test_nan_is_refused_in_a_float_column(self):
        shard = self.make_float_shard()
        with pytest.raises(EncodingError):
            shard.ingest([(1, 1.5), (2, float("nan"))])
        assert shard.committed_log.pending_rows() == 0
        shard.ingest([(1, 1.5), (2, float("inf")), (3, -0.0), (4, 7)])
        shard.tick()
        assert shard.point_query((), (2,)).values == (2, float("inf"))
        assert shard.point_query((), (4,)).values == (4, 7.0)

    def test_any_groom_failure_requeues_the_drained_rows(self, monkeypatch):
        shard = make_shard()
        shard.ingest([(1, 1, 10), (2, 1, 20)])
        shard.ingest([(3, 1, 30)])

        def boom(block, raw, encoded):
            raise RuntimeError("injected fault inside build_groomed_runs")

        monkeypatch.setattr(shard.indexes, "build_groomed_runs", boom)
        with pytest.raises(RuntimeError):
            shard.tick()
        assert shard.committed_log.pending_rows() == 3
        monkeypatch.undo()
        shard.tick()
        assert shard.committed_log.pending_rows() == 0
        for device, reading in ((1, 10), (2, 20), (3, 30)):
            assert shard.point_query((device,), (1,)).values == (
                device, 1, reading,
            )


    def test_a_transient_groom_abort_requeues_the_batches_in_commit_order(
        self, monkeypatch
    ):
        shard = make_shard()
        shard.ingest([(1, 1, 10), (2, 1, 20)])
        shard.ingest([(3, 1, 30)])
        shard.ingest([(1, 1, 11)])
        batches = [tx.batch for tx in shard.committed_log.drain()]
        shard.committed_log.requeue(
            CommittedTransaction(seq, batch)
            for seq, batch in reversed(list(enumerate(batches, 1)))
        )

        def brownout(block, write_through_ssd=True):
            raise TransientIOError("injected shared-storage brownout")

        monkeypatch.setattr(shard.hierarchy, "write_persisted", brownout)
        with pytest.raises(TransientIOError):
            shard.groomer.groom()
        monkeypatch.undo()
        assert shard.catalog.max_groomed_id == -1  # the block never landed
        requeued = shard.committed_log.drain()
        assert [tx.commit_seq for tx in requeued] == [1, 2, 3]
        assert [tx.batch for tx in requeued] == batches  # the same columns
        assert [committed_rows(tx) for tx in requeued] == [
            [(1, 1, 10), (2, 1, 20)], [(3, 1, 30)], [(1, 1, 11)],
        ]
        shard.committed_log.requeue(requeued)
        shard.tick()
        assert shard.committed_log.pending_rows() == 0
        for device, reading in ((1, 11), (2, 20), (3, 30)):
            assert shard.point_query((device,), (1,)).values == (device, 1, reading)


class TestPostGroomer:
    def test_post_groom_without_groomed_data_is_noop(self):
        shard = make_shard()
        assert shard.post_groomer.post_groom() is None

    def test_post_groom_publishes_psn(self):
        shard = make_shard()
        shard.ingest([(d, 1, d) for d in range(10)])
        shard.groomer.groom()
        op = shard.post_groomer.post_groom()
        assert op.psn == 1
        assert shard.post_groomer.max_psn == 1
        assert op.min_groomed_id == 0 and op.max_groomed_id == 0
        assert op.record_count == 10

    def test_partitioning_by_key(self):
        shard = make_shard(partition_buckets=4)
        shard.ingest([(d, m, 0) for d in range(4) for m in range(8)])
        shard.groomer.groom()
        op = shard.post_groomer.post_groom()
        assert 1 <= len(op.post_groomed_block_ids) <= 4
        total = sum(
            len(shard.catalog.get_block(Zone.POST_GROOMED, b).rows)
            for b in op.post_groomed_block_ids
        )
        assert total == 32

    def test_unknown_psn_rejected(self):
        shard = make_shard()
        with pytest.raises(KeyError):
            shard.post_groomer.get_op(42)


class TestIndexer:
    def test_step_applies_pending_evolves_in_order(self):
        shard = make_shard()
        for batch in range(2):
            shard.ingest([(batch, m, 0) for m in range(5)])
            shard.groomer.groom()
            shard.post_groomer.post_groom()
        assert pending_psns(shard) == 2
        first = shard.indexer.step()
        assert first.evolve.psn == 1
        second = shard.indexer.step()
        assert second.evolve.psn == 2
        assert shard.indexer.step() is None
        assert shard.index.indexed_psn == 2

    def test_rids_switch_to_post_groomed(self):
        shard = make_shard()
        shard.ingest([(1, 1, 10)])
        shard.groomer.groom()
        before = shard.index_lookup((1,), (1,))
        assert before.rid.zone is Zone.GROOMED
        shard.post_groomer.post_groom()
        shard.indexer.drain()
        after = shard.index_lookup((1,), (1,))
        assert after.rid.zone is Zone.POST_GROOMED
        assert after.begin_ts == before.begin_ts  # same version, new RID

    def test_groomed_blocks_deleted_after_grace(self):
        shard = make_shard(post_groom_every=1)
        for batch in range(3):
            shard.ingest([(batch, 1, 0)])
            shard.tick()
        # grace = 1 PSN: blocks of PSN 1 must be gone by PSN >= 2.
        live = shard.catalog.live_groomed_ids()
        op1 = shard.post_groomer.get_op(1)
        assert all(gid > op1.max_groomed_id for gid in live)

    def test_queries_work_against_post_groomed_records(self):
        shard = make_shard(post_groom_every=1)
        shard.ingest([(5, 5, 555)])
        shard.tick()
        shard.tick()  # ensures deletion grace has passed
        record = shard.point_query((5,), (5,))
        assert record.values == (5, 5, 555)
