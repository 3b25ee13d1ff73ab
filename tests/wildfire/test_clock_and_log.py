"""Tests for the hybrid clock, side-logs, committed log, transactions."""

import threading

import pytest

from repro.core.definition import ColumnSpec
from repro.core.encoding import EncodingError
from repro.storage.hierarchy import StorageHierarchy
from repro.wildfire.clock import (
    COMMIT_BITS,
    HybridClock,
    compose_begin_ts,
    compose_begin_ts_column,
    decompose_begin_ts,
)
from repro.wildfire.schema import ColumnBatch, SchemaError, TableSchema
from repro.wildfire.transaction import Transaction, TransactionError
from repro.wildfire.txlog import CommittedLog, CommittedTransaction

from tests.conftest import committed_rows


def schema():
    return TableSchema(
        name="t",
        columns=(ColumnSpec("k"), ColumnSpec("v")),
        primary_key=("k",),
    )


class TestHybridClock:
    def test_compose_decompose_roundtrip(self):
        ts = compose_begin_ts(5, 1234)
        assert decompose_begin_ts(ts) == (5, 1234)

    def test_later_groom_cycle_dominates(self):
        early = compose_begin_ts(1, (1 << COMMIT_BITS) - 1)
        late = compose_begin_ts(2, 0)
        assert late > early

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            compose_begin_ts(-1, 0)

    def test_commit_seq_monotone_under_threads(self):
        clock = HybridClock()
        seen = []
        lock = threading.Lock()

        def worker():
            for _ in range(200):
                seq = clock.next_commit_seq()
                with lock:
                    seen.append(seq)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 800

    def test_snapshot_covers_a_groom_cycle_only_once_published(self):
        clock = HybridClock()
        before = clock.snapshot_ts
        cycle = clock.next_groom_cycle()
        assert clock.snapshot_ts == before < compose_begin_ts(cycle, 0)
        clock.publish_groom_cycle(cycle)
        assert clock.snapshot_ts >= compose_begin_ts(cycle, 0)

    def test_snapshot_ts_moves_only_with_published_cycles(self):
        # snapshot_ts is kept beside groom_cycle, not derived on read: a
        # groom moves it after its run is in every index, a clock handoff
        # to the other clock's (published) state, and never backwards.
        def newest(cycle):
            return compose_begin_ts(cycle, (1 << COMMIT_BITS) - 1)

        clock = HybridClock()
        assert clock.snapshot_ts == newest(0)
        for _ in range(2):
            cycle = clock.next_groom_cycle()
            assert clock.snapshot_ts == newest(cycle - 1)
            clock.publish_groom_cycle(cycle)
            assert clock.snapshot_ts == newest(cycle)
        clock.publish_groom_cycle(1)  # forward-only
        assert clock.snapshot_ts == newest(2)
        clock.publish_groom_cycle(9, 40)
        assert (clock.groom_cycle, clock.snapshot_ts) == (9, newest(9))
        assert clock.next_commit_seq() == 41
        clock.publish_groom_cycle(3, 0)  # forward-only
        assert (clock.groom_cycle, clock.snapshot_ts) == (9, newest(9))
        # A groom still running when the clock is handed forward stays
        # unpublished.
        clock.next_groom_cycle()
        clock.publish_groom_cycle(9, 0)
        assert (clock.groom_cycle, clock.snapshot_ts) == (10, newest(9))

    def test_begin_ts_column_is_compose_begin_ts_per_order(self):
        for cycle in (0, 1, 5, 2**20):
            for count in (0, 1, 7, 300):
                assert compose_begin_ts_column(cycle, count) == [
                    compose_begin_ts(cycle, order) for order in range(count)
                ]
        with pytest.raises(ValueError):
            compose_begin_ts_column(-1, 3)


class TestSideLog:
    """A transaction's side-log stages whole batches, in write order."""

    def test_staged_rows_are_committed_in_order(self):
        log = CommittedLog()
        tx = Transaction(schema(), HybridClock(), log)
        tx.upsert((1, 2))
        tx.upsert_many([(3, 4), [5, 6]])
        tx.commit()
        (committed,) = log.drain()
        assert committed_rows(committed) == [(1, 2), (3, 4), (5, 6)]

    def test_a_refused_batch_stages_none_of_its_rows(self):
        log = CommittedLog()
        tx = Transaction(schema(), HybridClock(), log)
        tx.upsert((1, 2))
        with pytest.raises(EncodingError, match="column 'v' expects int64"):
            tx.upsert_many([(3, 4), (5, "6"), (7, 8)])
        tx.commit()
        (committed,) = log.drain()
        assert committed_rows(committed) == [(1, 2)]

    def test_a_transaction_whose_only_batch_was_refused_commits_nothing(self):
        hierarchy = StorageHierarchy()
        log = CommittedLog(hierarchy)
        tx = Transaction(schema(), HybridClock(), log)
        with pytest.raises(EncodingError):
            tx.upsert_many([(1, 2), (3, "4")])
        assert tx.commit() is None
        assert log.drain() == [] and hierarchy.stats.tier("ssd").writes == 0

    def test_a_validated_batch_is_staged_as_it_is(self):
        log = CommittedLog()
        table = schema()
        tx = Transaction(table, HybridClock(), log)
        batch = table.validate_rows([(1, 2), (3, 4)])
        tx.upsert_many(batch)
        tx.commit()
        (committed,) = log.drain()
        assert committed.batch is batch

    def test_a_batch_another_schema_validated_is_validated_again(self):
        log = CommittedLog()
        tx = Transaction(schema(), HybridClock(), log)
        batch = schema().validate_rows([(1, 2), (3, 4)])  # an equal schema, not this one
        tx.upsert_many(batch)
        tx.commit()
        (committed,) = log.drain()
        assert committed.batch is not batch
        assert committed_rows(committed) == [(1, 2), (3, 4)]

    @pytest.mark.parametrize("columns, error", [
        ([[1, 3], [2, "4"]], EncodingError),  # a value of the wrong type
        ([[1, 3], [2, 4], [5, 6]], SchemaError),  # a column too many
        ([[1, 3], [2]], ValueError),  # columns of unequal length
    ])
    def test_a_hand_built_batch_is_validated(self, columns, error):
        log = CommittedLog()
        tx = Transaction(schema(), HybridClock(), log)
        with pytest.raises(error):
            tx.upsert_many(ColumnBatch(columns))
        assert tx.commit() is None and log.drain() == []

    def test_a_valid_hand_built_batch_is_staged(self):
        log = CommittedLog()
        tx = Transaction(schema(), HybridClock(), log)
        tx.upsert_many(ColumnBatch([[1, 3], [2, 4]]))
        tx.commit()
        (committed,) = log.drain()
        assert committed_rows(committed) == [(1, 2), (3, 4)]


class TestCommittedLog:
    def test_drain_returns_commit_order(self):
        log = CommittedLog()
        log.append(CommittedTransaction(2, schema().validate_rows([(2, 0)])))
        log.append(CommittedTransaction(1, schema().validate_rows([(1, 0)])))
        drained = log.drain()
        assert [tx.commit_seq for tx in drained] == [1, 2]
        assert [committed_rows(tx) for tx in drained] == [[(1, 0)], [(2, 0)]]
        assert log.drain() == []

    def test_pending_rows_and_length(self):
        log = CommittedLog()
        log.append(CommittedTransaction(1, schema().validate_rows([(1, 0), (2, 0)])))
        assert log.pending_rows() == 2
        assert len(log) == 1
        assert log.pending_rows() == 2  # counting does not drain

    def test_persistence_charges_ssd(self):
        hierarchy = StorageHierarchy()
        log = CommittedLog(hierarchy, namespace="live")
        log.append(CommittedTransaction(1, schema().validate_rows([(1, 0)])))
        assert hierarchy.stats.tier("ssd").writes >= 1
        log.drain()
        assert hierarchy.ssd.block_ids() == []  # groomed data supersedes log

    def test_persisted_bytes_are_the_row_size_estimate(self):
        hierarchy = StorageHierarchy()
        log = CommittedLog(hierarchy, namespace="live")
        log.append(CommittedTransaction(1, schema().validate_rows([(1, 0), (2, 0), (3, 0)])))
        # 16 per segment, then 16 per row and 8 per value.
        assert hierarchy.stats.tier("ssd").bytes_written == 16 + 3 * 16 + 8 * 6


class TestTransaction:
    def test_commit_appends_to_log(self):
        log = CommittedLog()
        tx = Transaction(schema(), HybridClock(), log)
        tx.upsert((1, 10))
        tx.upsert((2, 20))
        seq = tx.commit()
        assert seq == 1
        assert log.pending_rows() == 2

    def test_empty_commit_returns_none(self):
        log = CommittedLog()
        tx = Transaction(schema(), HybridClock(), log)
        assert tx.commit() is None
        assert len(log) == 0

    def test_abort_discards(self):
        hierarchy = StorageHierarchy()
        log = CommittedLog(hierarchy)
        tx = Transaction(schema(), HybridClock(), log)
        tx.upsert((1, 10))
        tx.upsert_many([(2, 20), (3, 30)])
        tx.abort()
        assert log.pending_rows() == 0
        assert log.drain() == [] and hierarchy.stats.tier("ssd").writes == 0

    def test_use_after_commit_rejected(self):
        tx = Transaction(schema(), HybridClock(), CommittedLog())
        tx.upsert((1, 10))
        tx.commit()
        with pytest.raises(TransactionError):
            tx.upsert((2, 20))
        with pytest.raises(TransactionError):
            tx.commit()

    def test_row_validation_at_upsert(self):
        tx = Transaction(schema(), HybridClock(), CommittedLog())
        with pytest.raises(Exception):
            tx.upsert((1,))  # wrong arity
