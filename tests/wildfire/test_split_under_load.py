"""Online shard split under live daemons and concurrent queries (ISSUE 8).

Mirror of ``tests/core/test_concurrency_stress.py`` at the cluster
layer: every shard's groom/post-groom/index daemons run on real threads,
an ingest thread appends fresh rows, and the hottest shard is split
online by a *pumped* migration (``begin_split`` + ``migration_step``).
Query threads read every device -- a point and a typed range read each
-- between every two steps of the pump, held there by a barrier, so
each thread provably reads in every phase: before the cutover, in the
double-read window before and during the copy, and after the final
publish.  The invariants:

* no query thread ever sees an error or a wrong/missing answer for a
  warm key -- the double-read window and both epoch publishes are
  invisible to clients;
* no shard's run lifecycle ever reclaims a version while pinned, and
  neither does the routing-map registry;
* the routing-map registry costs **exactly two refcount operations per
  query** (one Ref pinning the epoch, one Unref releasing it), measured
  on the cluster ledger where the registry is the only writer.
"""

import threading

import pytest

from repro.core.definition import ColumnSpec
from repro.planner import Query
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

from tests.conftest import assert_lifecycles_quiescent

pytestmark = pytest.mark.timeout(180)

DEVICES = 24
MSGS = 3
QUERY_THREADS = 4
INGEST_ROUNDS = 12
COPY_BUDGET = 8  # pairs per migration step: the copy takes several steps
BARRIER_TIMEOUT_S = 60.0


def make_table(num_shards=2):
    schema = TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    return ShardedTable(
        schema,
        IndexSpec(("device",), ("msg",), ("reading",)),
        num_shards=num_shards,
        config=ShardConfig(post_groom_every=2),
    )


def expected(device, msg):
    return device * 100 + msg


def device_rows(table, device):
    """A range read of one device's rows: a typed query on its key."""
    return table.query(Query(equalities=(("device", device),)))


class TestSplitUnderLoad:
    def test_split_with_live_daemons_and_queries(self):
        table = make_table(num_shards=2)
        table.ingest(
            [(d, m, expected(d, m)) for d in range(DEVICES) for m in range(MSGS)]
        )
        table.run_cycles(4)
        victim = table.shard_of_key((0,))

        table.start_daemons(groom_interval_s=0.002)
        stop = threading.Event()
        errors = []
        rounds = []  # (thread, phase) of every round of reads
        phase = ["single"]
        # The pump waits at ``go`` until every thread is ready to read,
        # and at ``done`` until every thread has read: a step never runs
        # while a thread reads, and no thread skips a phase.
        go = threading.Barrier(QUERY_THREADS + 1, timeout=BARRIER_TIMEOUT_S)
        done = threading.Barrier(QUERY_THREADS + 1, timeout=BARRIER_TIMEOUT_S)

        def read_every_device(tid):
            for device in range(DEVICES):
                msg = (tid + device) % MSGS
                record = table.point_query((device,), (msg,))
                if record is None or record.values != (
                    device, msg, expected(device, msg),
                ):
                    errors.append((tid, phase[0], device, msg, record))
                rows = device_rows(table, device)
                warm = [(device, m, expected(device, m)) for m in range(MSGS)]
                if len(rows) < MSGS or rows[:MSGS] != warm:
                    errors.append((tid, phase[0], device, "range", rows[:MSGS]))

        def query_loop(tid):
            try:
                while True:
                    go.wait()
                    if stop.is_set():
                        return
                    try:
                        read_every_device(tid)
                    except Exception as exc:  # noqa: BLE001 - the assertion
                        errors.append((tid, phase[0], repr(exc)))
                    rounds.append((tid, phase[0]))
                    done.wait()
            except threading.BrokenBarrierError:
                if not stop.is_set():
                    errors.append((tid, phase[0], "barrier broken"))

        def ingest_loop():
            for round_no in range(INGEST_ROUNDS):
                if stop.is_set():
                    return
                table.ingest(
                    [(d, 100 + round_no, d) for d in range(DEVICES)]
                )

        def every_thread_reads(label):
            phase[0] = label
            go.wait()
            done.wait()

        threads = [
            threading.Thread(target=query_loop, args=(tid,), daemon=True)
            for tid in range(QUERY_THREADS)
        ]
        threads.append(threading.Thread(target=ingest_loop, daemon=True))
        for thread in threads:
            thread.start()
        labels = ["single"]
        try:
            every_thread_reads("single")
            summary = table.begin_split(victim)
            labels.append(f"{summary['phase']}: cut over")
            every_thread_reads(labels[-1])
            while summary["phase"] != "done":
                summary = table.migration_step(budget=COPY_BUDGET)
                labels.append(
                    "done" if summary["phase"] == "done"
                    else f"{summary['phase']}: copy step {len(labels) - 1}"
                )
                every_thread_reads(labels[-1])
            stop.set()
            go.wait()  # release the threads to see ``stop``
        finally:
            stop.set()
            go.abort()
            done.abort()
            for thread in threads:
                thread.join(timeout=10.0)
            table.stop_daemons()

        assert errors == []
        # Every thread read in every phase: before the cutover, in the
        # window before and during the copy, and after the final publish.
        assert labels[0] == "single" and labels[-1] == "done"
        assert labels[1] == "migrating: cut over"
        assert sum(label.startswith("migrating: copy") for label in labels) >= 2
        assert sorted(rounds) == sorted(
            (tid, label) for tid in range(QUERY_THREADS) for label in labels
        )
        assert summary["phase"] == "done"
        assert table.routing_epoch() == 2
        assert table.stats()["retired_shards"] == [victim]
        assert len(table.live_shard_ids()) == 3

        # Every map pin of the storm was released, and no shard's run
        # lifecycle still parks a retired run.
        maps = table.epoch_stats()
        assert maps.version_refs == maps.version_unrefs
        assert_lifecycles_quiescent(table)

        # Everything written during the window drains and answers.
        table.run_cycles(6)
        for d in range(DEVICES):
            for m in range(MSGS):
                assert table.point_query((d,), (m,)).values == (
                    d, m, expected(d, m),
                )
            for round_no in range(INGEST_ROUNDS):
                record = table.point_query((d,), (100 + round_no,))
                assert record is not None and record.values == (
                    d, 100 + round_no, d,
                )

    def test_exactly_two_refcount_ops_per_query(self):
        """The ledger-observable cost of routing epochs, pre and post split."""
        table = make_table(num_shards=2)
        table.ingest(
            [(d, m, expected(d, m)) for d in range(DEVICES) for m in range(MSGS)]
        )
        table.run_cycles(4)

        def probe(queries):
            before = table.epoch_stats().snapshot()
            for i in range(queries // 2):
                device = i % DEVICES
                assert table.point_query((device,), (0,)) is not None
                assert len(device_rows(table, device)) >= MSGS
            delta = table.epoch_stats().diff(before)
            assert delta.version_refs == queries
            assert delta.version_unrefs == queries
            assert delta.pins_entered == queries
            assert delta.pins_exited == queries
            assert delta.versions_published == 0

        probe(40)
        table.split_shard(table.shard_of_key((0,)))
        probe(40)

        # Across the whole test the registry stayed balanced: every pin
        # exited, and the two split publishes reclaimed both old epochs.
        stats = table.epoch_stats()
        assert stats.pins_entered == stats.pins_exited
        assert stats.versions_published == 3  # initial + cutover + final
        assert stats.versions_reclaimed == 2
