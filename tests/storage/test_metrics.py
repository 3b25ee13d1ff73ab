"""Tests for the I/O accounting ledger."""

import threading

from hypothesis import given, settings, strategies as st

from repro.storage.metrics import IOStats, ReadIntent, TierStats

# One ledger operation: (name, tier, nbytes, sim_ns).  "merge" folds in a
# second ledger charged with (tier, sim_ns); "reset" zeroes everything.
_LEDGER_OPS = st.tuples(
    st.sampled_from(["read", "write", "delete", "backoff", "merge", "reset"]),
    st.sampled_from(["memory", "ssd", "shared"]),
    st.integers(0, 1 << 20),
    st.integers(0, 1 << 40),
)


def charge(ledger: IOStats, tier: str, sim_ns: int, **counts: int) -> None:
    """What a tier does per operation: add ``counts`` and ``sim_ns`` to the
    row it bound, and ``sim_ns`` to the running total, under the lock."""
    row = ledger.row(tier)
    with ledger.lock:
        for name, count in counts.items():
            setattr(row, name, getattr(row, name) + count)
        row.sim_ns += sim_ns
        ledger.total_sim_ns += sim_ns


def read(ledger, tier, nbytes, sim_ns):
    charge(ledger, tier, sim_ns, reads=1, bytes_read=nbytes)


def write(ledger, tier, nbytes, sim_ns):
    charge(ledger, tier, sim_ns, writes=1, bytes_written=nbytes)


class TestTierStats:
    def test_snapshot_is_a_copy(self):
        stats = TierStats(reads=1)
        copy = stats.snapshot()
        stats.reads = 5
        assert copy.reads == 1

    def test_diff(self):
        earlier = TierStats(reads=1, bytes_read=10, sim_ns=100)
        later = TierStats(reads=4, bytes_read=50, sim_ns=600)
        delta = later.diff(earlier)
        assert (delta.reads, delta.bytes_read, delta.sim_ns) == (3, 40, 500)


class TestIOStats:
    def test_record_and_read_back(self):
        ledger = IOStats()
        read(ledger, "ssd", nbytes=100, sim_ns=50)
        write(ledger, "ssd", nbytes=200, sim_ns=70)
        charge(ledger, "ssd", sim_ns=5, deletes=1)
        tier = ledger.tier("ssd")
        assert tier.reads == 1
        assert tier.writes == 1
        assert tier.deletes == 1
        assert tier.bytes_read == 100
        assert tier.bytes_written == 200
        assert tier.sim_ns == 125

    def test_unknown_tier_is_zeroes(self):
        assert IOStats().tier("nothing").reads == 0

    def test_a_bound_row_survives_reset_and_hides_until_charged(self):
        ledger = IOStats()
        row = ledger.row("ssd")
        assert ledger.row("ssd") is row
        assert ledger.snapshot() == {}  # bound, never charged
        charge(ledger, "ssd", sim_ns=15, deletes=3)
        assert (row.deletes, row.sim_ns, ledger.total_sim_ns) == (3, 15, 15)
        ledger.reset()
        assert ledger.row("ssd") is row and ledger.snapshot() == {}
        read(ledger, "ssd", nbytes=1, sim_ns=2)
        assert ledger.snapshot() == {"ssd": TierStats(reads=1, bytes_read=1, sim_ns=2)}

    def test_total_sim_ns_sums_tiers(self):
        ledger = IOStats()
        read(ledger, "a", 0, 10)
        read(ledger, "b", 0, 32)
        assert ledger.total_sim_ns == 42

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(_LEDGER_OPS, max_size=40))
    def test_running_total_matches_the_tier_sum_after_every_step(self, ops):
        """``total_sim_ns`` is a running int (the cluster clock reads it
        unlocked twice per op); it must never drift from the per-tier sum."""
        ledger = IOStats()
        for op, tier, nbytes, sim_ns in ops:
            if op == "merge":
                other = IOStats()
                write(other, tier, nbytes, sim_ns)
                other.record_backoff("shared", sim_ns // 3)
                ledger.merge(other)
            elif op == "reset":
                ledger.reset()
            elif op == "read":
                read(ledger, tier, nbytes, sim_ns)
            elif op == "write":
                write(ledger, tier, nbytes, sim_ns)
            elif op == "delete":
                charge(ledger, tier, sim_ns, deletes=1)
            else:
                ledger.record_backoff(tier, sim_ns)
            assert ledger.total_sim_ns == sum(
                t.sim_ns for t in ledger.snapshot().values()
            )

    def test_reset(self):
        ledger = IOStats()
        read(ledger, "a", 1, 1)
        ledger.reset()
        assert ledger.snapshot() == {}
        assert ledger.total_sim_ns == 0

    def test_merge_folds_every_sub_ledger(self):
        """ISSUE 8 regression: cluster rollups must not drop sub-ledgers.

        The old cluster ``stats()`` summed only top-level tier numbers;
        ``merge`` must carry tier counters *and* decode/epoch/intent/
        fault/qos counters across, and must not alias the source."""
        a, b = IOStats(), IOStats()
        read(a, "ssd", nbytes=10, sim_ns=5)
        read(b, "ssd", nbytes=30, sim_ns=7)
        write(b, "shared", nbytes=100, sim_ns=50)
        b.decode.entry_decodes = 3
        b.epochs.version_refs = 4
        b.epochs.reclaims_deferred = 1
        b.intents[ReadIntent.QUERY].shared_reads = 6
        b.faults.transient_read_errors = 2
        b.qos.degraded_reads = 5

        result = a.merge(b)
        assert result is a
        assert a.tier("ssd").reads == 2
        assert a.tier("ssd").bytes_read == 40
        assert a.tier("ssd").sim_ns == 12
        assert a.tier("shared").bytes_written == 100
        assert a.decode.entry_decodes == 3
        assert a.epochs.version_refs == 4
        assert a.epochs.reclaims_deferred == 1
        assert a.intents[ReadIntent.QUERY].shared_reads == 6
        assert a.faults.transient_read_errors == 2
        assert a.qos.degraded_reads == 5
        # The source is snapshotted, never aliased: mutating the merged
        # ledger leaves the source alone and vice versa.
        a.qos.degraded_reads += 1
        assert b.qos.degraded_reads == 5
        b.decode.entry_decodes += 1
        assert a.decode.entry_decodes == 3

    def test_merge_accumulates_across_many_ledgers(self):
        total = IOStats()
        for _ in range(3):
            shard = IOStats()
            read(shard, "local", 1, 1)
            shard.epochs.pins_entered = 2
            total.merge(shard)
        assert total.tier("local").reads == 3
        assert total.epochs.pins_entered == 6

    def test_thread_safety_under_contention(self):
        ledger = IOStats()

        def hammer():
            for _ in range(1000):
                read(ledger, "x", 1, 1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ledger.tier("x").reads == 8000
        assert ledger.tier("x").sim_ns == 8000
        assert ledger.total_sim_ns == 8000
