"""Brownout windows: seeded generation and FaultyTier execution (ISSUE 7)."""

import pytest

from repro.faults.plan import BrownoutWindow, FaultPlan
from repro.faults.storage import FaultyTier
from repro.storage.block import Block, BlockId
from repro.storage.metrics import IOStats
from repro.storage.retry import TransientIOError


class TestGeneration:
    def test_same_seed_same_window(self):
        for seed in range(50):
            assert BrownoutWindow.generate(seed) == BrownoutWindow.generate(seed)

    def test_offsets_within_window(self):
        for seed in range(100):
            window = BrownoutWindow.generate(seed)
            assert all(0 <= o < window.length_ops for o in window.failing_offsets)
            assert list(window.failing_offsets) == sorted(window.failing_offsets)

    def test_bursts_exceed_retry_budget_somewhere(self):
        """The storm must contain at least one burst longer than the retry
        budget, or the breaker would never have anything to prevent."""
        from repro.storage.retry import MAX_ATTEMPTS

        longest = 0
        for seed in range(20):
            window = BrownoutWindow.generate(seed)
            streak = best = 0
            previous = None
            for offset in window.failing_offsets:
                streak = streak + 1 if previous == offset - 1 else 1
                best = max(best, streak)
                previous = offset
            longest = max(longest, best)
        assert longest >= MAX_ATTEMPTS


def run_ops(tier, count, start=0):
    """Drive ``count`` writes; returns per-op outcomes (True = failed)."""
    outcomes = []
    for i in range(start, start + count):
        block = Block(BlockId(f"ops-{i:04d}", 0), b"x")
        try:
            tier.write(block)
            outcomes.append(False)
        except TransientIOError:
            outcomes.append(True)
    return outcomes


def brownout_active(tier):
    """True while a window can still cover a *future* tier operation."""
    with tier._lock:
        return any(
            tier._op_seq + 1 < anchor + length
            for anchor, _, length in tier._brownouts_active
        )


class TestExecution:
    def make_tier(self, plan=None):
        stats = IOStats()
        return FaultyTier(
            plan if plan is not None else FaultPlan(seed=0),
            run_prefix="iot",
            stats=stats,
        ), stats

    def test_relative_activation_matches_offsets(self):
        window = BrownoutWindow(length_ops=6, failing_offsets=(0, 1, 4))
        tier, stats = self.make_tier()
        assert run_ops(tier, 3) == [False, False, False]
        tier.start_brownout(window)
        assert brownout_active(tier)
        assert run_ops(tier, 6, start=3) == [
            True, True, False, False, True, False,
        ]
        # The window ends crisply: everything after it is healthy.
        assert not brownout_active(tier)
        assert run_ops(tier, 4, start=9) == [False] * 4
        assert stats.faults.transient_write_errors == 3

    def test_overlapping_windows_union(self):
        tier, stats = self.make_tier()
        tier.start_brownout(BrownoutWindow(length_ops=4, failing_offsets=(1,)))
        tier.start_brownout(BrownoutWindow(length_ops=4, failing_offsets=(2,)))
        # Both windows anchored at the same next op: offsets 1 and 2 fail.
        assert run_ops(tier, 4) == [False, True, True, False]
        assert stats.faults.transient_write_errors == 2

    def test_reads_and_writes_share_the_op_clock(self):
        window = BrownoutWindow(length_ops=4, failing_offsets=(1, 2))
        tier, stats = self.make_tier()
        tier.write(Block(BlockId("ops-0000", 0), b"x"))  # healthy op
        tier.start_brownout(window)
        tier.write(Block(BlockId("ops-0001", 0), b"x"))  # offset 0: ok
        with pytest.raises(TransientIOError):
            tier.read(BlockId("ops-0000", 0))  # offset 1: fails
        with pytest.raises(TransientIOError):
            tier.write(Block(BlockId("ops-0002", 0), b"x"))  # offset 2
        assert tier.read(BlockId("ops-0000", 0)).payload == b"x"  # offset 3
        assert stats.faults.transient_read_errors == 1
        assert stats.faults.transient_write_errors == 1

    def test_scheduled_transients_still_fire_after_window(self):
        """A brownout must not eat the plan's scheduled transient blips:
        the pending-failure budget only decrements on ops the brownout
        (or an outage) did not already fail."""
        from repro.faults.plan import TransientFault

        tier, stats = self.make_tier(
            FaultPlan(seed=0, transient=(TransientFault(op_ordinal=2, failures=1),))
        )
        tier.start_brownout(BrownoutWindow(length_ops=2, failing_offsets=(0, 1)))
        # Ops 1-2 fail from the brownout; the op-2 transient stays pending
        # and claims op 3; op 4 is healthy.
        assert run_ops(tier, 4) == [True, True, True, False]
        assert stats.faults.transient_write_errors == 3
