"""Retry/backoff on shared storage: absorbed blips, give-ups, degradation.

Every test is counter-asserted against the ``IOStats.faults`` ledger:
injected transient errors must be exactly accounted for as retries plus
give-ups, and every wait must land on the simulated clock.
"""

import pytest

from tests.conftest import make_entries

from repro.core.definition import i1_definition
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.faults.plan import FaultPlan, TransientFault
from repro.faults.storage import FaultyTier
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats, ReadIntent
from repro.storage import retry
from repro.storage.retry import MAX_ATTEMPTS, TransientIOError, backoff_ns


def faulty_hierarchy(*transient: TransientFault):
    stats = IOStats()
    plan = FaultPlan(seed=0, transient=tuple(transient))
    shared = FaultyTier(plan, run_prefix="t-run", stats=stats)
    hierarchy = StorageHierarchy(shared=shared, stats=stats)
    return hierarchy, shared


class TestBackoff:
    def test_the_default_schedule_doubles_up_to_its_cap(self):
        assert [backoff_ns(a) for a in range(1, 8)] == [
            1_000_000, 2_000_000, 4_000_000, 8_000_000,
            16_000_000, 16_000_000, 16_000_000,
        ]

    def test_backoff_caps(self, monkeypatch):
        monkeypatch.setattr(retry, "BASE_DELAY_NS", 1_000)
        monkeypatch.setattr(retry, "MAX_DELAY_NS", 4_000)
        assert [backoff_ns(a) for a in range(1, 6)] == [
            1_000, 2_000, 4_000, 4_000, 4_000
        ]
        assert sum(map(backoff_ns, (1, 2, 3))) == 7_000


class TestAbsorbedBlips:
    def test_write_retries_until_success(self):
        hierarchy, _shared = faulty_hierarchy(
            TransientFault(op_ordinal=1, failures=2)
        )
        hierarchy.write_persisted(Block(BlockId("t-run-g-000000", 0), b"x"))
        faults = hierarchy.stats.faults
        # counter-asserted: 2 injected errors == 2 retries, 0 give-ups,
        # and the block landed despite them.
        assert faults.transient_write_errors == 2
        assert faults.write_retries == 2
        assert faults.write_giveups == 0
        assert hierarchy.shared.contains(BlockId("t-run-g-000000", 0))

    def test_backoff_charged_to_simulated_clock(self):
        hierarchy, _shared = faulty_hierarchy(
            TransientFault(op_ordinal=1, failures=2)
        )
        hierarchy.write_persisted(Block(BlockId("t-run-g-000000", 0), b"x"))
        # Two failed attempts wait backoff(1) + backoff(2) simulated ns.
        assert (
            hierarchy.stats.faults.backoff_sim_ns
            == backoff_ns(1) + backoff_ns(2)
        )

    def test_read_retries_attributed_to_intent(self):
        hierarchy, _shared = faulty_hierarchy(
            TransientFault(op_ordinal=2, failures=1)  # op 1 is the write
        )
        bid = BlockId("t-run-g-000000", 0)
        hierarchy.write_persisted(Block(bid, b"x"))
        block = hierarchy.read_shared(bid)
        assert block is not None and block.payload == b"x"
        istats = hierarchy.stats.intents[ReadIntent.MAINTENANCE]
        assert istats.retries == 1
        assert istats.giveups == 0
        assert hierarchy.stats.faults.read_retries == 1


class TestGiveUps:
    def test_outage_exhausts_budget_then_raises(self):
        hierarchy, shared = faulty_hierarchy()
        bid = BlockId("t-run-g-000000", 0)
        hierarchy.write_persisted(Block(bid, b"x"))
        shared.set_outage(True)
        with pytest.raises(TransientIOError):
            hierarchy.read_shared(bid)
        faults = hierarchy.stats.faults
        istats = hierarchy.stats.intents[ReadIntent.MAINTENANCE]
        # counter-asserted: max_attempts errors == (max_attempts-1)
        # retries + 1 give-up, mirrored on the read's intent.
        assert faults.transient_read_errors == MAX_ATTEMPTS
        assert faults.read_retries == MAX_ATTEMPTS - 1
        assert faults.read_giveups == 1
        assert istats.giveups == 1
        assert (
            faults.transient_read_errors + faults.transient_write_errors
            == faults.retries + faults.read_giveups + faults.write_giveups
        )

    def test_a_budget_of_one_attempt_disables_retries(self, monkeypatch):
        monkeypatch.setattr(retry, "MAX_ATTEMPTS", 1)
        hierarchy, _shared = faulty_hierarchy(
            TransientFault(op_ordinal=1, failures=1)
        )
        with pytest.raises(TransientIOError):
            hierarchy.write_persisted(Block(BlockId("t-run-g-000000", 0), b"x"))
        assert hierarchy.stats.faults.write_retries == 0
        assert hierarchy.stats.faults.write_giveups == 1


class TestDegradedMode:
    def test_outage_yields_errors_never_wrong_answers(self):
        """With shared storage down and local tiers lost, a query must
        surface an error -- and return the *correct* answer the moment
        the outage clears (no partial/empty result is ever served)."""
        definition = i1_definition()
        stats = IOStats()
        shared = FaultyTier(FaultPlan(seed=0), run_prefix="d-run", stats=stats)
        hierarchy = StorageHierarchy(shared=shared, stats=stats)
        index = UmziIndex(
            definition,
            hierarchy=hierarchy,
            config=UmziConfig(
                name="d",
                levels=LevelConfig(
                    groomed_levels=2,
                    post_groomed_levels=2,
                    max_runs_per_level=2,
                    size_ratio=2,
                ),
            ),
        )
        entries = make_entries(definition, keys=[1, 2, 3])
        index.add_groomed_run(entries, 1, 1)
        before = index.lookup((2,), (2,))
        assert before is not None

        # Fresh process: local tiers and every in-memory block cache are
        # gone, so the recovered index's queries must go to shared storage.
        hierarchy.crash_local_tiers()
        index = UmziIndex(definition, hierarchy=hierarchy, config=index.config)
        index.recover()
        shared.set_outage(True)
        with pytest.raises(TransientIOError):
            index.lookup((2,), (2,))
        assert stats.faults.read_giveups >= 1

        shared.set_outage(False)
        after = index.lookup((2,), (2,))
        assert after is not None
        assert after.to_blob(definition) == before.to_blob(definition)
