"""FaultPlan generation: seeded, bounded, reproducible."""

from repro.faults.crash import CRASH_SITES, CrashSchedule
from repro.faults.plan import FaultPlan
from tests.fault_plans import describe_plan, generate_fault_plan
from repro.storage.retry import MAX_ATTEMPTS

import pytest


class TestDeterminism:
    def test_same_seed_same_plan(self):
        for seed in range(50):
            assert generate_fault_plan(seed) == generate_fault_plan(seed)

    def test_describe_is_stable(self):
        plan = generate_fault_plan(17)
        assert describe_plan(plan) == describe_plan(generate_fault_plan(17))
        assert "seed=17" in describe_plan(plan)

    def test_seeds_differ(self):
        # Not a tautology for every pair, but across 50 seeds at least
        # two universes must differ or the generator is ignoring the seed.
        plans = [generate_fault_plan(seed) for seed in range(50)]
        assert len({describe_plan(plan) for plan in plans}) > 1


class TestBounds:
    def test_transient_failures_always_absorbable(self):
        """Generated blips stay under the retry budget: the byte-identity
        property must never see a give-up (an error is a legitimate
        outcome only in dedicated outage tests)."""
        for seed in range(200):
            for fault in generate_fault_plan(seed).transient:
                assert 1 <= fault.failures < MAX_ATTEMPTS

    def test_knob_ceilings(self):
        for seed in range(200):
            plan = generate_fault_plan(seed)
            assert len(plan.torn_writes) <= 2
            assert len(plan.bit_rot) <= 2
            assert len(plan.transient) <= 3
            assert sum(len(v) for v in plan.crash_triggers.values()) <= 3
            for site, ordinals in plan.crash_triggers.items():
                assert site in CRASH_SITES
                assert all(1 <= o <= 4 for o in ordinals)
            for rot in plan.bit_rot:
                assert 1 <= rot.xor_mask <= 255  # 0 would be a no-op flip

    def test_torn_persist_ordinals_unique(self):
        for seed in range(200):
            ordinals = [
                t.persist_ordinal
                for t in generate_fault_plan(seed).torn_writes
            ]
            assert len(ordinals) == len(set(ordinals))


class TestScheduleConstruction:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown crash site"):
            CrashSchedule({"no.such.site": {1}})

    def test_plan_schedules_are_independent(self):
        """Each crash_schedule() call yields fresh hit counters: replaying
        a plan must not inherit the previous run's disarmed ordinals."""
        plan = FaultPlan(seed=0, crash_triggers={"evolve.pre_publish": frozenset({1})})
        first = CrashSchedule(plan.crash_triggers)
        second = CrashSchedule(plan.crash_triggers)
        assert first is not second
        assert first._triggers == second._triggers
