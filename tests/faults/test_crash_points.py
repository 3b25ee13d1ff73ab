"""Crash-point mechanics: firing, disarm, installation discipline."""

import pytest

from repro.faults import crash
from repro.faults.crash import (
    CrashSchedule,
    crash_point,
    install_crash_schedule,
)
from repro.faults.errors import SimulatedCrash


class TestFiring:
    def test_noop_without_schedule(self):
        assert crash._active is None
        crash_point("evolve.pre_publish")  # must not raise

    def test_fires_at_targeted_hit_ordinal(self):
        schedule = CrashSchedule({"evolve.pre_publish": {2}})
        with install_crash_schedule(schedule):
            crash_point("evolve.pre_publish")  # hit 1: survives
            with pytest.raises(SimulatedCrash) as exc:
                crash_point("evolve.pre_publish")  # hit 2: dies
        assert exc.value.site == "evolve.pre_publish"
        assert exc.value.hit == 2
        assert schedule.hits("evolve.pre_publish") == 2

    def test_untargeted_site_never_fires(self):
        schedule = CrashSchedule({"evolve.pre_publish": {1}})
        with install_crash_schedule(schedule):
            for _ in range(5):
                crash_point("merge.pre_splice")
        assert schedule.hits("merge.pre_splice") == 5
        assert len(schedule.fired) == 0

    def test_disarm_lets_replay_pass(self):
        """A fired ordinal is consumed: the post-recovery replay of the
        same operation passes the site instead of dying forever."""
        schedule = CrashSchedule({"builder.pre_persist": {1}})
        with install_crash_schedule(schedule):
            with pytest.raises(SimulatedCrash):
                crash_point("builder.pre_persist")
            crash_point("builder.pre_persist")  # replay: survives
        assert schedule.hits("builder.pre_persist") == 2
        assert len(schedule.fired) == 1

    def test_multiple_ordinals_fire_independently(self):
        schedule = CrashSchedule({"maintenance.step": {1, 3}})
        with install_crash_schedule(schedule):
            with pytest.raises(SimulatedCrash):
                crash_point("maintenance.step")
            crash_point("maintenance.step")
            with pytest.raises(SimulatedCrash):
                crash_point("maintenance.step")
        assert len(schedule.fired) == 2


class TestCrashIsNotAnException:
    def test_broad_except_does_not_swallow(self):
        """SimulatedCrash subclasses BaseException precisely so production
        ``except Exception`` cleanup handlers cannot absorb a simulated
        process death and carry on as if nothing happened."""
        assert not issubclass(SimulatedCrash, Exception)
        schedule = CrashSchedule({"journal.pre_append": {1}})
        with install_crash_schedule(schedule):
            with pytest.raises(SimulatedCrash):
                try:
                    crash_point("journal.pre_append")
                except Exception:  # the handler a real bug would hide in
                    pytest.fail("broad except handler swallowed the crash")


class TestInstallation:
    def test_nested_install_rejected(self):
        with install_crash_schedule(CrashSchedule({})):
            with pytest.raises(RuntimeError, match="already installed"):
                with install_crash_schedule(CrashSchedule({})):
                    pass

    def test_uninstalled_after_exit_even_on_crash(self):
        schedule = CrashSchedule({"groom.enter": {1}})
        with pytest.raises(SimulatedCrash):
            with install_crash_schedule(schedule):
                crash_point("groom.enter")
        assert crash._active is None
        crash_point("groom.enter")  # no schedule: no-op again
