"""Tests for the maintenance service's step.

The daemon that drives it -- one thread per shard looping
``WildfireShard.tick`` -- is tested in tests/wildfire/test_engine.py
(``TestThreadedDaemons``).
"""

from repro.core.definition import i1_definition
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.maintenance import MaintenanceService

from tests.conftest import make_entries, needs_merge

DEF = i1_definition()


def build_index():
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=2, size_ratio=2)
    return UmziIndex(DEF, config=UmziConfig(name="mt", levels=levels,
                                            data_block_bytes=1024))


class TestStepMode:
    def test_step_runs_all_pending_merges(self):
        index = build_index()
        for gid in range(4):
            index.add_groomed_run(
                make_entries(DEF, range(gid * 5, gid * 5 + 5), gid * 5 + 1),
                gid, gid,
            )
        service = MaintenanceService(index)
        results = service.step()
        assert results
        assert not needs_merge(index)

    def test_step_with_nothing_pending(self):
        index = build_index()
        service = MaintenanceService(index)
        assert service.step() == []
