"""Tests for run-id allocation and index statistics."""

import threading

from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.ids import RunIdAllocator
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.stats import IndexStats, LevelStats

from tests.conftest import make_entries, rid_map


class TestRunIdAllocator:
    def test_ids_embed_zone_letter(self):
        allocator = RunIdAllocator("x")
        assert allocator.allocate(Zone.GROOMED).startswith("x-g-")
        assert allocator.allocate(Zone.POST_GROOMED).startswith("x-p-")

    def test_ids_unique_across_zones(self):
        allocator = RunIdAllocator("x")
        ids = [
            allocator.allocate(Zone.GROOMED if i % 2 else Zone.POST_GROOMED)
            for i in range(100)
        ]
        assert len(set(ids)) == 100

    def test_thread_safety(self):
        allocator = RunIdAllocator("x")
        out = []
        lock = threading.Lock()

        def worker():
            for _ in range(200):
                run_id = allocator.allocate(Zone.GROOMED)
                with lock:
                    out.append(run_id)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(out)) == 800


class TestIndexStats:
    def build(self):
        levels = LevelConfig(groomed_levels=2, post_groomed_levels=2,
                             max_runs_per_level=8, size_ratio=2)
        index = UmziIndex(
            i1_definition(), config=UmziConfig(name="st", levels=levels)
        )
        index.add_groomed_run(make_entries(index.definition, range(10)), 0, 0)
        index.add_groomed_run(
            make_entries(index.definition, range(10, 20), 11), 1, 1
        )
        return index

    def test_level_census(self):
        stats = self.build().stats()
        level0 = stats.levels[0]
        assert level0.run_count == 2
        assert level0.entry_count == 20
        assert level0.zone is Zone.GROOMED
        assert stats.total_entries == 20
        assert stats.total_runs == 2

    def test_format_table_contains_all_levels(self):
        stats = self.build().stats()
        text = stats.format_table()
        assert text.count("GROOMED") >= 2  # includes POST_GROOMED rows
        assert "watermark" in text

    def test_watermark_and_psn_reflected(self):
        index = self.build()
        index.evolve_streaming(
            1,
            rid_map(make_entries(index.definition, range(20), 1, Zone.POST_GROOMED, 5)),
            0, 1,
        )
        stats = index.stats()
        assert stats.max_covered_groomed_id == 1
        assert stats.indexed_psn == 1
        assert stats.post_groomed_run_count == 1
