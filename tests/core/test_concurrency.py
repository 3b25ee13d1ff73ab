"""Concurrency stress tests: lock-free readers vs live maintenance.

The paper's core concurrency claim (section 5.1): queries are always
lock-free and always see correct results while builds, merges, and evolves
run concurrently.  These tests hammer that claim with real threads.
"""

import threading
import time

import pytest

from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.maintenance import MaintenanceService

from tests.conftest import key_of, make_entries, needs_merge, rid_map

DEF = i1_definition()


def build_index():
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=2, size_ratio=2)
    return UmziIndex(DEF, config=UmziConfig(name="cc", levels=levels,
                                            data_block_bytes=2048))


class TestReadersVsMaintenance:
    def test_lookups_correct_during_builds_and_merges(self):
        index = build_index()
        index.add_groomed_run(make_entries(DEF, range(10), 1), 0, 0)
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    # Keys 0..9 were ingested first and are never updated:
                    # they must be visible forever, whatever maintenance does.
                    for k in (0, 5, 9):
                        eq, sort = key_of(DEF, k)
                        hit = index.lookup(eq, sort)
                        if hit is None:
                            errors.append(f"lost key {k}")
                            return
                except Exception as exc:  # pragma: no cover
                    errors.append(repr(exc))
                    return

        service = MaintenanceService(index)
        builds_done = threading.Event()

        def maintainer():
            # Merge beside the builds, then run until nothing is pending.
            deadline = time.time() + 10
            while not builds_done.is_set() or needs_merge(index):
                if time.time() > deadline:
                    return
                service.step()
                time.sleep(0.001)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        merger = threading.Thread(target=maintainer)
        for t in (*readers, merger):
            t.start()
        for gid in range(1, 12):
            index.add_groomed_run(
                make_entries(DEF, range(gid * 10, gid * 10 + 10), gid * 10 + 1),
                gid, gid,
            )
            time.sleep(0.002)
        builds_done.set()
        merger.join()
        stop.set()
        for t in readers:
            t.join()
        assert errors == []
        assert not needs_merge(index)

    def test_lookups_correct_during_evolves(self):
        index = build_index()
        for gid in range(6):
            index.add_groomed_run(
                make_entries(DEF, range(gid * 10, gid * 10 + 10), gid * 10 + 1),
                gid, gid,
            )
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    for k in (0, 25, 55):
                        eq, sort = key_of(DEF, k)
                        hit = index.lookup(eq, sort)
                        if hit is None:
                            errors.append(f"lost key {k}")
                            return
                        eq_scan, _ = key_of(DEF, k)
                        hits = index.scan(eq_scan, (k,), (k,))
                        if len(hits) != 1:
                            errors.append(f"key {k}: {len(hits)} results")
                            return
                except Exception as exc:  # pragma: no cover
                    errors.append(repr(exc))
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        # Evolve gid ranges one by one while readers run.
        for psn, (lo, hi) in enumerate([(0, 1), (2, 3), (4, 5)], start=1):
            entries = make_entries(
                DEF, range(lo * 10, (hi + 1) * 10), lo * 10 + 1,
                Zone.POST_GROOMED, 100 + psn,
            )
            index.evolve_streaming(psn, rid_map(entries), lo, hi)
            time.sleep(0.01)
        stop.set()
        for t in readers:
            t.join()
        assert errors == []

    def test_snapshot_queries_are_repeatable_under_maintenance(self):
        """A fixed query_ts must return identical results no matter how
        many merges/evolves happen in between."""
        index = build_index()
        for gid in range(4):
            index.add_groomed_run(
                make_entries(DEF, range(gid * 10, gid * 10 + 10), gid * 10 + 1),
                gid, gid,
            )
        snapshot_ts = 25
        eq, sort = key_of(DEF, 12)
        before = index.lookup(eq, sort, query_ts=snapshot_ts)
        index.run_maintenance()
        index.evolve_streaming(
            1, rid_map(make_entries(DEF, range(40), 1, Zone.POST_GROOMED, 100)), 0, 3
        )
        after = index.lookup(eq, sort, query_ts=snapshot_ts)
        assert before is not None and after is not None
        assert before.begin_ts == after.begin_ts
        assert before.include_values == after.include_values
