"""Tests for the benchmark fixtures and figure functions (tiny scales)."""

import sys
from pathlib import Path

import pytest

from repro.core.definition import i1_definition
from repro.workloads.generator import KeyMode

from tests.conftest import run_entries

# The benchmarks import their harness by its bare module name.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from bench_fig08_build import fig08_build  # noqa: E402
from bench_fig14_purge import fig14_purge_levels  # noqa: E402
from harness import (  # noqa: E402
    build_index_with_runs,
    build_single_run,
    entries_for_keys,
    iot_keys,
    iot_rows,
    make_iot_shard,
)


class TestFixtures:
    def test_entries_for_keys_monotone_ts(self):
        definition = i1_definition()
        entries = entries_for_keys(definition, [5, 3, 9], ts_start=10)
        assert [e.begin_ts for e in entries] == [10, 11, 12]

    def test_build_single_run_sorted(self):
        definition = i1_definition()
        run, hierarchy = build_single_run(definition, 50)
        assert run.entry_count == 50
        keys = [e.sort_key(definition) for e in run_entries(run)]
        assert keys == sorted(keys)

    def test_build_index_sequential_disjoint_ranges(self):
        definition = i1_definition()
        index = build_index_with_runs(definition, 4, 10, KeyMode.SEQUENTIAL)
        synopses = [
            (r.header.synopsis.column_range(0).min_value,
             r.header.synopsis.column_range(0).max_value)
            for r in index.all_runs()
        ]
        # Disjoint, contiguous key ranges per run.
        flat = sorted(synopses)
        for (a_lo, a_hi), (b_lo, b_hi) in zip(flat, flat[1:]):
            assert a_hi < b_lo

    def test_build_index_random_overlapping_ranges(self):
        definition = i1_definition()
        index = build_index_with_runs(definition, 4, 50, KeyMode.RANDOM)
        spans = [
            (r.header.synopsis.column_range(0).min_value,
             r.header.synopsis.column_range(0).max_value)
            for r in index.all_runs()
        ]
        overlapping = any(
            a_lo <= b_hi and b_lo <= a_hi
            for i, (a_lo, a_hi) in enumerate(spans)
            for (b_lo, b_hi) in spans[i + 1:]
        )
        assert overlapping


class TestEndToEndHelpers:
    def test_iot_row_mapping_roundtrip(self):
        rows = iot_rows([0, 64, 129], devices=64)
        assert rows == [(0, 0, 0), (0, 1, 64), (1, 2, 129)]
        assert iot_keys([129], devices=64) == [((1,), (2,))]

    def test_make_iot_shard_lifecycle(self):
        shard = make_iot_shard(post_groom_every=2)
        shard.ingest(iot_rows(list(range(20))))
        shard.tick()
        shard.tick()
        assert shard.index.stats().total_entries == 20


class TestExperimentFunctions:
    def test_fig08_tiny(self):
        result = fig08_build(sizes=(200, 400), repeat=1)
        assert result.series_by_label("I1").points[0][1] == pytest.approx(1.0)
        assert len(result.series) == 3

    def test_fig14_tiny_deterministic(self):
        a = fig14_purge_levels(purge_modes=("none", "all"), cycles=10,
                               records_per_cycle=50, batch_size=20,
                               sample_every=5)
        b = fig14_purge_levels(purge_modes=("none", "all"), cycles=10,
                               records_per_cycle=50, batch_size=20,
                               sample_every=5)
        assert [s.points for s in a.series] == [s.points for s in b.series]

