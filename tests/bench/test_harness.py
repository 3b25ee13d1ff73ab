"""Tests for the benchmark harness: series, normalization, shape checks."""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from harness import (  # noqa: E402
    ExperimentResult,
    Series,
    assert_dominates,
    assert_flat_within,
    assert_monotone_increase,
    assert_roughly_linear,
    measure_wall_s,
)


def result_with(series):
    return ExperimentResult(
        figure="Figure T", title="test", x_label="x", y_label="y",
        series=series,
    )


class TestSeries:
    def test_add_and_ys(self):
        s = Series("a")
        s.add(1, 2.0)
        s.add(2, 4.0)
        assert s.ys() == [2.0, 4.0]

    def test_normalized(self):
        s = Series("a", [(1, 2.0), (2, 4.0)])
        n = s.normalized(2.0)
        assert n.ys() == [1.0, 2.0]

    def test_normalize_rejects_nonpositive_base(self):
        with pytest.raises(ValueError):
            Series("a", [(1, 1.0)]).normalized(0.0)


class TestExperimentResult:
    def test_series_by_label(self):
        r = result_with([Series("a", [(1, 1.0)]), Series("b", [(1, 2.0)])])
        assert r.series_by_label("b").ys() == [2.0]
        with pytest.raises(KeyError):
            r.series_by_label("ghost")

    def test_normalize_all(self):
        r = result_with([Series("a", [(1, 2.0)]), Series("b", [(1, 6.0)])])
        n = r.normalize_all(2.0)
        assert n.series_by_label("a").ys() == [1.0]
        assert n.series_by_label("b").ys() == [3.0]
        assert "normalized" in n.y_label

    def test_format_table_shape(self):
        r = result_with([
            Series("a", [(1, 1.0), (2, 2.0)]),
            Series("b", [(1, 3.0)]),  # missing x=2 cell allowed
        ])
        table = r.format_table()
        assert "Figure T" in table
        lines = table.splitlines()
        assert any("1.0000" in line and "3.0000" in line for line in lines)

    def test_save(self, tmp_path):
        r = result_with([Series("a", [(1, 1.0)])])
        path = os.path.join(tmp_path, "out.txt")
        r.save(path)
        assert "Figure T" in open(path).read()

    def test_json_payload_shape(self):
        r = ExperimentResult(
            figure="Figure T", title="test", x_label="x", y_label="y",
            series=[Series("a", [(1, 1.0), (2, 2.5)])],
            metrics={"ops_per_s": 123.0, "decodes": 0.0},
        )
        payload = r.to_json_dict()
        assert payload["figure"] == "Figure T"
        assert payload["series"] == [
            {"label": "a", "points": [[1, 1.0], [2, 2.5]]}
        ]
        assert payload["metrics"] == {"ops_per_s": 123.0, "decodes": 0.0}

    def test_save_json_roundtrip(self, tmp_path):
        import json

        r = result_with([Series("a", [(1, 1.0)])])
        r.metrics["wall_s"] = 0.5
        path = os.path.join(tmp_path, "BENCH_t.json")
        r.save_json(path)
        with open(path) as handle:
            assert json.load(handle) == r.to_json_dict()

    def test_normalize_all_keeps_metrics(self):
        r = result_with([Series("a", [(1, 2.0)])])
        r.metrics["decodes"] = 7.0
        assert r.normalize_all(2.0).metrics == {"decodes": 7.0}


class TestShapeAssertions:
    def test_monotone_increase_accepts_noise(self):
        assert_monotone_increase([1.0, 1.05, 0.99, 2.0], slack=1.10)

    def test_monotone_increase_rejects_collapse(self):
        with pytest.raises(AssertionError):
            assert_monotone_increase([1.0, 2.0, 0.5])

    def test_roughly_linear_accepts(self):
        assert_roughly_linear([1, 10, 100], [2.0, 19.0, 230.0], tolerance=2.0)

    def test_roughly_linear_rejects_flat(self):
        with pytest.raises(AssertionError):
            assert_roughly_linear([1, 1000], [1.0, 1.2], tolerance=2.0)

    def test_roughly_linear_rejects_superlinear(self):
        with pytest.raises(AssertionError):
            assert_roughly_linear([1, 10], [1.0, 500.0], tolerance=2.0)

    def test_flat_within(self):
        assert_flat_within([1.0, 1.4, 0.9], factor=2.0)
        with pytest.raises(AssertionError):
            assert_flat_within([1.0, 3.0], factor=2.0)

    def test_dominates(self):
        assert_dominates([2.0, 4.0], [1.0, 2.0], min_ratio=1.5)
        with pytest.raises(AssertionError):
            assert_dominates([1.0], [1.0], min_ratio=1.5)


class TestMeasureWall:
    def test_returns_positive_median(self):
        elapsed = measure_wall_s(lambda: sum(range(1000)), repeat=3)
        assert elapsed > 0
