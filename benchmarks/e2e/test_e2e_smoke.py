"""Smoke test of the end-to-end benchmark at a tenth of every size.

Checks the contract between ``BENCHMARK.json`` and what ``run.py`` emits,
the oracle, exact replay of everything that is not a wall-clock time, and
the tracer's promise never to fail a run over a missing boundary.  No
timing is asserted: this runs on a shared box.
"""

import functools
import os

import pytest

import compare
import run
import suite
import tracer
from workloads import Generator

CONTRACT = suite.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SEED = 7
CHUNKS = 3
# Seed-determined end-to-end metrics (peak_rss_mb is the allocator's).
EXACT_END_TO_END = ("sim_io_s", "write_amp", "space_amp")
# Per-layer metrics that hold a wall-clock time somewhere in them.
TIMED_UNITS = ("us", "ms", "rows/s", "1/s")
TIMED_NAMES = (
    "trace.overhead_ratio", "trace.self_time_coverage", "driver.host_factor",
)


@functools.lru_cache(maxsize=None)
def smoke(workload, trace=False, replay=0):
    """One smoke run; ``replay`` tells a repeat from the cached first run."""
    return run.run(workload, SEED, 0.0, trace, CHUNKS, True)


def is_timed(name, unit):
    return unit in TIMED_UNITS or name in TIMED_NAMES or name.endswith(".busy_share")


def test_contract_names_the_workloads_the_benchmark_has():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_replay(workload):
    first = smoke(workload)
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {n: m["unit"] for n, m in first["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in first["metrics"].values())

    again = smoke(workload, replay=1)
    assert again["attempted"] == first["attempted"]
    for name in EXACT_END_TO_END:
        assert again["metrics"][name] == first["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_replay(workload):
    first = smoke(workload, trace=True)
    assert first["correct"]
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {n: m["unit"] for n, m in first["metrics"].items()} == expected
    values = {n: m["value"] for n, m in first["metrics"].items()}
    # The layers' self times add up to the traced front-door time.
    assert 0.9 <= values["trace.self_time_coverage"] <= 1.0
    assert values["wildfire.shardmap.pins_per_op"] == 2.0
    assert values["storage.hierarchy.maintenance_promotions"] == 0
    assert os.path.exists(os.path.join(run.RESULTS_DIR, f"trace_{workload}.json"))

    again = smoke(workload, trace=True, replay=1)
    for name, metric in again["metrics"].items():
        if not is_timed(name, metric["unit"]):
            assert metric["value"] == values[name], name


def test_workloads_separate_the_layers():
    warm = {n: m["value"] for n, m in smoke("point_warm", trace=True)["metrics"].items()}
    purged = {n: m["value"] for n, m in smoke("point_purged", trace=True)["metrics"].items()}
    assert warm["storage.hierarchy.shared_reads_per_op"] == 0
    assert purged["storage.hierarchy.shared_reads_per_op"] >= 1
    assert warm["core.cache.cached_run_fraction"] == 1.0
    assert purged["core.cache.cached_run_fraction"] == 0.0
    assert warm["planner.self_us_per_query"] == 0


def test_op_sequence_follows_the_seed():
    def first_ops(seed):
        generator = Generator("typed_scatter", seed, run.SMOKE_SHRINK)
        rows = [row for batch in generator.load_batches() for row in batch]
        return rows, [(kind, argument) for kind, argument, _ in generator.next_chunk()]

    assert first_ops(SEED) == first_ops(SEED)
    assert first_ops(SEED) != first_ops(SEED + 1)


def test_wrong_answers_are_counted():
    table, generator, _ = run.set_up("point_warm", SEED, True)
    ops = [(kind, argument, "not the answer")
           for kind, argument, _ in generator.next_chunk()[:5]]
    driver = run.Driver(table)
    driver.drive(ops)
    assert driver.attempted == 5
    assert driver.failures == {("point", "wrong"): 5}


def test_absent_boundary_warns_and_the_run_goes_on(monkeypatch, capsys):
    monkeypatch.setattr(tracer, "BOUNDARIES", tracer.BOUNDARIES + (
        ("planner", tracer._shards, "no_such_method", None),
    ))
    result = smoke("point_warm", trace=True, replay=2)
    assert result["correct"]
    assert "planner:no_such_method is absent" in capsys.readouterr().err


def test_compare_verdicts():
    def q(median, spread=0.01):
        return {"median": median, "q1": median, "q3": median, "spread": spread}

    assert compare.verdict(q(100), q(115), "lower", 0.10) == "worse"
    assert compare.verdict(q(100), q(85), "higher", 0.10) == "worse"
    assert compare.verdict(q(100), q(104, spread=0.2), "lower", 0.10) == "unresolved"
    assert compare.verdict(q(100), q(90), "lower", 0.10) == "better"
    assert compare.verdict(q(100), q(100.5), "lower", 0.10) == "same"
