"""Ablation A1: set vs priority-queue reconciliation (paper section 7.1.2).

The paper describes both but does not compare them.  Expectations: both
return identical results, and both drive exactly the same run-search work
-- the strategies differ only in reconciliation structure (materialized
per-key dict vs streaming heap merge).

Assertions are on deterministic simulated counters, never on wall-clock
ratios: this test used to assert a timing ratio with ``repeat=1`` and
flaked on busy hosts exactly the way A2 once did (ROADMAP flagged it;
``tools/check_flaky.py`` now guards the whole benchmark tree against the
pattern).  Wall time is still *plotted* for the figure.
"""

from typing import Optional

from repro.core.definition import i1_definition
from repro.core.query import ReconcileStrategy
from repro.workloads.generator import KeyMapper, KeyMode
from repro.workloads.queries import QueryBatchGenerator

from harness import (
    ExperimentResult,
    Series,
    build_index_with_runs,
    measure_wall_s,
    report,
)

SCAN_RANGES = (10, 100, 1_000, 10_000)
NUM_RUNS = 10
ENTRIES_PER_RUN = 3_000


def ablation_reconcile_strategies() -> ExperimentResult:
    """Set vs priority-queue reconciliation across scan ranges.

    The figure plots wall time (the paper's presentation); per-range raw
    sort-key probe counts and a result-equality flag land in ``metrics``
    and the probe series rides alongside the wall-time series.
    """
    definition = i1_definition()
    total = NUM_RUNS * ENTRIES_PER_RUN
    mapper = KeyMapper(definition, spread=total)
    index = build_index_with_runs(
        definition, NUM_RUNS, ENTRIES_PER_RUN, KeyMode.RANDOM, mapper
    )
    decode = index.hierarchy.stats.decode
    series = []
    probe_series = []
    metrics = {}
    fingerprints: dict = {}
    base: Optional[float] = None
    for strategy in (ReconcileStrategy.SET, ReconcileStrategy.PRIORITY_QUEUE):
        line = Series(strategy.value)
        probes_line = Series(f"{strategy.value} (probes)")
        for scan_range in SCAN_RANGES:
            qgen = QueryBatchGenerator(mapper, total, seed=61)
            scan = qgen.sequential_scan(scan_range)
            before = decode.snapshot()
            results = index.range_scan(scan, strategy)
            probes = decode.diff(before).raw_key_probes
            probes_line.add(scan_range, float(probes))
            metrics[f"raw_key_probes_{strategy.value}_range{scan_range}"] = (
                float(probes)
            )
            fingerprint = tuple(
                (e.rid, e.begin_ts, e.sort_values) for e in results
            )
            other = fingerprints.setdefault(scan_range, fingerprint)
            metrics[f"results_identical_range{scan_range}"] = min(
                metrics.get(f"results_identical_range{scan_range}", 1.0),
                float(fingerprint == other),
            )
            elapsed = measure_wall_s(
                lambda: index.range_scan(scan, strategy),
                repeat=1,  # counter-asserted: wall time is plotted only
            )
            if base is None:
                base = elapsed
            line.add(scan_range, elapsed)
        series.append(line)
        probe_series.append(probes_line)
    result = ExperimentResult(
        figure="Ablation A1",
        title="Set vs priority-queue reconciliation",
        x_label="scan range size",
        y_label="scan time",
        series=series,
        notes="normalized to set approach at the smallest range; "
              "probe counts (simulated, deterministic) in metrics",
    ).normalize_all(base if base else 1.0)
    result.series.extend(probe_series)
    result.metrics.update(metrics)
    return result


def test_ablation_reconcile():
    result = ablation_reconcile_strategies()
    report(result)

    # Deterministic claim 1: both strategies reconcile to the exact same
    # answer at every range.
    for scan_range in SCAN_RANGES:
        assert result.metrics[f"results_identical_range{scan_range}"] == 1.0

    # Deterministic claim 2: the run-search cost is strategy-independent
    # -- identical raw sort-key probe counts at every range (reconciling
    # differently must not change which slices are probed).
    for scan_range in SCAN_RANGES:
        set_probes = result.metrics[f"raw_key_probes_set_range{scan_range}"]
        pq_probes = result.metrics[
            f"raw_key_probes_priority_queue_range{scan_range}"
        ]
        assert set_probes == pq_probes, (
            f"range {scan_range}: set probed {set_probes}, "
            f"priority_queue probed {pq_probes}"
        )

    # Deterministic claim 3: probe counts grow with the scan range (the
    # scaling the figure visualizes, asserted on the simulated counter).
    probes_by_range = [
        result.metrics[f"raw_key_probes_set_range{r}"] for r in SCAN_RANGES
    ]
    assert probes_by_range == sorted(probes_by_range)
    assert probes_by_range[-1] > probes_by_range[0]
