"""Ablation A2: the hash offset array (paper section 4.2).

"When processing index queries, the offset array can be used to provide a
more compact start and end offset for binary search."  This ablation
quantifies that: random lookups with the offset array enabled vs plain
binary search over the whole run.

The assertion is on **simulated probe counts** (``DecodeStats.
raw_key_probes``), not wall-clock ratios: probe counts are deterministic,
so the test cannot flake on a noisy host, while the wall-time series is
still produced for the figure.
"""

from typing import Optional

from repro.core.definition import i1_definition
from repro.core.query import QueryExecutor
from repro.workloads.generator import KeyMapper
from repro.workloads.queries import QueryBatchGenerator

from harness import (
    ExperimentResult,
    Series,
    build_single_run,
    measure_wall_s,
    report,
)

RUN_SIZES = (1_000, 10_000, 50_000)
BATCH = 300


def ablation_offset_array() -> ExperimentResult:
    """Lookup cost with and without the hash offset array; the headline
    probe counts for the largest run land in ``metrics``."""
    definition = i1_definition()
    mapper = KeyMapper(definition)
    series = []
    probe_series = []
    metrics = {}
    base: Optional[float] = None
    for enabled in (True, False):
        label = "offset array" if enabled else "binary search only"
        line = Series(label)
        probes_line = Series(f"{label} (probes)")
        for n in RUN_SIZES:
            run, hierarchy = build_single_run(definition, n, mapper)
            executor = QueryExecutor(
                definition, lambda run=run: [run], use_offset_array=enabled
            )
            batch = QueryBatchGenerator(mapper, n, seed=67).random_batch(BATCH)
            decode = hierarchy.stats.decode
            before = decode.snapshot()
            executor.batch_lookup(batch)
            probes = decode.diff(before).raw_key_probes
            probes_line.add(n, float(probes))
            elapsed = measure_wall_s(lambda: executor.batch_lookup(batch), 2)
            if base is None:
                base = elapsed
            line.add(n, elapsed)
        series.append(line)
        probe_series.append(probes_line)
        key = "with_offset_array" if enabled else "without_offset_array"
        metrics[f"raw_key_probes_{key}"] = probes_line.ys()[-1]
    result = ExperimentResult(
        figure="Ablation A2",
        title="Offset array benefit",
        x_label="entries in run",
        y_label="batch lookup time",
        series=series,
        notes="normalized to offset array at the smallest run; "
              "probe counts (simulated, deterministic) in metrics",
    ).normalize_all(base if base else 1.0)
    result.series.extend(probe_series)
    result.metrics.update(metrics)
    return result


def test_ablation_offset_array():
    result = ablation_offset_array()
    report(result)

    # Deterministic claim: narrowing binary search with the offset array
    # must strictly cut raw key probes at every run size.  The counts are
    # exact (fixed seed, simulated counters), so strict inequality cannot
    # flake the way the old wall-clock ratio assertion did.
    with_oa = result.series_by_label("offset array (probes)").ys()
    without = result.series_by_label("binary search only (probes)").ys()
    for n, (a, b) in enumerate(zip(with_oa, without)):
        assert a < b, (
            f"offset array must reduce simulated probes at size index {n}: "
            f"{a} vs {b}"
        )
    # The headline metrics must carry the same ordering (guards against a
    # series/metric wiring mix-up).
    assert (
        0
        < result.metrics["raw_key_probes_with_offset_array"]
        < result.metrics["raw_key_probes_without_offset_array"]
    )
