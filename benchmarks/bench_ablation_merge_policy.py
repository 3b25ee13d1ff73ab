"""Ablation A3: the hybrid merge policy's K knob (paper section 5.3).

"Umzi employs a hybrid merge policy ... to easily trade-off write
amplification and query performance."  Sweeping K (max runs per level)
should show the trade-off: small K merges eagerly (more bytes rewritten,
fewer runs, faster queries); large K defers merging (fewer bytes, more
runs, slower queries).
"""

from typing import Optional

from repro.core.definition import i1_definition
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.query import MAX_QUERY_TS
from repro.workloads.generator import KeyMapper
from repro.workloads.queries import QueryBatchGenerator

from harness import (
    ExperimentResult,
    Series,
    batch_keys,
    entries_for_keys,
    measure_wall_s,
    report,
)

K_VALUES = (1, 2, 4, 8)
SIZE_RATIO = 4
RUNS_TO_INGEST = 16
ENTRIES_PER_RUN = 2_000
BATCH = 200


def ablation_merge_policy() -> ExperimentResult:
    """K sweep: shared-storage write amplification vs lookup cost.

    Larger K defers merging (less write amplification, more runs to
    search); K=1 is leveling-like (max merging, fewest runs).
    """
    definition = i1_definition()
    mapper = KeyMapper(definition)
    wa_series = Series("write amplification (bytes ratio)")
    query_series = Series("lookup time (normalized)")
    runs_series = Series("final run count")
    base_query: Optional[float] = None
    for k in K_VALUES:
        levels = LevelConfig(
            groomed_levels=4, post_groomed_levels=2,
            max_runs_per_level=k, size_ratio=SIZE_RATIO,
        )
        index = UmziIndex(
            definition, config=UmziConfig(name=f"abl-k{k}", levels=levels)
        )
        ts = 1
        for gid in range(RUNS_TO_INGEST):
            keys = list(range(gid * ENTRIES_PER_RUN, (gid + 1) * ENTRIES_PER_RUN))
            index.add_groomed_run(
                entries_for_keys(definition, keys, mapper, ts_start=ts,
                                 block_id=gid),
                gid, gid,
            )
            index.run_maintenance()
            ts += ENTRIES_PER_RUN
        ingested_bytes = sum(run.size_bytes for run in index.all_runs())
        wa = index.hierarchy.shared.write_amplification_bytes / max(
            ingested_bytes, 1
        )
        qgen = QueryBatchGenerator(mapper, RUNS_TO_INGEST * ENTRIES_PER_RUN, seed=71)
        keys = batch_keys(qgen.random_batch(BATCH))
        elapsed = measure_wall_s(
            lambda: index.batch_lookup(keys, MAX_QUERY_TS), 3
        )
        if base_query is None:
            base_query = elapsed
        wa_series.add(k, wa)
        query_series.add(k, elapsed / base_query)
        runs_series.add(k, index.stats().total_runs)
    return ExperimentResult(
        figure="Ablation A3",
        title="Merge policy K sweep: write amplification vs query cost",
        x_label="K (max runs per level)",
        y_label="see series labels",
        series=[wa_series, query_series, runs_series],
        notes=f"T={SIZE_RATIO}; write amplification = shared bytes written / "
              "live index bytes",
    )


def test_ablation_merge_policy():
    result = ablation_merge_policy()
    report(result)

    wa = result.series_by_label("write amplification (bytes ratio)").ys()
    runs = result.series_by_label("final run count").ys()

    # Shape: write amplification decreases (weakly) as K grows ...
    assert wa[0] >= wa[-1], (
        f"K=1 must rewrite at least as much as K=8: {wa[0]:.2f} vs {wa[-1]:.2f}"
    )
    # ... while the number of live runs grows (weakly).
    assert runs[-1] >= runs[0], (
        f"K=8 must retain at least as many runs as K=1: {runs[-1]} vs {runs[0]}"
    )
