"""Figure 14: cached vs purged runs.

Paper: "the latency of the lookup queries is much lower when all the index
runs are cached (none) compared to the cases where the half or all of the
runs are purged"; purged runs cause latency spikes on first access because
data blocks stream back from shared storage.

y is deterministic simulated tier latency: the SSD-vs-shared-storage gap
is the figure's entire subject, and the in-process simulation makes that
gap visible only through the tier cost model.
"""

import random
import statistics
from typing import Optional, Sequence

from repro.workloads.generator import IoTUpdateWorkload

from harness import (
    ExperimentResult,
    Series,
    iot_keys,
    make_iot_shard,
    report,
    seed_shard,
)


def fig14_purge_levels(
    purge_modes: Sequence[str],
    cycles: int,
    records_per_cycle: int,
    batch_size: int,
    sample_every: int,
) -> ExperimentResult:
    """Simulated lookup cost with none / half / all of the runs purged."""
    series = []
    base: Optional[float] = None
    for mode in purge_modes:
        shard = make_iot_shard(post_groom_every=10)
        workload = IoTUpdateWorkload(records_per_cycle, update_percent=10, seed=5)
        seed_shard(shard, workload, cycles)
        levels = shard.index.config.levels
        # 'half' keeps the groomed zone (recent data) cached and purges the
        # post-groomed zone (old data): the paper purges old runs first.
        level = {
            "none": levels.total_levels - 1,
            "half": levels.groomed_levels - 1,
            "all": -1,
        }[mode]
        shard.index.cache.set_cache_level(level)

        rng = random.Random(47)
        population = workload.keys_ingested
        line = Series(mode)
        for sample in range(cycles // sample_every):
            keys = [rng.randrange(population) for _ in range(batch_size)]
            batch = iot_keys(keys)
            # Every sample pays its own (deterministic) block reads: cached
            # runs cost SSD reads, purged runs cost shared-storage fetches.
            for run in shard.index.all_runs():
                run.drop_decode_cache()
            before = shard.hierarchy.stats.total_sim_ns
            shard.index_batch_lookup(batch)
            cost = (shard.hierarchy.stats.total_sim_ns - before) / batch_size
            if mode == "none" and base is None:
                base = cost
            line.add(sample, cost)
        series.append(line)
    return ExperimentResult(
        figure="Figure 14",
        title="Lookup cost vs purge level",
        x_label="sample number (time)",
        y_label="simulated time per lookup",
        series=series,
        notes="normalized to the first no-purge sample; simulated tier "
              "latency (deterministic)",
    ).normalize_all(base if base else 1.0)


def test_fig14_purge_levels():
    # 35 cycles with post-groom every 10: the last 5 cycles are still in
    # the groomed zone, so "half" (groomed cached, post-groomed purged) is
    # genuinely cheaper than "all".
    result = fig14_purge_levels(
        purge_modes=("none", "half", "all"),
        cycles=35,
        records_per_cycle=200,
        batch_size=50,
        sample_every=5,
    )
    report(result)

    none_mean = statistics.mean(result.series_by_label("none").ys())
    half_mean = statistics.mean(result.series_by_label("half").ys())
    all_mean = statistics.mean(result.series_by_label("all").ys())

    # Shape: fully cached is far cheaper than purged; more purging is worse.
    assert all_mean > none_mean * 3, (
        f"purged lookups must be much slower: all={all_mean:.1f} vs "
        f"none={none_mean:.1f}"
    )
    assert all_mean > half_mean  # recent (groomed) data still cached
    assert half_mean > none_mean * 2
