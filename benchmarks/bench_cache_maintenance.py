"""Ablation A10: maintenance-aware cache admission (``ReadIntent``).

The scan-thrash scenario ROADMAP flagged after PR 2: streaming evolve reads
entire (purged) groomed runs through the normal hierarchy path.  If those
one-pass maintenance reads were admitted like query reads they would flood
a bounded SSD cache with blocks no query will touch again, so the query
path could no longer admit its own hot blocks and every lookup would fall
through to shared storage.  Maintenance reads carry
``ReadIntent.MAINTENANCE`` and are never promoted: the query working set
warms once and then hits the cache.

The experiment pins the cache level to -1 (everything purged, Figure-14
style), interleaves two streaming evolves with rounds of hot point lookups
over the most recent runs, and reports the query-path cache hit rate and
the per-intent promotion counters.

Acceptance (ISSUE 3): maintenance reads register **zero** SSD promotions
and the query path keeps its cache.  The promote-everything comparison
arm (``maintenance_read_mode="legacy"``: hit rate 0.00, 66 maintenance
promotions on the same fixture) was retired with the flag in PR 15; its
numbers are frozen in docs/benchmarks.md under "Frozen verdicts".

Set ``UMZI_BENCH_SMOKE=1`` for the CI-sized fixture.
"""

import os
import time

from repro.core.definition import i1_definition
from repro.core.entry import RID, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.storage.metrics import ReadIntent
from repro.workloads.generator import KeyMapper

from harness import ExperimentResult, Series, entries_for_keys, report

_SMOKE = os.environ.get("UMZI_BENCH_SMOKE") == "1"
NUM_RUNS = 10
ENTRIES_PER_RUN = 300 if _SMOKE else 1_500
HOT_KEYS = 12 if _SMOKE else 24
QUERY_ROUNDS = 6 if _SMOKE else 10

DEF = i1_definition()


def _build_index(name):
    levels = LevelConfig(
        groomed_levels=3, post_groomed_levels=2,
        max_runs_per_level=4, size_ratio=4,
    )
    index = UmziIndex(
        DEF,
        config=UmziConfig(
            name=name,
            levels=levels,
            data_block_bytes=2048,
            # Query-driven caching: blocks a query promotes from purged
            # runs stay resident (the cache the evolve must not displace).
            release_purged_blocks_after_query=False,
        ),
    )
    mapper = KeyMapper(DEF)
    ts = 1
    for gid in range(NUM_RUNS):
        keys = list(range(gid * ENTRIES_PER_RUN, (gid + 1) * ENTRIES_PER_RUN))
        index.add_groomed_run(
            entries_for_keys(DEF, keys, mapper, ts_start=ts, block_id=gid),
            gid, gid,
        )
        ts += ENTRIES_PER_RUN
    # Merge level 0 down so the groomed zone holds two wide level-1 runs
    # (gids 0..3 and 4..7) plus the two newest level-0 runs (8, 9): the
    # wide runs are what the evolves stream, the newest runs are what the
    # hot queries touch.
    index.merger.merge_until_stable(Zone.GROOMED)
    return index, mapper


def _rid_mapper(lo_ts, hi_ts):
    """Post-groomed relocation for versions with beginTS in [lo_ts, hi_ts]."""
    def new_rid_of(begin_ts):
        if lo_ts <= begin_ts <= hi_ts:
            return RID(Zone.POST_GROOMED, begin_ts // 1000, begin_ts % 1000)
        return None
    return new_rid_of


def _hot_keys():
    # Keys living in the two newest groomed runs (gids 8 and 9) -- the
    # recent data real query traffic concentrates on.
    lo = 8 * ENTRIES_PER_RUN
    hi = NUM_RUNS * ENTRIES_PER_RUN
    step = max(1, (hi - lo) // HOT_KEYS)
    return list(range(lo, hi, step))[:HOT_KEYS]


def _run():
    index, mapper = _build_index("cache-maint")

    # Bound the SSD at half a wide groomed run: comfortably larger than the
    # hot query working set, but small enough that admitted maintenance
    # reads would exhaust it before the queries could admit anything.
    wide_runs = [
        run for run in index.run_lists[Zone.GROOMED].snapshot()
        if run.level == 1
    ]
    assert len(wide_runs) == 2, "fixture expects two merged level-1 runs"
    index.hierarchy.ssd.capacity_bytes = wide_runs[0].header.data_bytes // 2
    # Everything purged: all data blocks now live only in shared storage.
    index.cache.set_cache_level(-1)

    hot = _hot_keys()
    stats = index.hierarchy.stats
    query_before = stats.intents[ReadIntent.QUERY].snapshot()
    maint_before = stats.intents[ReadIntent.MAINTENANCE].snapshot()

    def query_round():
        # Each round models an independent query batch: the per-run decoded
        # view memoization is batch-lifetime state (release_after_query
        # clears it; it is disabled here to allow query-driven caching), so
        # reset it so every round's block touches go through the hierarchy
        # and the SSD hit rate is actually exercised.
        for run in index.all_runs():
            run.drop_decode_cache()
        for k in hot:
            entry = index.lookup(mapper.equality_values(k), mapper.sort_values(k))
            assert entry is not None

    start = time.perf_counter()
    # Both evolves cover only a prefix of the first wide run's 0..3 span,
    # so the run is never fully under the watermark and never collected --
    # the sustained-churn case where blocks an evolve promoted would not
    # be cleaned up by garbage collection either.
    index.evolve_streaming(1, _rid_mapper(1, 2 * ENTRIES_PER_RUN), 0, 1)
    for round_no in range(QUERY_ROUNDS):
        query_round()
        if round_no == 0:
            # Evolve 2 lands mid-traffic and streams the wide run again.
            index.evolve_streaming(
                2,
                _rid_mapper(2 * ENTRIES_PER_RUN + 1, 3 * ENTRIES_PER_RUN),
                2, 2,
            )
    wall_s = time.perf_counter() - start

    query_delta = stats.intents[ReadIntent.QUERY].diff(query_before)
    maint_delta = stats.intents[ReadIntent.MAINTENANCE].diff(maint_before)
    return {
        "query_hit_rate": query_delta.local_hit_rate(),
        "query_reads": query_delta.reads,
        "query_promotions": query_delta.promotions,
        "maintenance_reads": maint_delta.reads,
        "maintenance_promotions": maint_delta.promotions,
        "wall_s": wall_s,
        "ssd_used_bytes": index.hierarchy.ssd.used_bytes,
        "query_sim_ns": None,  # filled below if needed
    }


def test_cache_hit_rate_under_concurrent_evolve():
    measured = _run()

    # Acceptance: the maintenance workload streamed, and registered zero
    # SSD promotions.
    assert measured["maintenance_reads"] > 0
    assert measured["maintenance_promotions"] == 0, (
        f"{measured['maintenance_promotions']} maintenance blocks promoted; "
        "maintenance reads must bypass admission"
    )
    # Acceptance: the query path keeps its cache under maintenance churn --
    # every round after the first hits locally.
    assert measured["query_promotions"] > 0
    assert measured["query_hit_rate"] >= 1 - 1.5 / QUERY_ROUNDS, (
        f"query hit rate {measured['query_hit_rate']:.3f}: the hot working "
        "set must stay cached while the evolves stream"
    )

    result = ExperimentResult(
        figure="Ablation A10",
        title="Query-path cache hit rate under concurrent evolve",
        x_label="metric",
        y_label="value",
        series=[
            Series("maintenance reads never admitted (ReadIntent)", [
                ("query hit rate", measured["query_hit_rate"]),
                ("maintenance promotions", float(measured["maintenance_promotions"])),
                ("query promotions", float(measured["query_promotions"])),
            ]),
        ],
        notes=(
            f"{NUM_RUNS} groomed runs x {ENTRIES_PER_RUN} entries, all "
            f"levels purged, SSD bounded at half a wide run; {QUERY_ROUNDS} "
            f"rounds x {len(_hot_keys())} hot lookups with two streaming "
            "evolves interleaved.  Hit rate = local hits / reads on the "
            "QUERY intent ledger.  The retired promote-everything arm "
            "scored hit rate 0.00 with 66 maintenance promotions."
        ),
        metrics={
            "query_hit_rate": measured["query_hit_rate"],
            "maintenance_promotions": float(measured["maintenance_promotions"]),
            "maintenance_reads": float(measured["maintenance_reads"]),
            "query_reads": float(measured["query_reads"]),
            "wall_s": measured["wall_s"],
        },
    )
    report(result, "cache_maintenance")
