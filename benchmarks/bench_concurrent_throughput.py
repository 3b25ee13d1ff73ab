"""Ablation A11: multi-threaded query throughput under live daemons.

The honest concurrency benchmark of the reproduction: N query threads
hammer point lookups, range scans and batch lookups while the shard's
maintenance thread (``WildfireShard.start_daemons``: groom, post-groom,
evolve and merge, looping ``tick``) runs for real -- the deployment shape
of paper section 3, not a tick loop in the query thread.

Queries pin the current immutable run-list version with a single Ref and
release it with a single Unref (the version-set run lifecycle).
Counter-asserted: **zero** query errors while maintenance keeps retiring
runs underneath, one Ref and one Unref per worker query (and per
post-groom sweep), and **exactly 2 version-refcount operations per query
independent of run count** (the deterministic scaling probe below pins
4-vs-16-run indexes to prove it).  The per-run epoch ledger and the
unprotected legacy lifecycle this was once compared against are retired;
their last numbers are frozen in ``docs/benchmarks.md``.

All acceptance assertions are on deterministic counters -- never on
wall-clock ratios (see ``tools/check_flaky.py``).

Set ``UMZI_BENCH_SMOKE=1`` for the CI-sized fixture; it prints its table
and persists nothing over the committed full-size artifacts.
"""

import os
import random
import threading
import time

from repro.core.definition import ColumnSpec, i1_definition
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.planner import Query
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema

from harness import ExperimentResult, Series, entries_for_keys, report

_SMOKE = os.environ.get("UMZI_BENCH_SMOKE") == "1"
THREAD_COUNTS = (2,) if _SMOKE else (1, 2, 4)
DURATION_S = 0.25 if _SMOKE else 0.8
BASELINE_DEVICES = 4
BASELINE_MSGS = 16
GROOM_INTERVAL_S = 0.002
SCALING_RUN_COUNTS = (4, 16)
SCALING_QUERIES = 50


def _make_shard() -> WildfireShard:
    schema = TableSchema(
        name="ct",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    spec = IndexSpec(("device",), ("msg",), ("reading",))
    shard = WildfireShard(
        schema,
        spec,
        config=ShardConfig(
            post_groom_every=2,
            umzi=UmziConfig(data_block_bytes=2048),
        ),
    )
    # Small heap budget so the cache manager purges and loads while the
    # queries run (the eviction paths the pins must gate); sized to leave
    # headroom for the committed log's transient blocks.
    shard.hierarchy.ssd.capacity_bytes = 1024 * 1024
    rows = [
        (d, m, d * 1000 + m)
        for d in range(BASELINE_DEVICES)
        for m in range(BASELINE_MSGS)
    ]
    shard.ingest(rows)
    shard.tick()  # baseline fully groomed + indexed before concurrency
    return shard


def _query_worker(shard, seed, stop, counters, lock):
    rng = random.Random(seed)
    ops = errors = 0
    while not stop.is_set():
        d = rng.randrange(BASELINE_DEVICES)
        m = rng.randrange(BASELINE_MSGS)
        try:
            if shard.index_lookup((d,), (m,)) is None:
                errors += 1
            elif len(shard.query(Query(
                equalities=(("device", d),), ranges=(("msg", 0, BASELINE_MSGS - 1),),
            ))) < BASELINE_MSGS:
                errors += 1
            elif any(
                hit is None
                for hit in shard.index_batch_lookup(
                    [((d,), (m2,)) for m2 in range(0, BASELINE_MSGS, 4)]
                )
            ):
                errors += 1
            ops += 3
        except Exception:
            # A reclaimed run read mid-query.  Count it; the benchmark
            # quantifies rather than crashes.
            errors += 1
    with lock:
        counters["ops"] += ops
        counters["errors"] += errors


def _run_window(num_threads: int):
    shard = _make_shard()
    sweeps = []
    sweep = shard.index.post_groomed_batch_lookup

    def counted_sweep(*args, **kwargs):
        sweeps.append(1)
        return sweep(*args, **kwargs)

    shard.index.post_groomed_batch_lookup = counted_sweep
    epochs = shard.hierarchy.stats.epochs
    before = epochs.snapshot()
    stop = threading.Event()
    counters = {"ops": 0, "errors": 0}
    lock = threading.Lock()
    workers = [
        threading.Thread(
            target=_query_worker,
            args=(shard, 40 + i, stop, counters, lock),
        )
        for i in range(num_threads)
    ]
    shard.start_daemons(groom_interval_s=GROOM_INTERVAL_S)
    for w in workers:
        w.start()
    start = time.perf_counter()
    rng = random.Random(7)
    try:
        while time.perf_counter() - start < DURATION_S:
            # Keep the daemons fed: fresh rows -> grooms -> post-grooms ->
            # evolves -> merges, i.e. continuous retirement under queries.
            shard.ingest(
                [
                    (rng.randrange(BASELINE_DEVICES),
                     BASELINE_MSGS + rng.randrange(64),
                     rng.randrange(1000))
                    for _ in range(20)
                ]
            )
            time.sleep(0.005)
    finally:
        elapsed = time.perf_counter() - start
        stop.set()
        for w in workers:
            w.join(timeout=10.0)
        shard.stop_daemons()
    # Drain any release a GC finalizer may have parked, so the refcount
    # deltas below are settled.
    shard.index.lifecycle.pinned_run_ids()
    delta = epochs.diff(before)
    return {
        "ops_per_s": counters["ops"] / elapsed,
        "ops": counters["ops"],
        "sweeps": len(sweeps),
        "errors": counters["errors"],
        "runs_retired": delta.runs_retired,
        "runs_reclaimed": delta.runs_reclaimed,
        "reclaims_deferred": delta.reclaims_deferred,
        "version_refs": delta.version_refs,
        "version_unrefs": delta.version_unrefs,
        "versions_reclaimed": delta.versions_reclaimed,
    }


def _refcount_scaling(num_runs: int) -> float:
    """Deterministic probe: refcount operations per query at ``num_runs``.

    Single-threaded, fixed fixture, no daemons -- the counter is exact: 2
    version ops per query at any run count.
    """
    definition = i1_definition()
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=num_runs * 2, size_ratio=4)
    index = UmziIndex(
        definition,
        config=UmziConfig(name=f"a11-versionset-{num_runs}", levels=levels,
                          data_block_bytes=2048),
    )
    for gid in range(num_runs):
        index.add_groomed_run(
            entries_for_keys(definition, list(range(gid * 10, (gid + 1) * 10)),
                             ts_start=gid * 10 + 1, block_id=gid),
            gid, gid,
        )
    epochs = index.hierarchy.stats.epochs
    before = epochs.snapshot()
    for k in range(SCALING_QUERIES):
        index.lookup((k,), (k,))
    delta = epochs.diff(before)
    return (delta.version_refs + delta.version_unrefs) / SCALING_QUERIES


def test_concurrent_throughput():
    line = Series("versionset (queries/s)")
    outcomes = {}
    for n in THREAD_COUNTS:
        outcomes[n] = _run_window(n)
        line.add(n, outcomes[n]["ops_per_s"])
    top = outcomes[THREAD_COUNTS[-1]]
    metrics = {
        "ops_per_s_versionset": top["ops_per_s"],
        "query_errors_versionset": float(top["errors"]),
        "runs_retired_versionset": float(top["runs_retired"]),
        "reclaims_deferred_versionset": float(top["reclaims_deferred"]),
        "versions_reclaimed_versionset": float(top["versions_reclaimed"]),
    }

    # Deterministic pin-cost scaling: refcount operations per query as the
    # run count grows (flat at 2).
    scaling = Series("versionset refcount ops/query")
    for num_runs in SCALING_RUN_COUNTS:
        per_query = _refcount_scaling(num_runs)
        scaling.add(num_runs, per_query)
        metrics[f"refcount_ops_per_query_versionset_runs{num_runs}"] = per_query

    result = ExperimentResult(
        figure="Ablation A11",
        title="Concurrent query throughput under live daemons",
        x_label="query threads (throughput) / runs (refcount scaling)",
        y_label="queries/s (sustained) / refcount ops per query",
        series=[line, scaling],
        notes=f"{DURATION_S}s windows, groom every {GROOM_INTERVAL_S}s, "
              "post-groom every 2 grooms; version-set run lifecycle; "
              "refcount scaling probed deterministically at "
              f"{SCALING_RUN_COUNTS} runs",
        metrics=metrics,
    )
    if _SMOKE:  # the smoke fixture's numbers must not replace the full-size artifacts
        print("\n" + result.format_table())
    else:
        report(result, slug="concurrent_throughput")

    # Counter-asserted on every window: concurrent queries with zero
    # query errors while maintenance keeps retiring runs underneath, and
    # exactly one Ref and one Unref per worker query and per post-groom
    # sweep -- 2 refcount ops each -- no matter how many runs the daemons
    # piled up.
    for outcome in outcomes.values():
        assert outcome["errors"] == 0, outcome
        assert outcome["ops_per_s"] > 0, outcome
        assert outcome["runs_retired"] > 0, (
            "fixture must actually retire runs under the queries"
        )
        assert outcome["runs_reclaimed"] <= outcome["runs_retired"]
        pins = outcome["ops"] + outcome["sweeps"]
        assert outcome["version_refs"] == pins, outcome
        assert outcome["version_unrefs"] == pins, outcome

    # The deterministic scaling probe: exactly 2 ops/query at every run
    # count.
    for num_runs in SCALING_RUN_COUNTS:
        assert metrics[f"refcount_ops_per_query_versionset_runs{num_runs}"] \
            == 2.0
