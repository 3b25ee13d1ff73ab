"""Seeded stress: query threads vs live maintenance daemons.

The claim of the version-set run lifecycle (one Ref/Unref per query on
the pinned version node): it is safe to fire point lookups, range scans,
batch lookups and scans over a held snapshot from several threads while
the groomer, post-groomer, indexer and merge daemons run -- no torn
snapshots, no ``KeyError``/missing-block reads, and monotonically
progressing retire/reclaim counters with a non-negative backlog.  The pin
cost is additionally counter-asserted: exactly two version-refcount
operations per worker query (and per post-groom sweep), however many runs
each pinned version contained.  20 consecutive seeded iterations run with
fully concurrent query threads.

The whole module carries a hard ``pytest-timeout`` in CI so a livelock
can never hang tier-1 (locally the marker is a no-op when the plugin is
absent; every loop below is iteration-bounded regardless).
"""

import random
import threading

import pytest

from repro.core.definition import ColumnSpec
from repro.core.index import UmziConfig
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema

ITERATIONS = 20
BASELINE_DEVICES = 3
BASELINE_MSGS = 12
QUERY_THREADS = 3
INGEST_BATCHES = 6

pytestmark = pytest.mark.timeout(180)


def make_shard() -> WildfireShard:
    schema = TableSchema(
        name="stress",
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
    # Small heap budget: a bounded SSD keeps the cache manager purging and
    # loading under the same churn the queries race.
    shard.hierarchy.ssd.capacity_bytes = 256 * 1024
    return shard


def seed_baseline(shard: WildfireShard) -> None:
    """Groomed-and-indexed rows that must stay visible forever."""
    rows = [
        (d, m, d * 1000 + m)
        for d in range(BASELINE_DEVICES)
        for m in range(BASELINE_MSGS)
    ]
    shard.ingest(rows)
    # Deterministic grooming so the baseline is fully indexed before any
    # concurrency begins.
    shard.tick()


# Node-path (version-Ref) queries per completed check_baseline round:
# index_lookup + range_query + index_batch_lookup + pin_snapshot (the
# range scan inside the snapshot reads the snapshot's pin and takes none).
QUERIES_PER_ROUND = 4


def check_baseline(
    shard: WildfireShard,
    rng: random.Random,
    errors: list,
    rounds: list,
) -> None:
    """One query round over baseline keys; append any violation seen.

    Appends to ``rounds`` only when the whole round completed, so
    ``QUERIES_PER_ROUND * len(rounds)`` is the exact number of pinned
    queries issued whenever ``errors`` stayed empty (every early return
    also appends an error).
    """
    try:
        d = rng.randrange(BASELINE_DEVICES)
        m = rng.randrange(BASELINE_MSGS)
        entry = shard.index_lookup((d,), (m,))
        if entry is None:
            errors.append(f"lost baseline key ({d},{m})")
            return
        # Torn-snapshot check: a range scan must return exactly one
        # (reconciled) version per baseline msg, in order.
        entries = shard.range_query((d,), (0,), (BASELINE_MSGS - 1,))
        msgs = [e.sort_values[0] for e in entries]
        if msgs != sorted(set(msgs)) or len(msgs) < BASELINE_MSGS:
            errors.append(f"torn scan for device {d}: {msgs}")
            return
        # Batched lookups share one snapshot.
        batch = [((d,), (m2,)) for m2 in range(0, BASELINE_MSGS, 3)]
        for hit in shard.index_batch_lookup(batch):
            if hit is None:
                errors.append(f"batch lookup lost a key for device {d}")
                return
        # A held snapshot: one pin for it, a materialized scan in it.
        with shard.index.pin_snapshot() as snap:
            held = snap.executor.scan(equality_values=(d,))
        if len(held) < BASELINE_MSGS:
            errors.append(f"snapshot scan lost rows for device {d}")
            return
        rounds.append(1)
    except Exception as exc:  # the failure mode under test: no exceptions
        errors.append(repr(exc))


def assert_counters_monotonic(samples) -> None:
    """Retire/reclaim must only grow, and the backlog never goes negative."""
    assert samples == sorted(samples), f"non-monotonic counters: {samples}"
    for retired, reclaimed in samples:
        assert reclaimed <= retired, (
            f"reclaimed {reclaimed} runs but only {retired} were retired"
        )


def run_iteration(seed: int) -> None:
    shard = make_shard()
    seed_baseline(shard)
    errors: list = []
    rounds: list = []
    sweeps: list = []
    samples = []
    sweep = shard.index.post_groomed_batch_lookup

    def counted_sweep(*args, **kwargs):
        sweeps.append(1)
        return sweep(*args, **kwargs)

    shard.index.post_groomed_batch_lookup = counted_sweep
    epochs = shard.hierarchy.stats.epochs
    baseline_epochs = epochs.snapshot()
    stop = threading.Event()

    def query_loop(thread_seed: int) -> None:
        rng = random.Random(thread_seed)
        while not stop.is_set():
            check_baseline(shard, rng, errors, rounds)
            if errors:
                return

    shard.start_daemons(groom_interval_s=0.002)
    threads = [
        threading.Thread(target=query_loop, args=(seed * 100 + t,))
        for t in range(QUERY_THREADS)
    ]
    for t in threads:
        t.start()
    try:
        rng = random.Random(seed)
        for batch in range(INGEST_BATCHES):
            rows = [
                (rng.randrange(BASELINE_DEVICES),
                 BASELINE_MSGS + rng.randrange(40),
                 batch)
                for _ in range(25)
            ]
            shard.ingest(rows)
            samples.append((epochs.runs_retired, epochs.runs_reclaimed))
            stop.wait(0.01)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        shard.stop_daemons()

    assert errors == [], f"iteration seed={seed}: {errors}"
    # Quiescent verification: drain pending evolves, then the baseline
    # must be fully intact with one version per key.
    shard.indexer.drain()
    quiet_rng = random.Random(seed + 1)
    for _ in range(5):
        check_baseline(shard, quiet_rng, errors, rounds)
    assert errors == [], f"post-quiesce seed={seed}: {errors}"
    samples.append((epochs.runs_retired, epochs.runs_reclaimed))
    assert_counters_monotonic(samples)
    # Nothing pinned once quiet: the backlog must fully drain after one
    # more (pin-free) query round.
    assert shard.index.lifecycle.pinned_run_ids() == []
    assert shard.index.lifecycle.retired_backlog() == 0
    # The pin-cost invariant under real daemons: every worker query and
    # every post-groom sweep cost exactly one version Ref and one Unref --
    # 2 refcount ops each, however many runs each pinned version held.
    delta = epochs.diff(baseline_epochs)
    expected = QUERIES_PER_ROUND * len(rounds) + len(sweeps)
    assert delta.version_refs == expected, (
        f"seed={seed}: {delta.version_refs} version refs for "
        f"{expected} pins"
    )
    assert delta.version_unrefs == expected, (
        f"seed={seed}: {delta.version_unrefs} version unrefs for "
        f"{expected} pins"
    )


class TestVersionSetUnderDaemons:
    def test_twenty_seeded_iterations_with_concurrent_queries(self):
        for i in range(ITERATIONS):
            run_iteration(seed=1000 + i)
