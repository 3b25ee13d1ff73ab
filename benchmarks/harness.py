"""The benchmark harness: results, shape checks, reporting and fixtures.

Each ``bench_*.py`` regenerates one figure of the paper's section 8 or
one design-choice ablation: it runs its sweep, prints and saves the
series (normalized the way the figure is), and asserts the *shape*
claims the paper makes -- who wins, what grows linearly, where behaviour
is flat.  Absolute numbers mean nothing here (pure Python vs the paper's
C++ on a 28-core Xeon), and the paper itself only publishes normalized
numbers.

Tables land in ``benchmarks/results/`` as a human-readable ``<slug>.txt``
and a machine-readable ``BENCH_<slug>.json`` (series points plus
headline metrics), so the trajectory is trackable from commit to commit.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.builder import RunBuilder
from repro.core.definition import (
    ColumnSpec,
    IndexDefinition,
    i1_definition,
    i2_definition,
    i3_definition,
)
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.query import MAX_QUERY_TS, ReconcileStrategy
from repro.core.run import IndexRun
from repro.storage.hierarchy import StorageHierarchy
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema
from repro.workloads.generator import (
    IoTUpdateWorkload,
    KeyGenerator,
    KeyMapper,
    KeyMode,
)
from repro.workloads.queries import QueryBatchGenerator

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def measure_wall_s(fn: Callable[[], object], repeat: int = 3) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeat`` invocations."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Series:
    """One line of a figure: label plus (x, y) points."""

    label: str
    points: List[Tuple[object, float]] = field(default_factory=list)

    def add(self, x: object, y: float) -> None:
        self.points.append((x, y))

    def ys(self) -> List[float]:
        return [y for _, y in self.points]

    def normalized(self, base: float) -> "Series":
        if base <= 0:
            raise ValueError(f"normalization base must be positive, got {base}")
        return Series(
            self.label, [(x, y / base) for x, y in self.points]
        )


@dataclass
class ExperimentResult:
    """A figure-shaped result: several series over a shared x-axis.

    ``metrics`` holds the experiment's headline scalars (ops/s, decode
    counts, wall seconds, ...) for the ``BENCH_*.json`` artifact.
    """

    figure: str
    title: str
    x_label: str
    y_label: str
    series: List[Series]
    notes: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r} in {self.figure}")

    def normalize_all(self, base: float) -> "ExperimentResult":
        return ExperimentResult(
            figure=self.figure,
            title=self.title,
            x_label=self.x_label,
            y_label=f"{self.y_label} (normalized)",
            series=[s.normalized(base) for s in self.series],
            notes=self.notes,
            metrics=dict(self.metrics),
        )

    def format_table(self) -> str:
        """A figure-shaped text table: one row per x, one column per series."""
        xs: List[object] = []
        for s in self.series:
            for x, _ in s.points:
                if x not in xs:
                    xs.append(x)
        lines = [
            f"== {self.figure}: {self.title} ==",
            f"   y = {self.y_label}",
        ]
        if self.notes:
            lines.append(f"   {self.notes}")
        header = f"{self.x_label:>16} | " + " | ".join(
            f"{s.label:>14}" for s in self.series
        )
        lines.append(header)
        lines.append("-" * len(header))
        lookup = {
            (s.label, x): y for s in self.series for x, y in s.points
        }
        for x in xs:
            cells = []
            for s in self.series:
                y = lookup.get((s.label, x))
                cells.append(f"{y:>14.4f}" if y is not None else " " * 14)
            lines.append(f"{str(x):>16} | " + " | ".join(cells))
        return "\n".join(lines)

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.format_table() + "\n")

    def to_json_dict(self) -> Dict[str, object]:
        """The ``BENCH_*.json`` payload: everything the table shows, plus
        the headline ``metrics`` scalars, in a diff-friendly shape."""
        return {
            "figure": self.figure,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "notes": self.notes,
            "series": [
                {"label": s.label, "points": [[x, y] for x, y in s.points]}
                for s in self.series
            ],
            "metrics": dict(self.metrics),
        }

    def save_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def report(result: ExperimentResult, slug: Optional[str] = None) -> None:
    """Print a figure table; persist its .txt and BENCH_*.json artifacts."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    print("\n" + result.format_table())
    if slug is None:
        slug = result.figure.lower().replace(" ", "_")
    result.save(os.path.join(RESULTS_DIR, f"{slug}.txt"))
    result.save_json(os.path.join(RESULTS_DIR, f"BENCH_{slug}.json"))


# ---------------------------------------------------------------------------
# shape assertions -- the reproduction's notion of "matching the paper"
# ---------------------------------------------------------------------------


def assert_monotone_increase(
    values: Sequence[float], slack: float = 1.10, label: str = ""
) -> None:
    """Each value may dip at most ``slack``-fold below the running max."""
    running = 0.0
    for value in values:
        assert value >= running / slack, (
            f"{label}: expected (noisily) increasing series, got {list(values)}"
        )
        running = max(running, value)


def assert_roughly_linear(
    xs: Sequence[float], ys: Sequence[float], tolerance: float = 4.0,
    label: str = "",
) -> None:
    """y grows within ``tolerance`` of proportionally to x (log-log slope
    sanity, endpoints only -- robust to interpreter noise)."""
    assert len(xs) == len(ys) and len(xs) >= 2
    x_ratio = xs[-1] / xs[0]
    y_ratio = ys[-1] / max(ys[0], 1e-12)
    assert x_ratio / tolerance <= y_ratio <= x_ratio * tolerance, (
        f"{label}: expected ~linear growth; x grew {x_ratio:.1f}x, "
        f"y grew {y_ratio:.1f}x"
    )


def assert_flat_within(
    values: Sequence[float], factor: float, label: str = ""
) -> None:
    """max/min stays under ``factor`` -- the paper's 'limited impact'."""
    low, high = min(values), max(values)
    assert high <= low * factor, (
        f"{label}: expected flat within {factor}x, got spread "
        f"{high / max(low, 1e-12):.2f}x ({list(values)})"
    )


def assert_dominates(
    slower: Sequence[float], faster: Sequence[float], min_ratio: float = 1.0,
    label: str = "",
) -> None:
    """Pointwise: ``slower`` >= ``faster`` * min_ratio (who-wins claims)."""
    assert len(slower) == len(faster)
    for s, f in zip(slower, faster):
        assert s >= f * min_ratio, (
            f"{label}: expected first series slower by >= {min_ratio}x "
            f"everywhere; got {s:.4g} vs {f:.4g}"
        )


# ---------------------------------------------------------------------------
# index fixtures (Figures 8-11 and the index-level ablations)
# ---------------------------------------------------------------------------

DEFINITIONS: List[Tuple[str, Callable[[], IndexDefinition]]] = [
    ("I1", i1_definition),
    ("I2", i2_definition),
    ("I3", i3_definition),
]


def entries_for_keys(
    definition: IndexDefinition,
    keys: List[int],
    mapper: Optional[KeyMapper] = None,
    ts_start: int = 1,
    zone: Zone = Zone.GROOMED,
    block_id: int = 0,
) -> List[IndexEntry]:
    """Index entries for abstract keys, beginTS following ingest order."""
    mapper = mapper if mapper is not None else KeyMapper(definition)
    entries = []
    for i, k in enumerate(keys):
        eq = mapper.equality_values(k)
        sort = mapper.sort_values(k)
        incl = mapper.include_values(k)
        entries.append(
            IndexEntry.create(
                definition, eq, sort, incl, ts_start + i, RID(zone, block_id, i)
            )
        )
    return entries


def batch_keys(lookups) -> List[Tuple]:
    """``PointLookup`` rows as the bare key tuples of
    ``UmziIndex.batch_lookup`` (equality values, then sort values)."""
    return [(*eq, *sort) for eq, sort, _ts in lookups]


def build_single_run(
    definition: IndexDefinition, n: int, mapper: Optional[KeyMapper] = None
) -> Tuple[IndexRun, StorageHierarchy]:
    """One run of ``n`` sequentially-keyed entries."""
    hierarchy = StorageHierarchy()
    builder = RunBuilder(definition, hierarchy)
    entries = entries_for_keys(definition, list(range(n)), mapper)
    run = builder.build("bench-run", entries, Zone.GROOMED, 0, 0, 0)
    return run, hierarchy


def build_index_with_runs(
    definition: IndexDefinition,
    num_runs: int,
    entries_per_run: int,
    key_mode: KeyMode = KeyMode.SEQUENTIAL,
    mapper: Optional[KeyMapper] = None,
    seed: int = 7,
) -> UmziIndex:
    """An index holding ``num_runs`` level-0 runs (paper section 8.3 setup:
    'an index contains 20 runs, where each index run has 100000 entries').

    Sequential mode gives each run a disjoint key range (time-correlated
    ingest); random mode samples every run's keys uniformly from the whole
    key space, so run synopses stop pruning.
    """
    total = num_runs * entries_per_run
    levels = LevelConfig(
        groomed_levels=4, post_groomed_levels=3,
        max_runs_per_level=max(num_runs + 1, 4), size_ratio=4,
    )
    index = UmziIndex(
        definition,
        config=UmziConfig(name=f"bench-{key_mode.value}", levels=levels),
    )
    mapper = mapper if mapper is not None else KeyMapper(definition)
    generator = KeyGenerator(key_mode, seed=seed, key_space=total)
    ts = 1
    for gid in range(num_runs):
        if key_mode is KeyMode.SEQUENTIAL:
            keys = list(range(gid * entries_per_run, (gid + 1) * entries_per_run))
        else:
            keys = generator.next_batch(entries_per_run)
        index.add_groomed_run(
            entries_for_keys(definition, keys, mapper, ts_start=ts, block_id=gid),
            gid, gid,
        )
        ts += entries_per_run
    return index


# ---------------------------------------------------------------------------
# the IoT shard (Figures 12-15, paper section 8.4)
# ---------------------------------------------------------------------------


def make_iot_shard(post_groom_every: int = 10) -> WildfireShard:
    """One shard of the ``(device, msg, reading)`` IoT table."""
    schema = TableSchema(
        name="e2e",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    spec = IndexSpec(("device",), ("msg",), ("reading",))
    return WildfireShard(
        schema, spec, config=ShardConfig(post_groom_every=post_groom_every)
    )


def iot_rows(keys: Sequence[int], devices: int = 64) -> List[Tuple[int, int, int]]:
    """Map abstract workload keys onto (device, msg, reading) rows."""
    return [(k % devices, k // devices, k) for k in keys]


def iot_keys(
    keys: Sequence[int], devices: int = 64
) -> List[Tuple[Tuple[int], Tuple[int]]]:
    """The ``index_batch_lookup`` keys of :func:`iot_rows`' rows."""
    return [((k % devices,), (k // devices,)) for k in keys]


def seed_shard(
    shard: WildfireShard, workload: IoTUpdateWorkload, cycles: int
) -> None:
    """``cycles`` ingest + tick rounds of ``workload``."""
    for _ in range(cycles):
        shard.ingest(iot_rows(workload.next_cycle()))
        shard.tick()


# ---------------------------------------------------------------------------
# Figures 10 and 11: multi-run queries, sequential vs random ingest
# ---------------------------------------------------------------------------


def _cold(index, op, counter=lambda: 0) -> float:
    """What ``op`` adds to ``counter()`` with cold run decode caches.

    Cold caches per measurement: every measured op pays its own block
    fetches (warm caches would bill all I/O to whichever series runs
    first), and the latency models make the total deterministic.
    """
    for run in index.all_runs():
        run.drop_decode_cache()
    before = counter()
    op()
    return float(counter() - before)


def multi_run_figures(key_mode: KeyMode, number: int) -> List[ExperimentResult]:
    """Figure ``number`` a/b/c over ``key_mode`` ingest, on I1 (the
    paper's default): per-key lookup cost vs batch size and vs run count
    (simulated I/O ns -- those claims are about block fetches), and scan
    cost vs range (decode-probe counts -- linearity in entries examined).
    Wall time is only plotted, in ``metrics``."""
    num_runs, entries_per_run = 20, 3_000
    population = num_runs * entries_per_run
    definition = i1_definition()
    mapper = KeyMapper(definition)
    kinds = ("sequential", "random")

    def lookup(index, keys):
        return lambda: index.batch_lookup(keys, MAX_QUERY_TS)

    def sweep(xs, measure):
        """One series per query kind; ``measure(kind, x)`` -> (cost,
        wall); normalized to the first point of the first series."""
        series, wall = [], 0.0
        for kind in kinds:
            line = Series(f"{kind} query")
            for x in xs:
                cost, seconds = measure(kind, x)
                line.add(x, cost)
                wall += seconds
            series.append(line)
        return series, series[0].points[0][1], wall

    def figure(letter, title, x_label, y_label, swept, base_point):
        series, base, wall = swept
        return ExperimentResult(
            figure=f"Figure {number}{letter}",
            title=title.format(key_mode.value),
            x_label=x_label,
            y_label=y_label,
            series=series,
            notes=f"normalized to the sequential query {base_point}",
            metrics={"lookup_wall_s_total": wall},
        ).normalize_all(base if base else 1.0)

    def timed(index, op, counter):
        wall = measure_wall_s(lambda: _cold(index, op), repeat=1)  # counter-asserted
        return _cold(index, op, counter), wall

    # (a) per-key cost vs batch size
    index = build_index_with_runs(
        definition, num_runs, entries_per_run, key_mode, mapper
    )

    def per_key(kind, batch_size):
        qgen = QueryBatchGenerator(mapper, population, seed=29)
        keys = batch_keys(getattr(qgen, f"{kind}_batch")(batch_size))
        cost, wall = timed(
            index, lookup(index, keys), lambda: index.hierarchy.stats.total_sim_ns
        )
        return cost / batch_size, wall

    results = [figure(
        "a", "Per-key lookup cost vs batch size ({} ingest)",
        "lookup batch size", "per-key cost (simulated I/O ns)",
        sweep((1, 10, 100, 1_000), per_key), "at batch size 1",
    )]

    # (b) batch cost vs number of runs
    def per_batch(kind, runs):
        runs_index = build_index_with_runs(
            definition, runs, entries_per_run, key_mode, mapper
        )
        qgen = QueryBatchGenerator(mapper, runs * entries_per_run, seed=31)
        keys = batch_keys(getattr(qgen, f"{kind}_batch")(500))
        return timed(
            runs_index, lookup(runs_index, keys),
            lambda: runs_index.hierarchy.stats.total_sim_ns,
        )

    results.append(figure(
        "b", "Lookup cost vs number of runs ({} ingest)", "# index runs",
        "batch lookup cost (simulated I/O ns)",
        sweep((1, 5, 10, 20), per_batch), "against one run",
    ))

    # (c) scan cost vs range.  spread = whole population: one device, the
    # sort column spans all keys, so every range has matching keys.
    scan_mapper = KeyMapper(definition, spread=population)
    scan_index = build_index_with_runs(
        definition, num_runs, entries_per_run, key_mode, scan_mapper
    )
    decode = scan_index.hierarchy.stats.decode

    def per_scan(kind, scan_range):
        qgen = QueryBatchGenerator(scan_mapper, population, seed=37)
        scan = getattr(qgen, f"{kind}_scan")(scan_range)
        return timed(
            scan_index,
            lambda: scan_index.range_scan(scan, ReconcileStrategy.PRIORITY_QUEUE),
            lambda: decode.entry_decodes + decode.raw_key_probes,
        )

    results.append(figure(
        "c", "Range-scan cost vs range ({} ingest, priority queue)",
        "scan range size", "scan decode-probe cost",
        sweep((1, 10, 100, 1_000, 10_000), per_scan), "at range 1",
    ))
    return results
