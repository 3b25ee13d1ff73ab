"""Closed-loop Zipfian cluster driver (ablations A14 and A16).

A deterministic load generator for :class:`~repro.wildfire.cluster
.ShardedTable`: thousands of simulated clients issue a skewed
point/range/ingest mix against a keyspace of up to millions of devices,
and every number the driver reports -- throughput, p50/p99 latency,
hit/miss/error counts -- is computed on **simulated nanoseconds** from
the cluster's own ledgers.  There is no wall-clock measurement anywhere
in this module, so two runs with the same seed produce byte-identical
reports (the property the A14 benchmark asserts and CI diffs).

Skew follows the standard Zipfian generator of Gray et al. (SIGMOD'94),
the same construction YCSB uses: rank 0 is the hottest key, and with the
default ``theta=0.99`` a few thousand warm ranks absorb the bulk of a
million-key draw -- which is what makes a *closed-loop* driver (each
client waits for its answer before thinking for ``think_ns``) feel a
shard split: the hot slot's latency is every client's latency.

The driver is schema-opinionated on purpose: it drives the ``iot``
benchmark schema used across the suite (``device`` sharding key,
``msg`` sort key, one ``reading`` payload, built by
:func:`make_iot_table`), with warm keys ingested by
:meth:`ClosedLoopDriver.warm` and verified on every hit.
:func:`run_phase` is one traffic phase with round-robin maintenance
ticks, the shape A14 and A16 serve every phase in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Dict, List, Sequence, Tuple

from repro.core.definition import ColumnSpec
from repro.planner import Query
from repro.qos.errors import PartialResultError, QosError
from repro.storage.retry import TransientIOError
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

# Fresh rows written by ingest ops start their ``msg`` sequence here so
# they can never collide with (or be queried as) warm keys.
INGEST_MSG_BASE = 1_000_000

_ZETA_CACHE: Dict[Tuple[int, float], float] = {}


def _zeta(n: int, theta: float) -> float:
    """Generalized harmonic number sum(1/i^theta), cached per (n, theta)."""
    key = (n, theta)
    cached = _ZETA_CACHE.get(key)
    if cached is None:
        cached = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        _ZETA_CACHE[key] = cached
    return cached


class ZipfianGenerator:
    """Zipfian ranks over ``[0, n)`` (Gray et al., the YCSB construction).

    ``sample()`` returns a rank: 0 is the hottest item, and item
    popularity decays as ``1/rank^theta``.  Ranks map 1:1 to device ids,
    so "the hottest device" is simply device 0.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0) -> None:
        if n < 1:
            raise ValueError("zipfian domain must be non-empty")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        zetan = _zeta(n, theta)
        zeta2 = _zeta(2, theta)
        self._zetan = zetan
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / zetan)

    def sample(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)


def percentile_ns(values, pct: int) -> float:
    """Nearest-rank percentile (the suite's _p99 convention, generalized)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[(pct * (len(ordered) - 1)) // 100])


@dataclass(frozen=True)
class DriverReport:
    """One run's deterministic outcome (tuples, so ``==`` is replay-exact)."""

    ops: int
    points: int
    hits: int
    misses: int  # warm key answered None -- a correctness failure
    cold: int  # un-warmed key answered None -- expected
    wrong: int  # hit with the wrong payload
    ranges: int
    range_rows: int
    ingests: int
    ingested_rows: int
    shed: int
    errors: int
    partials: int
    sim_elapsed_ns: int
    latencies_ns: Tuple[int, ...]

    @property
    def qps(self) -> float:
        """Closed-loop throughput on the simulated clock."""
        if self.sim_elapsed_ns <= 0:
            return 0.0
        return self.ops / (self.sim_elapsed_ns / 1e9)

    def latency_ns(self, pct: int) -> float:
        return percentile_ns(self.latencies_ns, pct)

    @classmethod
    def combine(cls, reports: Sequence["DriverReport"]) -> "DriverReport":
        """Sum chunked reports into one phase-level report: every count
        and the elapsed time add up, the latency tuples concatenate."""
        return cls(**{
            f.name: sum(
                (getattr(report, f.name) for report in reports),
                () if f.name == "latencies_ns" else 0,
            )
            for f in fields(cls)
        })


def make_iot_table(num_shards: int) -> ShardedTable:
    """The ``iot`` table the driver speaks, post-grooming every 2 cycles."""
    schema = TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    return ShardedTable(
        schema,
        IndexSpec(("device",), ("msg",), ("reading",)),
        num_shards=num_shards,
        config=ShardConfig(post_groom_every=2),
    )


def run_phase(
    driver: "ClosedLoopDriver",
    table: ShardedTable,
    ops: int,
    daemons: int,
    rr: list,
    every: int,
) -> DriverReport:
    """One traffic phase with ``daemons`` round-robin maintenance workers.

    Every ``every`` client operations, each daemon ticks the next live
    shard in round-robin order (``rr[0]`` is the cursor, carried across
    phases) -- the "number of indexer daemons" dimension, scaled down to
    the simulation's cooperative scheduler.
    """
    reports = []
    done = 0
    while done < ops:
        chunk = min(every, ops - done)
        reports.append(driver.run(chunk))
        done += chunk
        live = table.live_shard_ids()
        for _ in range(daemons):
            table.shards[live[rr[0] % len(live)]].tick()
            rr[0] += 1
    return DriverReport.combine(reports)


class ClosedLoopDriver:
    """Thousands of closed-loop clients over one :class:`ShardedTable`.

    Clients are simulated round-robin: operation ``i`` belongs to client
    ``i % clients``, and once per full client round the cluster's arrival
    clock advances by ``think_ns`` (every client thought once).  The op
    mix is drawn per-operation from a seeded RNG: ``point_fraction`` of
    point lookups, ``range_fraction`` of per-device range scans, and the
    remainder single-row ingests of brand-new keys.

    Only warmed keys are point-queried with an expected answer, so every
    miss on them is a real correctness failure (``misses``/``wrong``),
    never a grooming-lag artifact; freshly ingested keys are deliberately
    not queried back.
    """

    def __init__(
        self,
        table,
        clients: int = 1000,
        keyspace: int = 1_000_000,
        theta: float = 0.99,
        seed: int = 0,
        think_ns: int = 50_000,
        point_fraction: float = 0.85,
        range_fraction: float = 0.05,
        value_of=lambda device, msg: device * 31 + msg,
    ) -> None:
        if clients < 1:
            raise ValueError("need at least one client")
        self.table = table
        self.clients = clients
        self.think_ns = think_ns
        self._zipf = ZipfianGenerator(keyspace, theta=theta, seed=seed)
        self._rng = random.Random(seed + 1)
        self._point_cut = point_fraction
        self._range_cut = point_fraction + range_fraction
        self._value_of = value_of
        self._warm: Dict[int, int] = {}  # device -> msgs warmed (1..count)
        self._next_msg: Dict[int, int] = {}

    # -- workload setup -------------------------------------------------------------

    def warm(self, devices: int, msgs_per_device: int = 1, batch: int = 512) -> int:
        """Ingest the warm working set (ranks ``0..devices-1``), batched."""
        rows: List[Tuple[int, int, int]] = []
        for device in range(devices):
            self._warm[device] = msgs_per_device
            for msg in range(1, msgs_per_device + 1):
                rows.append((device, msg, self._value_of(device, msg)))
        for start in range(0, len(rows), batch):
            self.table.ingest(rows[start : start + batch])
        return len(rows)

    # -- the closed loop ------------------------------------------------------------

    def run(self, ops: int) -> DriverReport:
        """Drive ``ops`` operations; returns the deterministic report."""
        table = self.table
        points = hits = misses = cold = wrong = 0
        ranges = range_rows = ingests = ingested_rows = 0
        shed = errors = partials = 0
        latencies: List[int] = []
        start_ns = table.sim_now()
        for i in range(ops):
            if i % self.clients == 0:
                table.advance_clock(self.think_ns)
            device = self._zipf.sample()
            draw = self._rng.random()
            before = table.sim_now()
            try:
                if draw < self._point_cut:
                    points += 1
                    warmed = self._warm.get(device, 0)
                    msg = self._rng.randint(1, warmed) if warmed else 1
                    record = table.point_query((device,), (msg,))
                    if record is None:
                        if warmed:
                            misses += 1
                        else:
                            cold += 1
                    elif warmed and record.values[2] != self._value_of(
                        device, msg
                    ):
                        wrong += 1
                    else:
                        hits += 1
                elif draw < self._range_cut:
                    ranges += 1
                    rows = table.query(Query(equalities=(("device", device),)))
                    range_rows += len(rows)
                    if len(rows) < self._warm.get(device, 0):
                        wrong += 1
                else:
                    ingests += 1
                    msg = self._next_msg.get(device, INGEST_MSG_BASE)
                    self._next_msg[device] = msg + 1
                    table.ingest(
                        [(device, msg, self._value_of(device, msg))]
                    )
                    ingested_rows += 1
            except QosError as exc:
                if isinstance(exc, PartialResultError):
                    partials += 1
                else:
                    shed += 1
            except TransientIOError:
                errors += 1
            finally:
                # Per-op service time on the simulated clock, whatever the
                # op class or outcome: cache-hot reads are legitimately
                # free, the tail is cold fetches + log writes.
                latencies.append(table.sim_now() - before)
        return DriverReport(
            ops=ops,
            points=points,
            hits=hits,
            misses=misses,
            cold=cold,
            wrong=wrong,
            ranges=ranges,
            range_rows=range_rows,
            ingests=ingests,
            ingested_rows=ingested_rows,
            shed=shed,
            errors=errors,
            partials=partials,
            sim_elapsed_ns=table.sim_now() - start_ns,
            latencies_ns=tuple(latencies),
        )


__all__ = [
    "ClosedLoopDriver",
    "DriverReport",
    "INGEST_MSG_BASE",
    "ZipfianGenerator",
    "make_iot_table",
    "percentile_ns",
    "run_phase",
]
