"""Seeded inputs and the oracle for the four end-to-end workloads.

Everything random is drawn here, from one ``random.Random(seed)``, before
the op it belongs to is timed; the program under test receives only the
generated rows, keys and :class:`~repro.planner.Query` objects.  The
generator also keeps a dict-of-latest-versions model of the table and
attaches the expected answer to every op as it emits it, so the driver
checks each answer after the timed span without knowing the workload.

Sizes are row and op counts, never a clock.  The table is a quarter of
what a 30 s run per workload would load, because one run has to fit three
set-ups and a 15 s timed phase into about 20 s (see README.md).
"""

from __future__ import annotations

import random
from collections import deque
from itertools import accumulate
from typing import Callable, Deque, Dict, Iterator, List, Set, Tuple

from repro.core.definition import ColumnSpec, ColumnType
from repro.planner import Query
from repro.qos.admission import QosConfig
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

Row = Tuple[int, str, str, int]
# (kind, argument handed to the front door, expected answer).  Kinds:
# "point" (order_id), "query" (Query), "ingest" (rows), "tick" (None).
Op = Tuple[str, object, object]

LOAD_KEYS = 10_000  # distinct order_ids loaded before the timed phase
LOAD_KEYS_HTAP = 5_000
# One ingest + one tick per batch.  49 batches cross two post-grooms at the
# default post_groom_every=20 and leave nine grooms after the second, so
# every index starts the timed phase with runs in both zones.
LOAD_KEYS_PER_BATCH_ROW = 40
REUPSERT_SHARE = 0.2  # of the distinct keys, re-upserted during the load
ROWS_PER_CUSTOMER = 20
REGIONS = 50
MAX_AMOUNT = 5_000
ZIPF_THETA = 0.99
ABSENT_SHARE = 0.1
RANGE_SPAN = 200  # order_ids are even, so a range holds ~100 rows
REGION_AMOUNT_HIGH = 200  # keeps 4 % of a region's rows
HTAP_INGEST_ROWS = 200
HTAP_UPDATE_SHARE = 0.3
HTAP_POINTS_PER_ROUND = 60
HTAP_ROUNDS_PER_TICK = 5
HTAP_RECENT_KEYS = 2_000

# A chunk is what the driver runs between two readings of the host factor
# and two looks at the clock (60-200 ms), and the sample unit of
# ``ops_per_s``; on htap_mixed it is five rounds and a tick (311 ops).
# ``checkpoint_chunks`` is where the deterministic metrics (simulated I/O,
# write and space amplification, memory) are read, so that they depend on
# the seed and not on how fast the box is.  It is a fifth to a half of
# what the seed commit completes in 15 s; htap_mixed's lies after its
# second timed post-groom (ticks 60 and 80, counting the load's 49).
WORKLOADS = {
    "point_warm": {"shards": 4, "chunk_ops": 500, "checkpoint_chunks": 56},
    "typed_scatter": {"shards": 4, "chunk_ops": 50, "checkpoint_chunks": 50},
    "htap_mixed": {"shards": 2, "checkpoint_chunks": 35},
    # purge: after the load, set_cache_level(-1) on every index -- the
    # paper's Figure 14 end state, every run purged to shared storage.
    "point_purged": {
        "shards": 1, "chunk_ops": 250, "checkpoint_chunks": 32, "purge": True,
    },
}


def region_of(order_id: int) -> str:
    """Never updated, so ``by_region`` stays ghost-free and index-only."""
    return f"r{(order_id // 2) % REGIONS:02d}"


def user_bytes(row: Row) -> int:
    """8 B per integer column + UTF-8 length per string column."""
    return 16 + len(row[1]) + len(row[2])


def make_table(num_shards: int) -> ShardedTable:
    """The A15 orders table behind the production front door (qos on)."""
    schema = TableSchema(
        name="orders",
        columns=(
            ColumnSpec("order_id"),
            ColumnSpec("customer", ColumnType.STRING),
            ColumnSpec("region", ColumnType.STRING),
            ColumnSpec("amount"),
        ),
        primary_key=("order_id",),
        sharding_key=("order_id",),
    )
    config = ShardConfig(
        secondary_indexes={
            "by_customer": IndexSpec(
                equality_columns=("customer",), included_columns=("amount",)
            ),
            "by_region": IndexSpec(
                sort_columns=("region",), included_columns=("amount",)
            ),
        },
    )
    return ShardedTable(
        schema,
        IndexSpec(sort_columns=("order_id",)),
        num_shards=num_shards,
        config=config,
        qos=QosConfig(),
    )


class Oracle:
    """Dict of latest versions at groomed freshness.

    ``stage`` records rows handed to ``ingest``; they become visible to
    reads at the next ``publish`` (the op stream's ``tick``), which is
    when the groomer makes them visible in the table.
    """

    def __init__(self) -> None:
        self.visible: Dict[int, Row] = {}
        self.by_customer: Dict[str, Set[int]] = {}
        self.by_region: Dict[str, List[int]] = {}
        self.recent: Deque[int] = deque(maxlen=HTAP_RECENT_KEYS)
        self._staged: List[Row] = []
        self.user_bytes_ingested = 0

    def stage(self, rows: List[Row]) -> None:
        self._staged.extend(rows)
        self.user_bytes_ingested += sum(map(user_bytes, rows))

    def publish(self) -> None:
        for row in self._staged:
            order_id, customer = row[0], row[1]
            previous = self.visible.get(order_id)
            if previous is None:
                self.by_region.setdefault(row[2], []).append(order_id)
            elif previous[1] != customer:
                self.by_customer[previous[1]].discard(order_id)
            self.by_customer.setdefault(customer, set()).add(order_id)
            self.visible[order_id] = row
            self.recent.append(order_id)
        self._staged = []

    def live_user_bytes(self) -> int:
        return sum(map(user_bytes, self.visible.values()))

    # Typed results come back sorted by (row values, primary key); the
    # primary key leads every row and projection below, so sorting the
    # rows gives the same order.

    def customer_rows(self, customer: str) -> List[Row]:
        return sorted(
            self.visible[k] for k in self.by_customer.get(customer, ())
        )

    def region_rows(self, region: str, high: int) -> List[Tuple[int, int]]:
        return sorted(
            (k, self.visible[k][3])
            for k in self.by_region.get(region, ())
            if self.visible[k][3] <= high
        )

    def range_rows(self, low: int, high: int) -> List[Row]:
        visible = self.visible
        first = low + (low & 1)  # loaded order_ids are even
        return [visible[k] for k in range(first, high + 1, 2) if k in visible]


class Generator:
    """One workload's seeded row and op stream, with its oracle."""

    def __init__(self, workload: str, seed: int, shrink: int = 1) -> None:
        """``shrink`` divides every size (the smoke test runs at a tenth)."""
        self.rng = random.Random(seed)
        self.oracle = Oracle()
        self.load_keys = (
            LOAD_KEYS_HTAP if workload == "htap_mixed" else LOAD_KEYS
        ) // shrink
        self.load_batch_rows = self.load_keys // LOAD_KEYS_PER_BATCH_ROW
        self.ingest_rows = HTAP_INGEST_ROWS // shrink
        self.keys: List[int] = []  # loaded order_ids, in first-insert order
        self.next_key = 2 * self.load_keys  # htap_mixed inserts above the load
        self.customers = [
            f"c{i:04d}" for i in range(self.load_keys // ROWS_PER_CUSTOMER)
        ]
        self._zipf_keys: List[int] = []
        self._zipf_cum: List[float] = []
        # next_chunk() -> the next ops, each with its expected answer.
        self.next_chunk: Callable[[], List[Op]] = {
            "point_warm": self._chunk_point_warm,
            "typed_scatter": self._chunk_typed_scatter,
            "htap_mixed": self._chunk_htap_mixed,
            "point_purged": self._chunk_point_purged,
        }[workload]
        self.chunk_ops = WORKLOADS[workload].get("chunk_ops", 0) // shrink

    # -- rows ------------------------------------------------------------------

    def _insert(self, order_id: int) -> Row:
        return (
            order_id, self.rng.choice(self.customers), region_of(order_id),
            self.rng.randrange(MAX_AMOUNT),
        )

    def _update(self, order_id: int) -> Row:
        """New amount always, new customer for half."""
        rng = self.rng
        customer = (
            self.oracle.visible[order_id][1] if rng.random() < 0.5
            else rng.choice(self.customers)
        )
        return (
            order_id, customer, region_of(order_id), rng.randrange(MAX_AMOUNT)
        )

    def load_batches(self) -> Iterator[List[Row]]:
        """Distinct keys in shuffled order + 20 % re-upserts of earlier keys.

        The driver ticks after every batch, so each batch is published to
        the oracle as it is yielded.  No key appears twice in one batch.
        """
        rng = self.rng
        order = [2 * i for i in range(self.load_keys)]
        rng.shuffle(order)
        updates_per_batch = round(
            self.load_batch_rows * REUPSERT_SHARE / (1 + REUPSERT_SHARE)
        )
        position = 0
        while position < len(order):
            updates = rng.sample(self.keys, updates_per_batch) if self.keys else []
            fresh = order[
                position : position + self.load_batch_rows - len(updates)
            ]
            position += len(fresh)
            rows = [self._update(k) for k in updates]
            rows += [self._insert(k) for k in fresh]
            self.keys.extend(fresh)
            self.oracle.stage(rows)
            self.oracle.publish()
            yield rows

    # -- ops -------------------------------------------------------------------

    def _zipf_points(self, count: int) -> List[int]:
        """Zipfian(0.99) over the loaded keys, rank scrambled over the keyspace."""
        if not self._zipf_keys:
            self._zipf_keys = list(self.keys)
            self.rng.shuffle(self._zipf_keys)
            self._zipf_cum = list(accumulate(
                1.0 / (rank + 1) ** ZIPF_THETA
                for rank in range(len(self._zipf_keys))
            ))
        return self.rng.choices(
            self._zipf_keys, cum_weights=self._zipf_cum, k=count
        )

    def _point_op(self, order_id: int) -> Op:
        return ("point", order_id, self.oracle.visible.get(order_id))

    def _customer_op(self) -> Op:
        customer = self.rng.choice(self.customers)
        return (
            "query",
            Query(equalities=(("customer", customer),)),
            self.oracle.customer_rows(customer),
        )

    def _chunk_point_warm(self) -> List[Op]:
        rng = self.rng
        ops = []
        for key in self._zipf_points(self.chunk_ops):
            if rng.random() < ABSENT_SHARE:
                key = 2 * rng.randrange(self.load_keys) + 1  # odd: never loaded
            ops.append(self._point_op(key))
        return ops

    def _chunk_point_purged(self) -> List[Op]:
        return [
            self._point_op(key)
            for key in self.rng.choices(self.keys, k=self.chunk_ops)
        ]

    def _chunk_typed_scatter(self) -> List[Op]:
        rng = self.rng
        oracle = self.oracle
        ops = []
        for _ in range(self.chunk_ops):
            draw = rng.random()
            if draw < 0.35:
                ops.append(self._customer_op())
            elif draw < 0.60:
                region = f"r{rng.randrange(REGIONS):02d}"
                ops.append((
                    "query",
                    Query(
                        ranges=(
                            ("region", region, region),
                            ("amount", 0, REGION_AMOUNT_HIGH),
                        ),
                        projection=("order_id", "amount"),
                    ),
                    oracle.region_rows(region, REGION_AMOUNT_HIGH),
                ))
            elif draw < 0.85:
                low = rng.randrange(2 * self.load_keys - RANGE_SPAN)
                ops.append((
                    "query",
                    Query(ranges=(("order_id", low, low + RANGE_SPAN),)),
                    oracle.range_rows(low, low + RANGE_SPAN),
                ))
            else:
                key = rng.choice(self.keys)
                ops.append((
                    "query",
                    Query(equalities=(("order_id", key),)),
                    [oracle.visible[key]],
                ))
        return ops

    def _chunk_htap_mixed(self) -> List[Op]:
        """Five rounds of {ingest, 60 points, one customer query}, one tick."""
        rng = self.rng
        oracle = self.oracle
        updates_per_round = int(self.ingest_rows * HTAP_UPDATE_SHARE)
        inserted: List[int] = []
        ops: List[Op] = []
        for _ in range(HTAP_ROUNDS_PER_TICK):
            rows = [
                self._update(k) for k in rng.sample(self.keys, updates_per_round)
            ]
            fresh = range(
                self.next_key,
                self.next_key + 2 * (self.ingest_rows - updates_per_round),
                2,
            )
            self.next_key = fresh.stop
            inserted.extend(fresh)
            rows += [self._insert(k) for k in fresh]
            oracle.stage(rows)
            ops.append(("ingest", rows, len(rows)))
            half = HTAP_POINTS_PER_ROUND // 2
            recent = rng.choices(oracle.recent, k=half)
            for key in recent + self._zipf_points(half):
                ops.append(self._point_op(key))
            ops.append(self._customer_op())
        # The tick grooms what this chunk ingested: visible to the next
        # chunk's reads, and updatable by its ingests.
        ops.append(("tick", None, None))
        oracle.publish()
        self.keys.extend(inserted)
        # The customer pool grows with the table, so a customer keeps ~20
        # rows and the typed query costs the same late in the run as early.
        while len(self.customers) * ROWS_PER_CUSTOMER < len(self.keys):
            self.customers.append(f"c{len(self.customers):04d}")
        return ops
