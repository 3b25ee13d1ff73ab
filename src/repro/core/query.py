"""Index query processing (paper section 7).

Two query types are supported: the **range scan** (all equality columns
bound, range bounds over the sort columns) and the **point lookup** (the
entire key bound).  Every query carries a ``query_ts`` snapshot timestamp:
only versions with ``beginTS <= query_ts`` are visible and only the newest
visible version per key is returned.

Query flow:

1. collect candidate runs by traversing the (lock-free) run lists, pruning
   by the evolve watermark and per-run synopses;
2. search each candidate run (offset array + binary search + bounded
   iteration, :mod:`repro.core.search`);
3. reconcile across runs with either the **set approach** or the
   **priority-queue approach** (section 7.1.2).

Batched point lookups sort the input keys and visit each run at most once,
sequentially (section 7.2).
"""

from __future__ import annotations

import enum
from itertools import compress
from operator import itemgetter, ne
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.core.definition import (
    COLUMN_ENCODERS,
    WRONG_TYPE_ERRORS,
    IndexDefinition,
    encode_search_key,
)
from repro.core.epoch import RunLifecycle
from repro.core.encoding import (
    EncodingError,
    KeyValue,
    UINT64_MAX,
    columns_of,
    encode_uint64,
    hash_values,
    prefix_successor,
)
from repro.core.entry import IndexEntry, SORT_KEY_TS_BYTES, hash_column
from repro.core.run import DataBlockView, IndexRun
from repro.core.search import UNBOUNDED, narrow_with_offset_array, ts_floor
from repro.storage.metrics import ReadIntent

MAX_QUERY_TS = UINT64_MAX
# One scan hit: ``(sort_key, block_view, in_block_index)``.
Hit = Tuple[bytes, DataBlockView, int]
_SORT_KEY = itemgetter(0)  # of a scan hit


class QueryError(ValueError):
    """Malformed query for the given index definition."""


class SnapshotTooOldError(QueryError):
    """An AS-OF read below the retention horizon, which merges collect at."""


class ReconcileStrategy(enum.Enum):
    """How results from multiple runs are combined (section 7.1.2)."""

    SET = "set"
    PRIORITY_QUEUE = "priority_queue"


class RangeScanQuery(NamedTuple):
    """Values for all equality columns plus bounds on the sort columns.

    ``sort_lower`` / ``sort_upper`` are inclusive bounds over a *prefix* of
    the sort columns (``None`` = unbounded on that side).
    """

    equality_values: Tuple[KeyValue, ...] = ()
    sort_lower: Optional[Tuple[KeyValue, ...]] = None
    sort_upper: Optional[Tuple[KeyValue, ...]] = None
    query_ts: int = MAX_QUERY_TS


class PointLookup(NamedTuple):
    """The entire index key (the primary key for a primary index)."""

    equality_values: Tuple[KeyValue, ...] = ()
    sort_values: Tuple[KeyValue, ...] = ()
    query_ts: int = MAX_QUERY_TS


class _Bounds(NamedTuple):
    """Encoded search interval plus the hash, and the offset-array bucket
    it falls in, for narrowing the search."""

    lower_key: bytes
    upper_exclusive: bytes
    hash_value: Optional[int]
    bucket: Optional[int]


def _key_prefix(
    definition: IndexDefinition, equality_values: Sequence[KeyValue], what: str
) -> Tuple[bytes, Optional[int]]:
    """``hash | equality columns`` of a search key, and the hash."""
    specs = definition.equality_columns
    if len(equality_values) != len(specs):
        raise QueryError(
            f"{what} must bind all {len(specs)} "
            f"equality columns; got {len(equality_values)}"
        )
    if not specs:  # a pure range index: no hash column, nothing to encode
        return b"", None
    encoded = _encode(specs, equality_values)
    hash_value = hash_values((encoded,))
    return encode_uint64(hash_value) + encoded, hash_value


def _encode(specs, values: Sequence[KeyValue]) -> bytes:
    """A search key's columns encoded by their *declared* types, as the
    write path stored them (an int on a FLOAT64 column is that float);
    what ``upsert`` would refuse is a :class:`QueryError`."""
    try:
        return encode_search_key(specs, values)
    except EncodingError as error:
        raise QueryError(f"key value of the wrong type: {error}") from None


def compute_scan_bounds(
    definition: IndexDefinition, query: RangeScanQuery
) -> _Bounds:
    """Concatenated lower/upper bounds of section 7.1.1."""
    prefix, hash_value = _key_prefix(
        definition, query.equality_values, "range scan"
    )
    for bound in (query.sort_lower, query.sort_upper):
        if bound is not None and len(bound) > len(definition.sort_columns):
            raise QueryError(
                f"sort bound {bound} longer than the "
                f"{len(definition.sort_columns)} sort columns"
            )
    lower = prefix
    if query.sort_lower:
        lower += _encode(definition.sort_columns, query.sort_lower)

    if query.sort_upper:
        upper = prefix_successor(
            prefix + _encode(definition.sort_columns, query.sort_upper)
        )
    elif prefix:
        upper = prefix_successor(prefix)
    else:
        upper = UNBOUNDED
    return _Bounds(
        lower, upper, hash_value,
        None if hash_value is None else hash_value >> (64 - definition.hash_bits),
    )


def encode_point_key(
    definition: IndexDefinition,
    equality_values: Sequence[KeyValue],
    sort_values: Sequence[KeyValue],
) -> Tuple[bytes, Optional[int]]:
    """The full ``key_bytes`` of a point lookup, and its hash -- the lower
    bound of the degenerate range scan a point lookup is (section 7.2)."""
    if len(sort_values) != len(definition.sort_columns):
        raise QueryError(
            f"point lookup must bind all {len(definition.sort_columns)} "
            f"sort columns; got {len(sort_values)}"
        )
    prefix, hash_value = _key_prefix(definition, equality_values, "point lookup")
    return prefix + _encode(definition.sort_columns, sort_values), hash_value


def encode_point_keys(
    definition: IndexDefinition, key_columns: Sequence[Sequence[KeyValue]]
) -> Tuple[List[bytes], List[int]]:
    """:func:`encode_point_key` for a whole batch, column at a time:
    ``key_columns`` holds one sequence per key column (equality columns,
    then sort columns), one element per lookup.  Returns the keys and
    their hashes (0 without a hash column) in input order."""
    specs = definition.key_columns
    if len(key_columns) != len(specs):
        raise QueryError(
            f"point lookups must bind all {len(specs)} key columns; "
            f"got {len(key_columns)}"
        )
    try:
        # What ``upsert`` refuses is refused here (see encode_search_key):
        # the encoders fail on every such value but a bool, one check a
        # column; the wording is worked out only once something was.
        for column in key_columns:
            if bool in map(type, column):
                raise TypeError("a bool is no key value")
        encoded = [
            COLUMN_ENCODERS[spec.ctype](column)
            for spec, column in zip(specs, key_columns)
        ]
    except WRONG_TYPE_ERRORS as refused:
        try:
            for spec, column in zip(specs, key_columns):
                for value in column:
                    spec.validate(value)
        except EncodingError as error:
            refused = error
        raise QueryError(f"key value of the wrong type: {refused}") from None
    if not definition.equality_columns:  # no hash column
        return list(map(b"".join, zip(*encoded))), [0] * len(encoded[0])
    width = len(definition.equality_columns)
    encoded.insert(0, hash_column(encoded[:width], key_columns[:width], {}))
    keys = list(map(b"".join, zip(*encoded)))
    return keys, [int.from_bytes(key[:8], "big") for key in keys]


# ---------------------------------------------------------------------------
# run pruning
# ---------------------------------------------------------------------------


def _synopsis_overlaps(run: IndexRun, query_ts: int, boxes) -> bool:
    """Can ``run`` hold a version visible at ``query_ts`` inside ``boxes``?

    ``boxes`` gives an inclusive ``(low, high)`` per leading key column
    (``None``: open); the run's synopsis must overlap every one (section 7).
    """
    header = run.header
    if header.min_begin_ts > query_ts:
        return False  # every version in the run is newer than the snapshot
    for crange, (low, high) in zip(header.synopsis.ranges, boxes):
        if crange is not None and not crange.overlaps_range(low, high):
            return False
    return True


def _scan_boxes(definition: IndexDefinition, query: RangeScanQuery) -> list:
    """A range scan's boxes: every equality column, then -- the only sort
    column whose range is a sound filter alone -- the leading one."""
    boxes = [(value, value) for value in query.equality_values]
    if definition.sort_columns:
        boxes.append((
            query.sort_lower[0] if query.sort_lower else None,
            query.sort_upper[0] if query.sort_upper else None,
        ))
    return boxes


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------


class QueryExecutor:
    """Executes queries over a snapshot provider of candidate runs.

    ``collect_runs`` must return the candidate runs *newest first*, already
    filtered by the evolve watermark (see
    :meth:`repro.core.index.UmziIndex._collect_version` for the
    publication-order argument).

    **Read intent.**  Block fetches issued by the executor carry
    ``ReadIntent.QUERY``: a shared-storage miss promotes the block into
    the SSD cache so subsequent queries over the same (purged) run hit
    locally, and ``on_query_done`` releases those transient blocks
    afterwards when the cache manager asks for it.  The one door driven by
    background machinery, :meth:`batch_hits` under the post-groomer's
    ``post_groomed_batch_lookup``, takes ``intent=ReadIntent.MAINTENANCE``
    and hands it to the run kernels: the same code path then neither
    promotes nor perturbs the query-path hit/miss counters.

    **Run pinning.**  When a ``lifecycle`` (:class:`RunLifecycle`) is
    supplied, every query pins the lifecycle's current
    :class:`RunListVersion` -- that version, not ``collect_runs``, is its
    snapshot -- and releases it in a ``finally`` once the last result is
    out, so concurrent evolve/merge retirement defers the physical frees
    of any run the query still holds.  The pin is a single Ref and the
    release a single Unref: exactly two refcount operations per query,
    independent of run count (``EpochStats.version_refs`` /
    ``version_unrefs``), one ``pin`` and one ``release`` call made by the
    door itself.  The pin is released *before* ``on_query_done`` fires
    (it rides through the lifecycle as the pin's ``after`` action, outside
    the lifecycle mutex), so the cache manager's release pass sees only
    pins held by *other* in-flight queries.  Without a lifecycle the
    caller owns the snapshot's lifetime (``UmziIndex.pin_snapshot`` and
    the post-groom sweep hold a pin around the executor).
    """

    def __init__(
        self,
        definition: IndexDefinition,
        collect_runs: Callable[[], List[IndexRun]],
        use_offset_array: bool = True,
        on_query_done: Optional[Callable[[List[IndexRun]], None]] = None,
        lifecycle: Optional[RunLifecycle] = None,
    ) -> None:
        self.definition = definition
        self.collect_runs = collect_runs
        self._lifecycle = lifecycle
        self.use_offset_array = use_offset_array
        # Hook for the cache manager: release transient blocks of purged runs.
        self._on_query_done = on_query_done

    # -- range scan ----------------------------------------------------------------

    def scan(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_lower: Optional[Sequence[KeyValue]] = None,
        sort_upper: Optional[Sequence[KeyValue]] = None,
        query_ts: int = MAX_QUERY_TS,
        bounds: Optional[_Bounds] = None,
        strategy: ReconcileStrategy = ReconcileStrategy.PRIORITY_QUEUE,
    ) -> List[IndexEntry]:
        """Newest visible version of every key in the range, key-ordered.

        Runs are scanned undecoded (:meth:`IndexRun.scan_visible`),
        reconciled on raw sort keys, and only the winners are decoded.
        ``bounds`` are the range's :func:`compute_scan_bounds`, when the
        caller encoded them already (a typed query, once for its shards);
        the arguments are :meth:`UmziIndex.scan`'s, so a degraded shard's
        pinned executor answers its typed plans in the index's place.
        """
        query = RangeScanQuery(
            tuple(equality_values),
            tuple(sort_lower) if sort_lower is not None else None,
            tuple(sort_upper) if sort_upper is not None else None,
            query_ts,
        )
        if bounds is None:
            bounds = compute_scan_bounds(self.definition, query)
        lifecycle, done = self._lifecycle, self._on_query_done
        pin = lifecycle.pin() if lifecycle is not None else None
        runs = pin.runs if pin is not None else self.collect_runs()
        # Everything after the pin runs under the finally, so an exception
        # anywhere (even in candidate filtering) cannot leak the epoch.
        candidates: List[IndexRun] = []
        try:
            candidates = self._candidates(runs, query)
            reconcile = (
                self._reconcile_set if strategy is ReconcileStrategy.SET
                else self._reconcile_sorted
            )
            # Decoded before by an earlier query, mostly: the view's memo
            # is asked first, without a frame.
            return [
                view.decoded.get(i) or view.entry(i)
                for _, view, i in reconcile(
                    candidates, bounds, ts_floor(query_ts)
                )
            ]
        finally:
            if pin is not None:
                lifecycle.release(pin, done, candidates)
            elif done is not None:
                done(candidates)

    def _candidates(
        self, runs: Sequence[IndexRun], query: RangeScanQuery
    ) -> List[IndexRun]:
        """The runs a scan must search (the synopsis check of section 7):
        non-empty, not entirely newer than the snapshot, and every bound
        column value overlapping the run's recorded range."""
        boxes = _scan_boxes(self.definition, query)
        return [
            run for run in runs
            if run.entry_count and _synopsis_overlaps(run, query.query_ts, boxes)
        ]

    def _run_hits(
        self, run: IndexRun, bounds: _Bounds, floor: bytes
    ) -> List[Hit]:
        """``run``'s hits inside ``bounds``, in key order: the scan kernel
        over the hash bucket (an equality scan) or the whole run."""
        fences = run.bucket_fences
        if fences and bounds.bucket is not None and self.use_offset_array:
            lo, hi = fences[bounds.bucket], fences[bounds.bucket + 1]
        else:
            lo, hi = 0, run.entry_count
        return run.scan_visible(
            bounds.lower_key, lo, hi, bounds.upper_exclusive, floor
        )

    def _reconcile_set(
        self, runs: Sequence[IndexRun], bounds: _Bounds, floor: bytes
    ) -> List[Hit]:
        """Set approach: scan run by run, remember the best version per key.

        Works well for small ranges; keeps all intermediate results in
        memory (the trade-off the paper calls out).  Versions are compared
        by raw ``~beginTS`` suffix, not run recency: run order tracks when
        entries were *indexed*, and a newer run may carry an older version
        of a key (evolve duplicates, out-of-order grooms), so first-seen-
        per-key would answer with the wrong version.  Runs are walked
        newest first so identical versions surfacing from both zones keep
        the newer zone's copy.
        """
        best: Dict[bytes, Hit] = {}
        for run in runs:  # newest -> oldest
            for hit in self._run_hits(run, bounds, floor):
                key = hit[0][:-SORT_KEY_TS_BYTES]
                held = best.get(key)
                # Same key, so the smaller sort key is the newer version.
                if held is None or hit[0] < held[0]:
                    best[key] = hit
        return [best[key] for key in sorted(best)]

    def _reconcile_sorted(
        self, runs: Sequence[IndexRun], bounds: _Bounds, floor: bytes
    ) -> List[Hit]:
        """Priority-queue approach, materialized: one global key order.

        The runs' hits are concatenated newest run first and sorted by
        sort key with a *stable* sort, which is the order the section
        7.1.2 heap pops them in -- user key, newest version first, newer
        run first among identical versions surfacing from two zones --
        and the first hit per user key is the answer.  The lists are
        already sorted per run, which is the case the C sort merges in
        linear time; a single contributing run needs no reconciliation.
        """
        merged: List[Hit] = []
        contributing = 0
        for run in runs:  # newest -> oldest
            hits = self._run_hits(run, bounds, floor)
            if hits:
                merged += hits
                contributing += 1
        if contributing < 2:
            return merged
        merged.sort(key=_SORT_KEY)
        keys = [hit[0][:-SORT_KEY_TS_BYTES] for hit in merged]
        # The first hit per user key; the rest are older or duplicates.
        return list(compress(merged, map(ne, keys, [None, *keys[:-1]])))

    # -- point lookups ------------------------------------------------------------------

    def lookup(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_values: Sequence[KeyValue] = (),
        query_ts: int = MAX_QUERY_TS,
        key: Optional[bytes] = None,
    ) -> Optional[IndexEntry]:
        """Search newest to oldest, stopping at the first visible match
        (the section 7.2 optimization).

        The key and the snapshot's ``~beginTS`` floor are encoded once; a
        run is skipped on ``min_begin_ts`` and on the synopsis ranges of
        the equality columns and the leading sort column (the boxes a scan
        over the same bounds is pruned by), and searched by the exact-key
        kernel :meth:`IndexRun.lookup_visible`.  ``key`` is the values'
        ``key_bytes`` when the caller encoded them already -- only for a
        definition without a hash column (a routed table point whose
        sharding key is the whole sort key).
        """
        if key is None:
            key, hash_value = encode_point_key(
                self.definition, equality_values, sort_values
            )
        else:
            hash_value = None
        floor = ts_floor(query_ts)
        boxes = (*equality_values, *sort_values[:1])
        bucketed = hash_value is not None and self.use_offset_array
        lifecycle, done = self._lifecycle, self._on_query_done
        pin = lifecycle.pin() if lifecycle is not None else None
        runs = pin.runs if pin is not None else self.collect_runs()
        # Only the runs searched are handed to the release hook, not every
        # synopsis candidate: the lookup stops at the first visible match.
        searched: List[IndexRun] = []
        try:
            for run in runs:
                header = run.header
                if not run.entry_count or header.min_begin_ts > query_ts:
                    continue
                for crange, value in zip(header.synopsis.ranges, boxes):
                    if crange is not None and not (
                        crange.min_value <= value <= crange.max_value
                    ):
                        break
                else:
                    searched.append(run)
                    if bucketed:
                        lo, hi = narrow_with_offset_array(run, hash_value)
                    else:
                        lo, hi = 0, run.entry_count
                    entry = run.lookup_visible(key, floor, lo, hi)
                    if entry is not None:
                        return entry
            return None
        finally:
            if pin is not None:
                lifecycle.release(pin, done, searched)
            elif done is not None:
                done(searched)

    def batch_lookup(
        self, lookups: Sequence[PointLookup]
    ) -> List[Optional[IndexEntry]]:
        """:meth:`batch_lookup_columns` over :class:`PointLookup` rows."""
        if not lookups:
            return []
        equality, sort, timestamps = columns_of(lookups, range(3))
        widths = len(self.definition.equality_columns), len(self.definition.sort_columns)
        if (set(map(len, equality)), set(map(len, sort))) != ({widths[0]}, {widths[1]}):
            raise QueryError("every point lookup must bind all %d equality and %d sort "
                             "columns" % widths)
        key_columns = columns_of(equality, range(widths[0])) + columns_of(sort, range(widths[1]))
        return self.batch_lookup_columns(key_columns, timestamps)

    def batch_lookup_columns(
        self,
        key_columns: Sequence[Sequence[KeyValue]],
        query_ts: Union[int, Sequence[int]],
    ) -> List[Optional[IndexEntry]]:
        """:meth:`batch_hits`, each answer decoded."""
        hits = self.batch_hits(key_columns, query_ts)
        return [hit and hit[0].entry(hit[1]) for hit in hits]

    def batch_hits(
        self,
        key_columns: Sequence[Sequence[KeyValue]],
        query_ts: Union[int, Sequence[int]],
        intent: ReadIntent = ReadIntent.QUERY,
    ) -> List[Optional[Tuple[DataBlockView, int]]]:
        """Batched point lookups (section 7.2), answered undecoded: per
        key, ``(view, i)`` of its visible version, or ``None``.

        ``key_columns`` holds one sequence per key column (equality, then
        sort), ``query_ts`` the batch's snapshot or one per key.  Keys are
        encoded a column at a time (:func:`encode_point_keys`), sorted by
        their encoded bytes, then searched against each run newest to
        oldest -- one sequential pass per run, the batch kernel
        :meth:`IndexRun.batch_visible` -- until every key is resolved or
        the runs are exhausted.  Runs are pruned at the latest snapshot in
        the batch; every key is filtered at its own.  Blocks are fetched
        with ``intent``.
        """
        keys, hashes = encode_point_keys(self.definition, key_columns)
        if not keys:
            return []
        # Input positions in encoded-key order; from here on everything is
        # indexed by *slot*, a key's place in that order.
        positions = sorted(range(len(keys)), key=keys.__getitem__)
        keys = [keys[i] for i in positions]
        buckets = None
        if self.definition.equality_columns:  # hence a hash column
            shift = 64 - self.definition.hash_bits
            buckets = [hashes[i] >> shift for i in positions]
        # Runs are pruned at the batch's latest snapshot; a key is visible
        # from its own snapshot's floor.
        if isinstance(query_ts, int):
            max_ts = query_ts
            floors = [ts_floor(query_ts)] * len(keys)
        else:
            max_ts = max(query_ts)
            floors = [ts_floor(query_ts[i]) for i in positions]
        found: List[Optional[Tuple[DataBlockView, int]]] = [None] * len(keys)
        unresolved: Sequence[int] = range(len(keys))
        lifecycle, done = self._lifecycle, self._on_query_done
        pin = lifecycle.pin() if lifecycle is not None else None
        candidates = pin.runs if pin is not None else self.collect_runs()
        touched: List[IndexRun] = []
        try:
            # Per-key-column (min, max) over the whole batch.
            batch_box = [(min(column), max(column)) for column in key_columns]
            for run in candidates:  # newest -> oldest
                if not unresolved:
                    break
                if run.entry_count == 0:
                    continue
                # Batch-granularity synopsis pruning (section 8.3: "the run
                # synopsis enables pruning most of the irrelevant runs" for
                # sequential batches, while random batches span the key
                # space and must search every run -- the linear curve of
                # Figure 10b).
                if not _synopsis_overlaps(run, max_ts, batch_box):
                    continue
                # The cheap batch-level prune: full synopsis pruning needs
                # decoded column values, but the offset array already says
                # whether any key's hash bucket holds an entry at all --
                # the dominant effect for equality-style batches.
                fences = run.bucket_fences
                if fences:
                    for slot in unresolved:
                        if fences[buckets[slot]] < fences[buckets[slot] + 1]:
                            break
                    else:
                        continue
                touched.append(run)
                run.batch_visible(
                    keys, buckets if self.use_offset_array else None,
                    floors, unresolved, found, intent,
                )
                unresolved = [slot for slot in unresolved if found[slot] is None]
        finally:
            if pin is not None:
                lifecycle.release(pin, done, touched)
            elif done is not None:
                done(touched)
        # Back to input order: sorting the slots by position inverts them.
        return list(map(found.__getitem__, sorted(
            range(len(keys)), key=positions.__getitem__
        )))


__all__ = [
    "MAX_QUERY_TS",
    "PointLookup",
    "QueryError",
    "QueryExecutor",
    "RangeScanQuery",
    "ReconcileStrategy",
    "SnapshotTooOldError",
    "compute_scan_bounds",
    "encode_point_key",
    "encode_point_keys",
]
