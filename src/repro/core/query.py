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
import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.definition import IndexDefinition
from repro.core.epoch import QueryPin, RunLifecycle
from repro.core.encoding import (
    KeyValue,
    UINT64_MAX,
    encode_composite,
    encode_uint64,
    prefix_successor,
)
from repro.core.entry import (
    IndexEntry,
    Zone,
    begin_ts_of_sort_key,
    user_key_of_sort_key,
)
from repro.core.run import IndexRun
from repro.core.search import (
    UNBOUNDED,
    batch_lookup_in_run,
    lookup_key_in_run,
    search_run_raw,
)

MAX_QUERY_TS = UINT64_MAX


class QueryError(ValueError):
    """Malformed query for the given index definition."""


class ReconcileStrategy(enum.Enum):
    """How results from multiple runs are combined (section 7.1.2)."""

    SET = "set"
    PRIORITY_QUEUE = "priority_queue"


@dataclass(frozen=True)
class RangeScanQuery:
    """Values for all equality columns plus bounds on the sort columns.

    ``sort_lower`` / ``sort_upper`` are inclusive bounds over a *prefix* of
    the sort columns (``None`` = unbounded on that side).
    """

    equality_values: Tuple[KeyValue, ...] = ()
    sort_lower: Optional[Tuple[KeyValue, ...]] = None
    sort_upper: Optional[Tuple[KeyValue, ...]] = None
    query_ts: int = MAX_QUERY_TS


@dataclass(frozen=True)
class PointLookup:
    """The entire index key (the primary key for a primary index)."""

    equality_values: Tuple[KeyValue, ...] = ()
    sort_values: Tuple[KeyValue, ...] = ()
    query_ts: int = MAX_QUERY_TS


@dataclass(frozen=True)
class _Bounds:
    """Encoded search interval plus the hash for offset-array narrowing."""

    lower_key: bytes
    upper_exclusive: bytes
    hash_value: Optional[int]


def compute_scan_bounds(
    definition: IndexDefinition, query: RangeScanQuery
) -> _Bounds:
    """Concatenated lower/upper bounds of section 7.1.1."""
    if len(query.equality_values) != len(definition.equality_columns):
        raise QueryError(
            f"range scan must bind all {len(definition.equality_columns)} "
            f"equality columns; got {len(query.equality_values)}"
        )
    for bound in (query.sort_lower, query.sort_upper):
        if bound is not None and len(bound) > len(definition.sort_columns):
            raise QueryError(
                f"sort bound {bound} longer than the "
                f"{len(definition.sort_columns)} sort columns"
            )
    hash_value: Optional[int] = None
    prefix = b""
    if definition.has_hash_column:
        hash_value = definition.hash_of(query.equality_values)
        prefix = encode_uint64(hash_value)
    prefix += encode_composite(query.equality_values)

    lower = prefix
    if query.sort_lower:
        lower += encode_composite(query.sort_lower)

    if query.sort_upper:
        upper = prefix_successor(prefix + encode_composite(query.sort_upper))
    elif prefix:
        upper = prefix_successor(prefix)
    else:
        upper = UNBOUNDED
    return _Bounds(lower_key=lower, upper_exclusive=upper, hash_value=hash_value)


def compute_point_bounds(
    definition: IndexDefinition, lookup: PointLookup
) -> _Bounds:
    if len(lookup.sort_values) != len(definition.sort_columns):
        raise QueryError(
            f"point lookup must bind all {len(definition.sort_columns)} "
            f"sort columns; got {len(lookup.sort_values)}"
        )
    scan = RangeScanQuery(
        equality_values=lookup.equality_values,
        sort_lower=lookup.sort_values or None,
        sort_upper=lookup.sort_values or None,
        query_ts=lookup.query_ts,
    )
    return compute_scan_bounds(definition, scan)


# ---------------------------------------------------------------------------
# run pruning
# ---------------------------------------------------------------------------


def run_may_contain(
    run: IndexRun,
    query: RangeScanQuery,
    use_synopsis: bool = True,
) -> bool:
    """Synopsis check of section 7: a run is a candidate only if every bound
    column value overlaps the run's recorded range."""
    if run.entry_count == 0:
        return False
    if run.header.min_begin_ts > query.query_ts:
        return False  # every version in the run is newer than the snapshot
    if not use_synopsis:
        return True
    synopsis = run.header.synopsis
    n_eq = len(run.definition.equality_columns)
    for position, value in enumerate(query.equality_values):
        crange = synopsis.column_range(position)
        if crange is not None and not crange.overlaps_point(value):
            return False
    if run.definition.sort_columns:
        low = query.sort_lower[0] if query.sort_lower else None
        high = query.sort_upper[0] if query.sort_upper else None
        crange = synopsis.column_range(n_eq)
        if crange is not None and not crange.overlaps_range(low, high):
            return False
    return True


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------


class QueryExecutor:
    """Executes queries over a snapshot provider of candidate runs.

    ``collect_runs`` must return the candidate runs *newest first*, already
    filtered by the evolve watermark (see
    :meth:`repro.core.index.UmziIndex._collect_candidate_runs` for the
    publication-order argument).

    **Read intent.**  Block fetches issued by the executor carry
    ``ReadIntent.QUERY`` by default: a shared-storage miss promotes the
    block into the SSD cache so subsequent queries over the same (purged)
    run hit locally, and ``on_query_done`` releases those transient blocks
    afterwards when the cache manager asks for it.  When an executor is
    driven by background machinery instead (the post-groomer's
    ``post_groomed_batch_lookup``), the caller wraps the call in
    ``hierarchy.reading_as(ReadIntent.MAINTENANCE)`` -- the same code path
    then neither promotes nor perturbs the query-path hit/miss counters.

    **Run pinning.**  When a ``lifecycle`` (:class:`RunLifecycle`) is
    supplied, every query pins its run snapshot before collecting and
    releases it in a ``finally`` once the last result is out: the
    snapshot is *pinned*, so concurrent evolve/merge retirement defers
    the physical frees of any run the query still holds.  In versionset
    mode (the default) a pin whose collector is the index's registered
    version collector is a single Ref on the current
    :class:`RunListVersion` node and the release a single Unref --
    exactly two refcount operations per query, independent of run count
    (``EpochStats.version_refs``/``version_unrefs``); epoch mode walks
    the snapshot on a per-run ledger instead (O(runs),
    ``EpochStats.run_ref_ops``).  The pin is released *before*
    ``on_query_done`` fires, so the cache manager's release pass sees only
    pins held by *other* in-flight queries.  Without a lifecycle the
    executor behaves exactly as before (the legacy unprotected mode).
    """

    def __init__(
        self,
        definition: IndexDefinition,
        collect_runs: Callable[[], List[IndexRun]],
        use_synopsis: bool = True,
        use_offset_array: bool = True,
        per_key_batch_pruning: bool = False,
        on_query_done: Optional[Callable[[List[IndexRun]], None]] = None,
        lifecycle: Optional[RunLifecycle] = None,
    ) -> None:
        self.definition = definition
        self.collect_runs = collect_runs
        self._lifecycle = lifecycle
        self.use_synopsis = use_synopsis
        self.use_offset_array = use_offset_array
        # Paper-faithful batched lookups prune runs against the *batch's*
        # value bounding box (that granularity is what makes random batches
        # degrade linearly with run count in Figure 10b).  Per-key pruning
        # is an extension beyond the paper -- it checks every key against
        # every run synopsis individually, flattening that curve -- kept
        # opt-in and quantified in benchmarks/bench_ablation_batch_pruning.py.
        self.per_key_batch_pruning = per_key_batch_pruning
        # Hook for the cache manager: release transient blocks of purged runs.
        self._on_query_done = on_query_done

    # -- query scope (epoch pin + release hooks) -----------------------------------

    def _enter_query(self) -> Tuple[Optional[QueryPin], List[IndexRun]]:
        """Collect the run snapshot, pinning it when a lifecycle is wired."""
        if self._lifecycle is None:
            return None, self.collect_runs()
        pin = self._lifecycle.pin(self.collect_runs)
        return pin, list(pin.runs)

    def _exit_query(
        self, pin: Optional[QueryPin], touched: List[IndexRun]
    ) -> None:
        """Epoch exit, then block release -- in that order (see class doc).

        The block-release hook rides through the lifecycle as the pin's
        ``after`` action: it runs once the pin no longer counts, and when
        the exit happens inside a GC finalizer (abandoned iterator in a
        reference cycle) both the unpin and the hook are parked and run by
        the next lifecycle operation -- a finalizer must not take
        storage-tier locks.
        """
        after: Optional[Callable[[], None]] = None
        if self._on_query_done is not None:
            hook = self._on_query_done
            after = lambda: hook(touched)  # noqa: E731 - tiny closure
        if pin is not None:
            self._lifecycle.release(pin, after=after)
        elif after is not None:
            after()

    # -- range scan ----------------------------------------------------------------

    def range_scan(
        self,
        query: RangeScanQuery,
        strategy: ReconcileStrategy = ReconcileStrategy.PRIORITY_QUEUE,
    ) -> List[IndexEntry]:
        """Newest visible version of every key in the range, key-ordered."""
        bounds = compute_scan_bounds(self.definition, query)
        pin, runs = self._enter_query()
        # Everything after the pin runs under the finally, so an exception
        # anywhere (even in candidate filtering) cannot leak the epoch.
        candidates: List[IndexRun] = []
        try:
            candidates = [
                run
                for run in runs
                if run_may_contain(run, query, self.use_synopsis)
            ]
            if strategy is ReconcileStrategy.SET:
                return self._reconcile_set(candidates, bounds, query.query_ts)
            return self._reconcile_priority_queue(candidates, bounds, query.query_ts)
        finally:
            self._exit_query(pin, candidates)

    def _reconcile_set(
        self, runs: Sequence[IndexRun], bounds: _Bounds, query_ts: int
    ) -> List[IndexEntry]:
        """Set approach: scan run by run, remember the best version per key.

        Works well for small ranges; keeps all intermediate results in
        memory (the trade-off the paper calls out).  Versions are compared
        by raw ``beginTS`` slices, not run recency: run order tracks when
        entries were *indexed*, and a newer run may carry an older version
        of a key (evolve duplicates, out-of-order grooms), so first-seen-
        per-key would answer with the wrong version.  Runs are walked
        newest first so identical versions surfacing from both zones keep
        the newer zone's copy.
        """
        best: Dict[bytes, Tuple[int, IndexEntry]] = {}
        for run in runs:  # newest -> oldest
            for sort_key, entry in search_run_raw(
                run,
                bounds.lower_key,
                bounds.upper_exclusive,
                query_ts,
                bounds.hash_value,
                self.use_offset_array,
            ):
                key = user_key_of_sort_key(sort_key)
                begin_ts = begin_ts_of_sort_key(sort_key)
                current = best.get(key)
                if current is None or begin_ts > current[0]:
                    best[key] = (begin_ts, entry)
        return [best[key][1] for key in sorted(best)]

    def range_scan_iter(
        self, query: RangeScanQuery
    ) -> Iterator[IndexEntry]:
        """Streaming range scan (priority-queue reconciliation only).

        Yields the newest visible version per key in key order without
        materializing the result set -- the point of the priority-queue
        approach (section 7.1.2).  The run snapshot is taken (and pinned)
        once, at call time.  Cleanup -- epoch exit and purged-block
        release -- runs in the generator's ``finally``, which fires on
        exhaustion, on an explicit ``close()``, *and* when an abandoned
        iterator is garbage-collected (CPython calls ``close()`` from the
        generator's finalizer); a pin captured by a never-started iterator
        is released by the pin's own finalizer backstop.
        """
        bounds = compute_scan_bounds(self.definition, query)
        pin, runs = self._enter_query()
        try:
            candidates = [
                run
                for run in runs
                if run_may_contain(run, query, self.use_synopsis)
            ]
            inner = self._merge_runs_iter(candidates, bounds, query.query_ts)
        except BaseException:
            self._exit_query(pin, [])
            raise

        def guarded() -> Iterator[IndexEntry]:
            try:
                yield from inner
            finally:
                self._exit_query(pin, candidates)

        return guarded()

    def _reconcile_priority_queue(
        self, runs: Sequence[IndexRun], bounds: _Bounds, query_ts: int
    ) -> List[IndexEntry]:
        """Priority-queue approach: merge all run streams into one global
        key order and keep the first (newest) entry per key -- no
        intermediate result set (the merge step of merge sort)."""
        return list(self._merge_runs_iter(runs, bounds, query_ts))

    def _merge_runs_iter(
        self, runs: Sequence[IndexRun], bounds: _Bounds, query_ts: int
    ) -> Iterator[IndexEntry]:
        def stream(run: IndexRun, recency: int):
            # recency must be bound per stream (0 = newest run); it breaks
            # ties between identical versions surfacing from two zones.
            # The raw sort key (user key | descending beginTS) is exactly
            # the order the reconciliation heap needs -- no re-encoding.
            for sort_key, entry in search_run_raw(
                run,
                bounds.lower_key,
                bounds.upper_exclusive,
                query_ts,
                bounds.hash_value,
                self.use_offset_array,
            ):
                yield sort_key, recency, entry

        streams = [stream(run, recency) for recency, run in enumerate(runs)]
        previous_key: Optional[bytes] = None
        for sort_key, _recency, entry in heapq.merge(*streams):
            key = user_key_of_sort_key(sort_key)
            if key == previous_key:
                continue  # an older (or duplicate) version of an answered key
            previous_key = key
            yield entry

    # -- point lookups ------------------------------------------------------------------

    def point_lookup(self, lookup: PointLookup) -> Optional[IndexEntry]:
        """Search newest to oldest, stopping at the first visible match
        (the section 7.2 optimization)."""
        bounds = compute_point_bounds(self.definition, lookup)
        probe = RangeScanQuery(
            equality_values=lookup.equality_values,
            sort_lower=lookup.sort_values or None,
            sort_upper=lookup.sort_values or None,
            query_ts=lookup.query_ts,
        )
        pin, runs = self._enter_query()
        # Only the runs searched are handed to the release hook, not every
        # synopsis candidate: the lookup stops at the first visible match.
        searched: List[IndexRun] = []
        try:
            for run in runs:
                if not run_may_contain(run, probe, self.use_synopsis):
                    continue
                searched.append(run)
                entry = lookup_key_in_run(
                    run,
                    bounds.lower_key,
                    lookup.query_ts,
                    bounds.hash_value,
                    self.use_offset_array,
                )
                if entry is not None:
                    return entry
            return None
        finally:
            self._exit_query(pin, searched)

    def batch_lookup(
        self, lookups: Sequence[PointLookup]
    ) -> List[Optional[IndexEntry]]:
        """Batched point lookups (section 7.2).

        Keys are sorted by their encoded bytes, then searched against each
        run newest to oldest -- one sequential pass per run -- until every
        key is resolved or the runs are exhausted.  All lookups in a batch
        share one snapshot timestamp (the max is used; per-lookup filtering
        still applies).
        """
        if not lookups:
            return []
        # (encoded key, hash, input position) sorted by encoded key.
        encoded: List[Tuple[bytes, int, int]] = []
        for position, lookup in enumerate(lookups):
            bounds = compute_point_bounds(self.definition, lookup)
            encoded.append((bounds.lower_key, bounds.hash_value or 0, position))
        encoded.sort(key=lambda item: item[0])

        results: List[Optional[IndexEntry]] = [None] * len(lookups)
        unresolved = list(range(len(encoded)))  # indexes into `encoded`
        pin, candidates = self._enter_query()
        touched: List[IndexRun] = []
        try:
            batch_box = (
                self._batch_bounding_box(lookups) if self.use_synopsis else None
            )
            self._batch_lookup_runs(
                candidates, encoded, lookups, unresolved, results,
                batch_box, touched,
            )
        finally:
            self._exit_query(pin, touched)
        return results

    def _batch_lookup_runs(
        self,
        candidates: Sequence[IndexRun],
        encoded: List[Tuple[bytes, int, int]],
        lookups: Sequence[PointLookup],
        unresolved: List[int],
        results: List[Optional[IndexEntry]],
        batch_box,
        touched: List[IndexRun],
    ) -> None:
        for run in candidates:  # newest -> oldest
            if not unresolved:
                break
            if run.entry_count == 0:
                continue
            if self.use_synopsis:
                # Batch-granularity synopsis pruning (section 8.3: "the run
                # synopsis enables pruning most of the irrelevant runs" for
                # sequential batches, while random batches span the key
                # space and must search every run).
                if not self._run_overlaps_box(run, batch_box, lookups):
                    continue
                if self.per_key_batch_pruning:
                    probe_slots = [
                        i for i in unresolved
                        if self._key_may_be_in_run(run, lookups[encoded[i][2]])
                    ]
                else:
                    probe_slots = unresolved
            else:
                probe_slots = unresolved
            if probe_slots and run.header.bloom_blob is not None:
                # Bloom membership is orthogonal to pruning granularity:
                # it filters individual keys whenever a filter exists.
                probe_slots = [
                    i for i in probe_slots
                    if run.may_contain_key(encoded[i][0])
                ]
            if not probe_slots:
                continue
            batch = [(encoded[i][0], encoded[i][1]) for i in probe_slots]
            batch_ts = [lookups[encoded[i][2]].query_ts for i in probe_slots]
            if self.use_synopsis and not self._run_overlaps_batch(run, batch):
                continue
            touched.append(run)
            resolved_slots = set()
            found = self._batch_search_run(run, batch, batch_ts)
            for slot, entry in zip(probe_slots, found):
                if entry is not None:
                    results[encoded[slot][2]] = entry
                    resolved_slots.add(slot)
            unresolved = [i for i in unresolved if i not in resolved_slots]

    def _batch_bounding_box(self, lookups: Sequence[PointLookup]):
        """Per-column (min, max) over the whole batch, plus the max TS."""
        n_eq = len(self.definition.equality_columns)
        n_sort = len(self.definition.sort_columns)
        boxes = []
        for position in range(n_eq):
            values = [lk.equality_values[position] for lk in lookups]
            boxes.append((min(values), max(values)))
        for position in range(n_sort):
            values = [lk.sort_values[position] for lk in lookups]
            boxes.append((min(values), max(values)))
        max_ts = max(lk.query_ts for lk in lookups)
        return boxes, max_ts

    def _run_overlaps_box(self, run: IndexRun, box, lookups) -> bool:
        boxes, max_ts = box
        if run.header.min_begin_ts > max_ts:
            return False
        synopsis = run.header.synopsis
        for position, (low, high) in enumerate(boxes):
            crange = synopsis.column_range(position)
            if crange is not None and not crange.overlaps_range(low, high):
                return False
        return True

    def _key_may_be_in_run(self, run: IndexRun, lookup: PointLookup) -> bool:
        """Synopsis check for one point-lookup key against one run."""
        if run.header.min_begin_ts > lookup.query_ts:
            return False
        synopsis = run.header.synopsis
        for position, value in enumerate(lookup.equality_values):
            crange = synopsis.column_range(position)
            if crange is not None and not crange.overlaps_point(value):
                return False
        n_eq = len(self.definition.equality_columns)
        for offset, value in enumerate(lookup.sort_values):
            # A point lookup pins every column, so each column's synopsis
            # range is independently a sound filter (unlike range scans,
            # where only the leading sort column's range is usable alone).
            crange = synopsis.column_range(n_eq + offset)
            if crange is not None and not crange.overlaps_point(value):
                return False
        return True

    def _batch_search_run(
        self,
        run: IndexRun,
        batch: Sequence[Tuple[bytes, int]],
        batch_ts: Sequence[int],
    ) -> List[Optional[IndexEntry]]:
        # batch_lookup_in_run uses one shared query_ts; when the batch mixes
        # timestamps (rare), fall back to per-key searches.
        # batch_lookup already consulted the run's Bloom filter per key when
        # building the probe slots, so the run-level search must not re-hash
        # every key against it (use_bloom=False).
        unique_ts = set(batch_ts)
        if len(unique_ts) == 1:
            return batch_lookup_in_run(
                run, batch, unique_ts.pop(), self.use_offset_array,
                use_bloom=False,
            )
        results: List[Optional[IndexEntry]] = []
        for (key, hash_value), ts in zip(batch, batch_ts):
            single = batch_lookup_in_run(
                run, [(key, hash_value)], ts, self.use_offset_array,
                use_bloom=False,
            )
            results.append(single[0])
        return results

    def _run_overlaps_batch(
        self, run: IndexRun, batch: Sequence[Tuple[bytes, int]]
    ) -> bool:
        """Cheap batch-level prune: does any key's hash bucket have entries?

        Full synopsis pruning needs decoded column values; for sorted-key
        batches the offset array already answers "is this bucket empty"
        without any data-block I/O, which is the dominant pruning effect
        for equality-style batches.
        """
        offsets = run.header.offset_array
        if not offsets:
            return True
        nbits = run.definition.hash_bits
        count = run.entry_count
        for _key, hash_value in batch:
            bucket = hash_value >> (64 - nbits)
            lo = offsets[bucket]
            hi = offsets[bucket + 1] if bucket + 1 < len(offsets) else count
            if lo < hi:
                return True
        return False


__all__ = [
    "MAX_QUERY_TS",
    "PointLookup",
    "QueryError",
    "QueryExecutor",
    "RangeScanQuery",
    "ReconcileStrategy",
    "compute_point_bounds",
    "compute_scan_bounds",
    "run_may_contain",
]
