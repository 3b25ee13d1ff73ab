"""The per-entry scan and lookup paths, kept as the oracle for the kernels.

Until the block-granular kernel (``IndexRun.scan_visible``) a range scan
was three generator layers and a heap per entry -- ``iter_sort_keys`` ->
``search_run_raw`` -> a per-run ``stream`` -> ``heapq.merge`` -- decoding
an ``IndexEntry`` for every stream element; a batched lookup ran
``_probe_fences`` + ``first_geq`` + a ``_first_visible`` generator per key
per run, and re-entered the run once per key when the batch mixed
timestamps; a point lookup built a ``RangeScanQuery`` probe and a
candidate list, then ran fences + ``first_geq`` + a first-only scan per
run.  Those loops live on here, out of ``src/``, as the reference the
kernels are compared against: same entries, same ``raw_key_probes``, same
blocks fetched in the same order.

Everything goes through per-ordinal resolution
(``tests/reference_search.py``), so one raw-key probe is charged per key
looked at and a block is fetched when the scan first steps into it.

The ``chain_*`` functions at the end are the next generation: the PR 16-20
block-granular chain (``search_run_hits -> _search_range -> _seek ->
key_position_bounds -> first_geq -> scan_visible`` per run scanned,
``_seek -> key_position_bounds -> first_geq -> locate -> sort_key_at`` per
batched key) exactly as it left ``src/`` when the fused kernels replaced
it.  Against those the kernels must agree to the probe -- mixed-snapshot
batches included, where the per-ordinal oracle only bounds them.
"""

import heapq
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.entry import (
    IndexEntry,
    SORT_KEY_TS_BYTES,
    begin_ts_of_sort_key,
)
from repro.core.query import (
    PointLookup,
    RangeScanQuery,
    _scan_boxes,
    _synopsis_overlaps,
    encode_point_key,
)
from repro.core.run import DataBlockView, IndexRun
from repro.core.search import UNBOUNDED, narrow_with_offset_array, ts_floor

from tests.reference_search import (
    chain_seek,
    key_position_bounds,
    reference_first_geq,
    view_at,
)
from tests.conftest import locate, view_sort_key


def run_may_contain(
    run: IndexRun, query: RangeScanQuery, use_synopsis: bool = True
) -> bool:
    """Synopsis check of section 7: a run is a candidate only if every bound
    column value overlaps the run's recorded range (``core.query`` exported
    it until the executor's scan and lookup inlined the check)."""
    return run.entry_count > 0 and _synopsis_overlaps(
        run, query.query_ts,
        _scan_boxes(run.definition, query) if use_synopsis else (),
    )


def reference_iter_sort_keys(
    run: IndexRun, start_ordinal: int = 0
) -> Iterator[Tuple[bytes, DataBlockView, int]]:
    """``(sort_key, block_view, in_block_index)`` in key order."""
    for ordinal in range(start_ordinal, run.entry_count):
        view, i = view_at(run, ordinal)
        yield view_sort_key(view, i), view, i


def _probe_fences(run: IndexRun, target: bytes, lo: int, hi: int) -> Tuple[int, int]:
    block_lo, block_hi = key_position_bounds(run, target)
    return max(lo, min(block_lo, hi)), min(hi, max(block_hi, lo))


def _search_start(
    run: IndexRun, lower_key: bytes, hash_value: Optional[int],
    use_offset_array: bool,
) -> int:
    if hash_value is not None and use_offset_array:
        lo, hi = narrow_with_offset_array(run, hash_value)
    else:
        lo, hi = 0, run.entry_count
    return reference_first_geq(run, lower_key, *_probe_fences(run, lower_key, lo, hi))


def reference_search_run_raw(
    run: IndexRun,
    lower_key: bytes,
    upper_exclusive: bytes,
    query_ts: int,
    hash_value: Optional[int] = None,
    use_offset_array: bool = True,
) -> Iterator[Tuple[bytes, IndexEntry]]:
    """Newest visible version per matching key, decoded as it is emitted."""
    if run.entry_count == 0:
        return
    start = _search_start(run, lower_key, hash_value, use_offset_array)
    bounded = upper_exclusive != UNBOUNDED
    previous_key = None
    emitted_previous = False
    for sort_key, view, i in reference_iter_sort_keys(run, start):
        key = sort_key[:-SORT_KEY_TS_BYTES]
        if bounded and key >= upper_exclusive:
            break
        if key != previous_key:
            previous_key = key
            emitted_previous = False
        if emitted_previous:
            continue  # an older version of a key we already answered
        if begin_ts_of_sort_key(sort_key) > query_ts:
            continue  # newer than the snapshot; keep looking within the key
        emitted_previous = True
        yield sort_key, view.entry(i)


def _first_visible(
    run: IndexRun, start: int, key: bytes, query_ts: int
) -> Optional[IndexEntry]:
    for sort_key, view, i in reference_iter_sort_keys(run, start):
        if sort_key[:-SORT_KEY_TS_BYTES] != key:
            return None
        if begin_ts_of_sort_key(sort_key) <= query_ts:
            return view.entry(i)
    return None


def reference_lookup_key_in_run(
    run: IndexRun,
    key: bytes,
    query_ts: int,
    hash_value: Optional[int] = None,
    use_offset_array: bool = True,
) -> Optional[IndexEntry]:
    if run.entry_count == 0:
        return None
    start = _search_start(run, key, hash_value, use_offset_array)
    return _first_visible(run, start, key, query_ts)


def reference_point_lookup(
    definition,
    runs: Sequence[IndexRun],
    lookup: PointLookup,
    use_synopsis: bool = True,
    use_offset_array: bool = True,
) -> Tuple[Optional[IndexEntry], List[IndexRun]]:
    """``QueryExecutor.point_lookup`` as it was before the exact-key kernel.

    The lookup as a degenerate range scan: a ``RangeScanQuery`` probe whose
    bounds coincide prunes the runs (newest first) into the candidates,
    each is searched by :func:`reference_lookup_key_in_run`, and the first
    visible match ends it.  Returns the entry and the runs searched -- the
    list the executor hands its ``on_query_done`` hook.
    """
    key, hash_value = encode_point_key(
        definition, lookup.equality_values, lookup.sort_values
    )
    probe = RangeScanQuery(
        lookup.equality_values,
        lookup.sort_values or None,
        lookup.sort_values or None,
        lookup.query_ts,
    )
    searched: List[IndexRun] = []
    for run in runs:
        if not run_may_contain(run, probe, use_synopsis):
            continue
        searched.append(run)
        entry = reference_lookup_key_in_run(
            run, key, lookup.query_ts, hash_value, use_offset_array
        )
        if entry is not None:
            return entry, searched
    return None, searched


def _batch_lookup_shared_ts(
    run: IndexRun,
    sorted_keys: Sequence[Tuple[bytes, int]],
    query_ts: int,
    use_offset_array: bool,
) -> List[Optional[IndexEntry]]:
    results: List[Optional[IndexEntry]] = [None] * len(sorted_keys)
    if run.entry_count == 0:
        return results
    floor = 0  # monotone cursor: keys are sorted, so never search backwards
    for i, (key, hash_value) in enumerate(sorted_keys):
        if use_offset_array and run.header.offset_array:
            lo, hi = narrow_with_offset_array(run, hash_value)
            if floor > lo:
                lo = floor
        else:
            lo, hi = floor, run.entry_count
        if lo >= hi:
            continue
        floor = reference_first_geq(run, key, *_probe_fences(run, key, lo, hi))
        results[i] = _first_visible(run, floor, key, query_ts)
    return results


def reference_batch_lookup_in_run(
    run: IndexRun,
    sorted_keys: Sequence[Tuple[bytes, int]],
    query_ts,
    use_offset_array: bool = True,
) -> List[Optional[IndexEntry]]:
    """The per-key batch kernel, mixed-timestamp re-entry included.

    ``query_ts`` is one snapshot or one per key; a batch whose snapshots
    differ is searched key by key, each key a batch of one (which is what
    ``QueryExecutor._batch_search_run`` did).
    """
    if isinstance(query_ts, int):
        query_ts = [query_ts] * len(sorted_keys)
    if len(set(query_ts)) <= 1:
        return _batch_lookup_shared_ts(
            run, sorted_keys, query_ts[0] if query_ts else 0, use_offset_array
        )
    return [
        _batch_lookup_shared_ts(run, [pair], ts, use_offset_array)[0]
        for pair, ts in zip(sorted_keys, query_ts)
    ]


def reference_merge_runs_iter(
    runs: Sequence[IndexRun],
    lower_key: bytes,
    upper_exclusive: bytes,
    query_ts: int,
    hash_value: Optional[int] = None,
    use_offset_array: bool = True,
) -> Iterator[IndexEntry]:
    """Priority-queue reconcile: one heap over the runs' entry streams."""

    def stream(run: IndexRun, recency: int):
        for sort_key, entry in reference_search_run_raw(
            run, lower_key, upper_exclusive, query_ts, hash_value,
            use_offset_array,
        ):
            yield sort_key, recency, entry

    streams = [stream(run, recency) for recency, run in enumerate(runs)]
    previous_key: Optional[bytes] = None
    for sort_key, _recency, entry in heapq.merge(*streams):
        key = sort_key[:-SORT_KEY_TS_BYTES]
        if key == previous_key:
            continue  # an older (or duplicate) version of an answered key
        previous_key = key
        yield entry


def reference_reconcile_set(
    runs: Sequence[IndexRun],
    lower_key: bytes,
    upper_exclusive: bytes,
    query_ts: int,
    hash_value: Optional[int] = None,
    use_offset_array: bool = True,
) -> List[IndexEntry]:
    """Set reconcile: run by run, the best version per key in a dict."""
    best: Dict[bytes, Tuple[int, IndexEntry]] = {}
    for run in runs:  # newest -> oldest
        for sort_key, entry in reference_search_run_raw(
            run, lower_key, upper_exclusive, query_ts, hash_value,
            use_offset_array,
        ):
            key = sort_key[:-SORT_KEY_TS_BYTES]
            begin_ts = begin_ts_of_sort_key(sort_key)
            current = best.get(key)
            if current is None or begin_ts > current[0]:
                best[key] = (begin_ts, entry)
    return [best[key][1] for key in sorted(best)]


# ---------------------------------------------------------------------------
# the block-granular chain of PRs 16-20
# ---------------------------------------------------------------------------


def chain_scan_visible(
    run: IndexRun,
    start_ordinal: int,
    upper_exclusive: bytes,
    floor: bytes,
    first_only: bool = False,
) -> Iterator[List[Tuple[bytes, DataBlockView, int]]]:
    """``IndexRun.scan_visible`` when it took a start ordinal: the forward
    scan alone, per-block hit lists."""
    if start_ordinal >= run.entry_count:
        return
    stats = run.hierarchy.stats.decode
    bounded = upper_exclusive != b""
    previous = None
    answered = False
    block_index, first = locate(run, start_ordinal)
    for bi in range(block_index, run.header.num_data_blocks):
        view = run.block_view(bi)
        payload, base, table = view.payload, view.base, view.table
        count = view.count
        hits = []
        done = False
        for i in range(first, count):
            at = base + table[i]
            sort_key = payload[at : at + table[count + i]]
            key = sort_key[:-SORT_KEY_TS_BYTES]
            if bounded and key >= upper_exclusive:
                done = True
                break
            if key != previous:
                previous = key
                answered = False
            elif answered:
                continue
            if sort_key[-SORT_KEY_TS_BYTES:] < floor:
                continue
            answered = True
            hits.append((sort_key, view, i))
            if first_only:
                done = True
                break
        stats.raw_key_probes += (i + 1 if done else count) - first
        if hits:
            yield hits
        if done:
            return
        first = 0


def _chain_search_range(
    run: IndexRun, hash_value: Optional[int], use_offset_array: bool
) -> Tuple[int, int]:
    if hash_value is not None and use_offset_array:
        return narrow_with_offset_array(run, hash_value)
    return 0, run.entry_count


def chain_search_run_hits(
    run: IndexRun,
    lower_key: bytes,
    upper_exclusive: bytes,
    query_ts: int,
    hash_value: Optional[int] = None,
    use_offset_array: bool = True,
) -> Iterator[List[Tuple[bytes, DataBlockView, int]]]:
    """``search.search_run_hits``: seek, then scan, per-block hit lists."""
    if run.entry_count == 0:
        return
    start = chain_seek(
        run, lower_key, *_chain_search_range(run, hash_value, use_offset_array)
    )
    yield from chain_scan_visible(
        run, start, upper_exclusive, ts_floor(query_ts)
    )


def chain_batch_lookup_in_run(
    run: IndexRun,
    sorted_keys: Sequence[Tuple[bytes, int]],
    query_ts: Union[int, Sequence[int]],
    use_offset_array: bool = True,
) -> List[Optional[IndexEntry]]:
    """``search.batch_lookup_in_run``: one pass, the cursor and the last
    probe's block window kept across keys, one snapshot or one per key."""
    results: List[Optional[IndexEntry]] = [None] * len(sorted_keys)
    count = run.entry_count
    if count == 0:
        return results
    floors = (
        repeat(ts_floor(query_ts)) if isinstance(query_ts, int)
        else map(ts_floor, query_ts)
    )
    bucketed = use_offset_array and bool(run.header.offset_array)
    window: list = []
    cursor = 0
    for n, ((key, hash_value), floor) in enumerate(zip(sorted_keys, floors)):
        lo, hi = cursor, count
        if bucketed:
            bucket_lo, hi = narrow_with_offset_array(run, hash_value)
            lo = max(lo, bucket_lo)
        if lo >= hi:
            continue
        cursor = chain_seek(run, key, lo, hi, window)
        if cursor >= count:
            continue
        if window and window[0] <= cursor < window[1]:
            view, i = window[2], cursor - window[0]
        else:
            block_index, i = locate(run, cursor)
            view = run.block_view(block_index)
        sort_key = view_sort_key(view, i)
        if sort_key[:-SORT_KEY_TS_BYTES] != key:
            continue
        if sort_key[-SORT_KEY_TS_BYTES:] >= floor:
            results[n] = view.entry(i)
            continue
        for hits in chain_scan_visible(
            run, cursor + 1, key + b"\x00", floor, first_only=True
        ):
            results[n] = hits[0][1].entry(hits[0][2])
    return results


def batch_lookup_in_run(
    run: IndexRun,
    sorted_keys: Sequence[Tuple[bytes, int]],
    query_ts: Union[int, Sequence[int]],
    use_offset_array: bool = True,
) -> List[Optional[IndexEntry]]:
    """The batch kernel ``IndexRun.batch_visible`` behind the arguments
    the replaced ``search.batch_lookup_in_run`` took."""
    keys = [key for key, _ in sorted_keys]
    buckets = None
    if use_offset_array and run.definition.has_hash_column:
        shift = 64 - run.definition.hash_bits
        buckets = [hash_value >> shift for _, hash_value in sorted_keys]
    if isinstance(query_ts, int):
        query_ts = [query_ts] * len(keys)
    found: List = [None] * len(keys)
    run.batch_visible(
        keys, buckets, list(map(ts_floor, query_ts)), range(len(keys)), found
    )
    return [hit and hit[0].entry(hit[1]) for hit in found]  # (view, i) hits
