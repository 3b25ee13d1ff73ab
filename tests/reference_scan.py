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
"""

import heapq
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.entry import (
    IndexEntry,
    SORT_KEY_TS_BYTES,
    begin_ts_of_sort_key,
)
from repro.core.query import (
    PointLookup,
    RangeScanQuery,
    encode_point_key,
    run_may_contain,
)
from repro.core.run import DataBlockView, IndexRun
from repro.core.search import UNBOUNDED, narrow_with_offset_array

from tests.reference_search import reference_first_geq, view_at


def reference_iter_sort_keys(
    run: IndexRun, start_ordinal: int = 0
) -> Iterator[Tuple[bytes, DataBlockView, int]]:
    """``(sort_key, block_view, in_block_index)`` in key order."""
    for ordinal in range(start_ordinal, run.entry_count):
        view, i = view_at(run, ordinal)
        yield view.sort_key_at(i), view, i


def _probe_fences(run: IndexRun, target: bytes, lo: int, hi: int) -> Tuple[int, int]:
    block_lo, block_hi = run.key_position_bounds(target)
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
    use_bloom: bool = True,
) -> Optional[IndexEntry]:
    if run.entry_count == 0 or (use_bloom and not run.may_contain_key(key)):
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
    use_bloom: bool,
) -> List[Optional[IndexEntry]]:
    results: List[Optional[IndexEntry]] = [None] * len(sorted_keys)
    if run.entry_count == 0:
        return results
    floor = 0  # monotone cursor: keys are sorted, so never search backwards
    for i, (key, hash_value) in enumerate(sorted_keys):
        if use_bloom and not run.may_contain_key(key):
            continue
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
    use_bloom: bool = True,
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
            run, sorted_keys, query_ts[0] if query_ts else 0,
            use_offset_array, use_bloom,
        )
    return [
        _batch_lookup_shared_ts(run, [pair], ts, use_offset_array, use_bloom)[0]
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
