"""Single-run search (paper section 7.1.1).

A run is a sorted table, so search is: narrow the ordinal range with the
offset array (when the index has a hash column) and the header's block
index, binary-search the concatenated lower bound, then iterate forward
until the concatenated upper bound, filtering on ``beginTS <= queryTS`` and
keeping only the newest visible version of each key (entries are sorted by
key then descending beginTS, so the first visible entry per key is the
answer).

The hot path is **zero decode**: binary-search probes and the forward scan
compare raw sort-key slices served straight out of v2 data-block payloads
(section 4.2: keys "can be compared by simply using memory compare
operations"), and an :class:`IndexEntry` is materialized only for entries
actually emitted.  This module decides *where* to search (offset array,
block-index fences, visibility, newest version per key); the probe and
scan loops themselves are the run-level kernels
:meth:`IndexRun.first_geq` and :meth:`IndexRun.iter_sort_keys`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.encoding import high_bits
from repro.core.entry import (
    IndexEntry,
    SORT_KEY_TS_BYTES,
    begin_ts_of_sort_key,
)
from repro.core.run import IndexRun

# Sentinel: an empty upper bound means "+infinity" (scan to end of run).
UNBOUNDED = b""


def narrow_with_offset_array(
    run: IndexRun, hash_value: int
) -> Tuple[int, int]:
    """Initial ordinal range for a hash bucket (paper Figure 2b).

    ``offset[b]`` is the first ordinal whose hash high-bits are >= b;
    the bucket's entries live in ``[offset[b], offset[b+1])`` with the run's
    entry count as the final fence.
    """
    offsets = run.header.offset_array
    if not offsets:
        return 0, run.entry_count
    bucket = high_bits(hash_value, run.definition.hash_bits)
    lo = offsets[bucket]
    hi = offsets[bucket + 1] if bucket + 1 < len(offsets) else run.entry_count
    return lo, hi


def _probe_fences(
    run: IndexRun,
    target: bytes,
    lo: int,
    hi: int,
) -> Tuple[int, int]:
    """Intersect a candidate range with the header block index.

    ``key_position_bounds`` brackets where the run-global
    ``first_geq(target)`` can fall using only header metadata, so
    binary-search probes never fetch data blocks outside the target's key
    range.  The clamped intersection is chosen so that a binary search over
    the returned ``[L, H)`` lands on exactly the same ordinal a search over
    the original ``[lo, hi)`` would -- including when the block bracket and
    the candidate range are disjoint (the result then degenerates to the
    nearer original fence, never to a position before the global
    ``first_geq``, which would leak out-of-range entries into the scan).
    """
    block_lo, block_hi = run.key_position_bounds(target)
    narrowed_lo = max(lo, min(block_lo, hi))
    narrowed_hi = min(hi, max(block_hi, lo))
    return narrowed_lo, narrowed_hi


def search_run(
    run: IndexRun,
    lower_key: bytes,
    upper_exclusive: bytes,
    query_ts: int,
    hash_value: Optional[int] = None,
    use_offset_array: bool = True,
) -> Iterator[IndexEntry]:
    """Yield the newest visible version of each matching key in one run.

    Parameters
    ----------
    lower_key:
        Inclusive lower bound over ``key_bytes`` (hash | eq | sort prefix).
    upper_exclusive:
        Exclusive upper bound, or :data:`UNBOUNDED` for "scan to run end".
    query_ts:
        Snapshot timestamp; versions with ``beginTS > query_ts`` are
        invisible.
    hash_value:
        When provided (equality query), the offset array narrows the
        initial binary-search range.
    use_offset_array:
        Ablation hook -- benchmarks disable it to measure its benefit.
    """
    for _sort_key, entry in search_run_raw(
        run, lower_key, upper_exclusive, query_ts, hash_value, use_offset_array
    ):
        yield entry


def _search_start(
    run: IndexRun,
    lower_key: bytes,
    hash_value: Optional[int],
    use_offset_array: bool,
) -> int:
    """Ordinal of the first entry whose sort key is ``>= lower_key``."""
    if hash_value is not None and use_offset_array:
        lo, hi = narrow_with_offset_array(run, hash_value)
    else:
        lo, hi = 0, run.entry_count
    return run.first_geq(lower_key, *_probe_fences(run, lower_key, lo, hi))


def search_run_raw(
    run: IndexRun,
    lower_key: bytes,
    upper_exclusive: bytes,
    query_ts: int,
    hash_value: Optional[int] = None,
    use_offset_array: bool = True,
) -> Iterator[Tuple[bytes, IndexEntry]]:
    """Like :func:`search_run` but yields ``(sort_key, entry)`` pairs.

    The raw sort key rides along so multi-run reconciliation
    (:mod:`repro.core.query`) can order and deduplicate streams without
    re-encoding keys from decoded entries.
    """
    if run.entry_count == 0:
        return
    start = _search_start(run, lower_key, hash_value, use_offset_array)
    bounded = upper_exclusive != UNBOUNDED
    previous_key = None
    emitted_previous = False
    for sort_key, view, i in run.iter_sort_keys(start):
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
    """Newest visible version of exactly ``key``, scanning from ``start``.

    ``start`` is ``first_geq(key)``; fully-bound keys match exactly or not
    at all, so the scan ends at the first entry of another key.
    """
    for sort_key, view, i in run.iter_sort_keys(start):
        if sort_key[:-SORT_KEY_TS_BYTES] != key:
            return None
        if begin_ts_of_sort_key(sort_key) <= query_ts:
            return view.entry(i)
    return None


def lookup_key_in_run(
    run: IndexRun,
    key: bytes,
    query_ts: int,
    hash_value: Optional[int] = None,
    use_offset_array: bool = True,
    use_bloom: bool = True,
) -> Optional[IndexEntry]:
    """Point lookup: the newest visible version of one exact key, if any.

    Equivalent to a range scan whose lower and upper sort-column bounds
    coincide (paper section 7.2).  The run's Bloom filter (when present)
    is consulted *before* any block fetch, so definite misses cost zero
    data-block I/O.
    """
    if run.entry_count == 0 or (use_bloom and not run.may_contain_key(key)):
        return None
    start = _search_start(run, key, hash_value, use_offset_array)
    return _first_visible(run, start, key, query_ts)


def batch_lookup_in_run(
    run: IndexRun,
    sorted_keys: Sequence[Tuple[bytes, int]],
    query_ts: int,
    use_offset_array: bool = True,
    use_bloom: bool = True,
) -> List[Optional[IndexEntry]]:
    """Look up a pre-sorted key batch with one sequential pass over the run.

    Paper section 7.2: "The sorted input keys are searched against each run
    sequentially ... This guarantees that each run is accessed sequentially
    and only once."  Keys must be sorted ascending by their encoded bytes;
    each element is ``(key_bytes, hash_value)``.

    Each key consults the run's Bloom filter (when present) before any
    block is fetched.  The monotone cursor narrows but never widens the
    offset-array bucket: keys are sorted, so when the cursor has moved past
    a key's entire bucket the key cannot exist in this run and is skipped
    outright -- the bucket's upper fence is kept rather than falling back
    to a full-run search.
    """
    results: List[Optional[IndexEntry]] = [None] * len(sorted_keys)
    if run.entry_count == 0:
        return results
    floor = 0  # monotone cursor: keys are sorted, so never search backwards
    for i, (key, hash_value) in enumerate(sorted_keys):
        if use_bloom and not run.may_contain_key(key):
            continue  # definite miss: zero probes, zero block fetches
        if use_offset_array and run.header.offset_array:
            lo, hi = narrow_with_offset_array(run, hash_value)
            if floor > lo:
                lo = floor
        else:
            lo, hi = floor, run.entry_count
        if lo >= hi:
            # Matching entries can only live inside the key's bucket, and
            # the monotone cursor has already moved past it (or the bucket
            # is empty): the key is absent from this run.  Keeping the
            # bucket's upper fence here -- instead of widening to a
            # full-run search -- is what makes the sequential pass stay
            # sequential.
            continue
        floor = run.first_geq(key, *_probe_fences(run, key, lo, hi))
        results[i] = _first_visible(run, floor, key, query_ts)
    return results


__all__ = [
    "UNBOUNDED",
    "batch_lookup_in_run",
    "lookup_key_in_run",
    "narrow_with_offset_array",
    "search_run",
    "search_run_raw",
]
