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
operations"), visibility is a compare of the raw ``~beginTS`` suffix
against the snapshot's, and an :class:`IndexEntry` is materialized only
for entries actually returned.  This module decides *where* to search
(offset array, block-index fences, the monotone cursor of a sorted batch);
the loops are the run-level kernels :meth:`IndexRun.first_geq` (binary
search) and :meth:`IndexRun.scan_visible` (forward scan), which every
range scan and batched lookup goes through, and
:meth:`IndexRun.lookup_visible`, the two fused for one exact key, which
every point lookup goes through.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.encoding import UINT64_MAX, encode_uint64, high_bits
from repro.core.entry import IndexEntry, SORT_KEY_TS_BYTES
from repro.core.run import DataBlockView, IndexRun

# Sentinel: an empty upper bound means "+infinity" (scan to end of run).
UNBOUNDED = b""

# One scan hit: ``(sort_key, block_view, in_block_index)``.
Hit = Tuple[bytes, DataBlockView, int]


def ts_floor(query_ts: int) -> bytes:
    """Smallest raw ``~beginTS`` suffix visible at ``query_ts``: beginTS
    is stored descending, so ``beginTS <= query_ts`` is one bytes compare,
    ``suffix >= ts_floor(query_ts)``.  Out-of-domain snapshots saturate."""
    if query_ts >= UINT64_MAX:
        return b""
    if query_ts < 0:
        return b"\xff" * (SORT_KEY_TS_BYTES + 1)
    return encode_uint64(UINT64_MAX - query_ts)


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


def _seek(
    run: IndexRun, target: bytes, lo: int, hi: int, window: Optional[list] = None
) -> int:
    """``first_geq(target)`` over ``[lo, hi)``, fenced by the block index.

    ``key_position_bounds`` brackets the run-global ``first_geq(target)``
    from header metadata alone, so probes never fetch blocks outside the
    target's key range.  The clamped intersection lands on the ordinal a
    search over all of ``[lo, hi)`` would -- also when bracket and range
    are disjoint (the nearer original fence, never a position before the
    global ``first_geq``, which would leak entries into the scan).
    """
    block_lo, block_hi = run.key_position_bounds(target)
    return run.first_geq(
        target, max(lo, min(block_lo, hi)), min(hi, max(block_hi, lo)), window
    )


def _search_range(
    run: IndexRun, hash_value: Optional[int], use_offset_array: bool
) -> Tuple[int, int]:
    """Where a search starts out: the hash bucket, or the whole run."""
    if hash_value is not None and use_offset_array:
        return narrow_with_offset_array(run, hash_value)
    return 0, run.entry_count


def search_run_hits(
    run: IndexRun,
    lower_key: bytes,
    upper_exclusive: bytes,
    query_ts: int,
    hash_value: Optional[int] = None,
    use_offset_array: bool = True,
) -> Iterator[List[Hit]]:
    """:meth:`IndexRun.scan_visible`'s per-block hit lists for a key range.

    Lazy: no probe and no block fetch before the first list is asked for.

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
    if run.entry_count == 0:
        return
    start = _seek(
        run, lower_key, *_search_range(run, hash_value, use_offset_array)
    )
    yield from run.scan_visible(start, upper_exclusive, ts_floor(query_ts))


def search_run(
    run: IndexRun,
    lower_key: bytes,
    upper_exclusive: bytes,
    query_ts: int,
    hash_value: Optional[int] = None,
    use_offset_array: bool = True,
) -> Iterator[IndexEntry]:
    """:func:`search_run_hits`, flattened and decoded entry by entry."""
    for hits in search_run_hits(
        run, lower_key, upper_exclusive, query_ts, hash_value, use_offset_array
    ):
        for _sort_key, view, i in hits:
            yield view.entry(i)


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
    data-block I/O; the search itself is :meth:`IndexRun.lookup_visible`.
    """
    if run.entry_count == 0 or (use_bloom and not run.may_contain_key(key)):
        return None
    return run.lookup_visible(
        key, ts_floor(query_ts),
        *_search_range(run, hash_value, use_offset_array),
    )


def batch_lookup_in_run(
    run: IndexRun,
    sorted_keys: Sequence[Tuple[bytes, int]],
    query_ts: Union[int, Sequence[int]],
    use_offset_array: bool = True,
    use_bloom: bool = True,
) -> List[Optional[IndexEntry]]:
    """Look up a pre-sorted key batch with one sequential pass over the run.

    Paper section 7.2: "The sorted input keys are searched against each run
    sequentially ... This guarantees that each run is accessed sequentially
    and only once."  Keys must be sorted ascending by their encoded bytes;
    each element is ``(key_bytes, hash_value)``.  ``query_ts`` is the
    batch's snapshot, or one snapshot per key.

    Each key consults the run's Bloom filter (when present) before any
    block is fetched.  The monotone cursor narrows but never widens the
    offset-array bucket: keys are sorted, so when the cursor has moved past
    a key's entire bucket the key cannot exist in this run and is skipped
    outright -- the bucket's upper fence is kept rather than falling back
    to a full-run search.  The last probe's block window is held across
    keys; a key whose first entry settles it costs one probe, no scan.

    A batch mixing snapshots is the same single pass: against searching
    each key on its own every binary search runs over a sub-range, so no
    other block is touched and the probes are at most one more per key
    (where the midpoints of the narrower range fall less luckily).
    """
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
    cursor = 0  # monotone: keys are sorted, so never search backwards
    for n, ((key, hash_value), floor) in enumerate(zip(sorted_keys, floors)):
        if use_bloom and not run.may_contain_key(key):
            continue  # definite miss: zero probes, zero block fetches
        lo, hi = cursor, count
        if bucketed:
            bucket_lo, hi = narrow_with_offset_array(run, hash_value)
            lo = max(lo, bucket_lo)
        if lo >= hi:
            # Matching entries can only live inside the key's bucket, and
            # the cursor has already moved past it (or the bucket is
            # empty): the key is absent from this run.
            continue
        cursor = _seek(run, key, lo, hi, window)
        if cursor >= count:
            continue
        if window and window[0] <= cursor < window[1]:
            view, i = window[2], cursor - window[0]
        else:  # no probe was needed, or the answer opens the next block
            block_index, i = run.locate(cursor)
            view = run.block_view(block_index)
        sort_key = view.sort_key_at(i)
        if sort_key[:-SORT_KEY_TS_BYTES] != key:
            continue
        if sort_key[-SORT_KEY_TS_BYTES:] >= floor:
            results[n] = view.entry(i)
            continue
        # The newest version is newer than the snapshot: scan on through
        # the key's older ones.
        for hits in run.scan_visible(
            cursor + 1, key + b"\x00", floor, first_only=True
        ):
            results[n] = hits[0][1].entry(hits[0][2])
    return results


__all__ = [
    "UNBOUNDED",
    "batch_lookup_in_run",
    "lookup_key_in_run",
    "narrow_with_offset_array",
    "search_run",
    "search_run_hits",
    "ts_floor",
]
