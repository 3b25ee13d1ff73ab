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
for entries actually returned.  All of that -- fences, binary search and
forward scan -- is one frame per run searched, a kernel on
:class:`IndexRun`: ``scan_visible`` for a key range, ``lookup_visible``
for one exact key, ``batch_visible`` for a sorted key batch.  This module
holds what a caller works out before entering one -- the snapshot as a raw
floor (:func:`ts_floor`), the key's offset-array bucket
(:func:`narrow_with_offset_array`) -- and the run-at-a-time wrappers the
LSM baseline searches through.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.encoding import UINT64_MAX, high_bits
from repro.core.entry import IndexEntry, SORT_KEY_TS_BYTES
from repro.core.run import IndexRun

# Sentinel: an empty upper bound means "+infinity" (scan to end of run).
UNBOUNDED = b""


def ts_floor(query_ts: int) -> bytes:
    """Smallest raw ``~beginTS`` suffix visible at ``query_ts``: beginTS
    is stored descending, so ``beginTS <= query_ts`` is one bytes compare,
    ``suffix >= ts_floor(query_ts)``.  Out-of-domain snapshots saturate."""
    if query_ts >= UINT64_MAX:
        return b""
    if query_ts < 0:
        return b"\xff" * (SORT_KEY_TS_BYTES + 1)
    return (UINT64_MAX - query_ts).to_bytes(SORT_KEY_TS_BYTES, "big")


def narrow_with_offset_array(
    run: IndexRun, hash_value: Optional[int]
) -> Tuple[int, int]:
    """Initial ordinal range for a hash bucket (paper Figure 2b).

    ``offset[b]`` is the first ordinal whose hash high-bits are >= b;
    the bucket's entries live in ``[offset[b], offset[b+1])`` with the run's
    entry count as the final fence.  Without a hash (or an offset array)
    it is the whole run.
    """
    fences = run.bucket_fences
    if hash_value is None or not fences:
        return 0, run.entry_count
    bucket = high_bits(hash_value, run.definition.hash_bits)
    return fences[bucket], fences[bucket + 1]


def search_run(
    run: IndexRun, lower_key: bytes, upper_exclusive: bytes, query_ts: int
) -> List[IndexEntry]:
    """:meth:`IndexRun.scan_visible` over a key range of the whole run,
    every hit decoded.

    ``lower_key`` is the inclusive lower bound over ``key_bytes`` (hash |
    eq | sort prefix), ``upper_exclusive`` the exclusive upper bound or
    :data:`UNBOUNDED`; versions with ``beginTS > query_ts`` are invisible.
    """
    return [view.entry(i) for _, view, i in run.scan_visible(
        lower_key, 0, run.entry_count, upper_exclusive, ts_floor(query_ts)
    )]


def lookup_key_in_run(
    run: IndexRun, key: bytes, query_ts: int
) -> Optional[IndexEntry]:
    """Point lookup: the newest visible version of one exact key, if any.

    Equivalent to a range scan whose lower and upper sort-column bounds
    coincide (paper section 7.2); the search itself is
    :meth:`IndexRun.lookup_visible`.
    """
    if run.entry_count == 0:
        return None
    return run.lookup_visible(key, ts_floor(query_ts), 0, run.entry_count)


__all__ = [
    "UNBOUNDED",
    "lookup_key_in_run",
    "narrow_with_offset_array",
    "search_run",
    "ts_floor",
]
