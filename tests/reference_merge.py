"""The per-entry maintenance pipeline, kept as the oracle for the kernels.

Until the block-and-column kernel (``IndexRun.block_columns`` ->
``merge_blocks`` -> ``RunBuilder.build_from_columns``) a merge or an
evolve pushed every entry through five generator hops -- ``iter_raw`` ->
a per-run ``stream`` -> ``heapq.merge`` -> dedupe / retention ->
``spliced_blobs`` -- and then through the builder's per-entry loop.  Those
loops live on here, out of ``src/``, as the reference the kernel is
compared against: same pairs, same counters, the same blocks fetched in
the same order *at the same count of consumed pairs*, and runs that are
the same bytes.
"""

import heapq
from itertools import accumulate
from typing import (
    Callable, Collection, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.core.builder import RunBuilder
from repro.core.entry import (
    RID,
    RID_BYTES,
    SORT_KEY_TS_BYTES,
    IndexEntry,
    begin_ts_of_sort_key,
)
from repro.core.run import (
    DataBlockMeta,
    DataBlockView,
    IndexRun,
    RunHeader,
    Synopsis,
    block_checksum,
    pack_data_block,
)
from repro.storage.metrics import ReadIntent
from tests.conftest import locate, view_sort_key

Pair = Tuple[bytes, bytes]  # (sort_key, entry_blob)


def entry_blob_at(view: DataBlockView, index: int) -> bytes:
    """Entry ``index``'s serialized blob, verbatim, charged as one blob
    copy (the per-entry accessor the merge copy path once had)."""
    if view._stats is not None:
        view._stats.blob_copies += 1
    end = view.base + view.table[index + 1] if index + 1 < view.count else len(view.payload)
    return view.payload[view.base + view.table[index] : end]


def maintenance_view(run: IndexRun, block_index: int) -> DataBlockView:
    """The view :meth:`IndexRun.block_columns` reads: one the handle
    memoized, or a ``ReadIntent.MAINTENANCE`` fetch left unmemoized."""
    view = run._views.get(block_index)
    if view is None:
        block = run.hierarchy.read(
            run.data_block_id(block_index), intent=ReadIntent.MAINTENANCE
        )
        view = DataBlockView(run.definition, block.payload, run.hierarchy.stats.decode)
    return view


def reference_iter_raw(run: IndexRun, start_ordinal: int = 0) -> Iterator[Pair]:
    """``(sort_key, entry_blob)`` pairs in sort-key order, entry by entry:
    one raw-key probe and one blob copy charged per entry, a block fetched
    (as a maintenance stream) when the stream first steps into it."""
    if start_ordinal >= run.entry_count:
        return
    block_index, first = locate(run, start_ordinal)
    for bi in range(block_index, run.header.num_data_blocks):
        view = maintenance_view(run, bi)
        for i in range(first, view.count):
            yield view_sort_key(view, i), entry_blob_at(view, i)
        first = 0


def reference_merge_blobs(
    runs_newest_first: Sequence[IndexRun],
    retention_ts: Optional[int] = None,
    dead_keys: Collection[bytes] = (),
) -> Iterator[Pair]:
    """The heap K-way merge: ``(sort_key, recency, blob)`` triples through
    ``heapq.merge``, identical sort keys deduplicated in favour of the
    newest run, the retention filter and the dead-key repair per entry."""

    def stream(run: IndexRun, recency: int):
        # recency is bound per stream so duplicate sort keys across runs
        # tie-break on run recency instead of comparing raw blobs.
        for sort_key, blob in reference_iter_raw(run):
            yield sort_key, recency, blob

    streams = [
        stream(run, recency) for recency, run in enumerate(runs_newest_first)
    ]
    previous_sort_key: Optional[bytes] = None
    previous_user_key: Optional[bytes] = None
    retained_at_horizon = False
    for sort_key, _recency, blob in heapq.merge(*streams):
        if sort_key == previous_sort_key:
            continue
        previous_sort_key = sort_key
        if retention_ts is not None:
            user_key = sort_key[:-SORT_KEY_TS_BYTES]
            if user_key != previous_user_key:
                previous_user_key = user_key
                retained_at_horizon = False
            if begin_ts_of_sort_key(sort_key) <= retention_ts:
                # Versions arrive newest-first per key: the first one at or
                # below the horizon is the version visible at retention_ts;
                # older ones for this key are unreachable, and so is every
                # one of a dead key.
                if retained_at_horizon or user_key in dead_keys:
                    continue
                retained_at_horizon = True
        yield sort_key, blob


def decode_pairs(definition, pairs: Iterable[Pair]) -> List[IndexEntry]:
    """The decoded-entry view of a pair stream (kernel's or oracle's)."""
    return [IndexEntry.from_bytes(definition, blob)[0] for _key, blob in pairs]


def reference_spliced_blobs(
    sources: Sequence[IndexRun],
    new_rid_of: Callable[[int], Optional[RID]],
    counts: dict,
) -> Iterator[Pair]:
    """The streaming evolve's per-entry splice over the heap merge."""
    decode_stats = sources[0].hierarchy.stats.decode if sources else None
    for sort_key, blob in reference_merge_blobs(sources):
        new_rid = new_rid_of(begin_ts_of_sort_key(sort_key))
        if new_rid is None:
            counts["skipped"] += 1
            continue
        counts["spliced"] += 1
        decode_stats.evolve_blob_splices += 1
        yield sort_key, blob[: len(blob) - RID_BYTES] + new_rid.to_bytes()


def reference_build_from_blobs(
    builder: RunBuilder,
    run_id: str,
    blob_pairs: Iterable[Pair],
    synopsis: Synopsis,
    zone,
    level: int,
    min_groomed_id: int,
    max_groomed_id: int,
    persisted: bool = True,
    ancestor_run_ids: Sequence[str] = (),
) -> IndexRun:
    """The builder's per-entry loop: one pass that seals a block whenever
    the next blob would pass ``data_block_bytes``, counts the offset-array
    buckets and tracks the beginTS range entry by entry.  Writes through
    ``builder``'s own block writer, so crash sites and tiers are shared."""
    blob_pairs = list(blob_pairs)
    definition = builder.definition
    limit = builder.data_block_bytes
    counts = [0] * definition.offset_array_size
    shift = 64 - definition.hash_bits
    block_metas: List[DataBlockMeta] = []
    block_payloads: List[bytes] = []
    offsets: List[int] = []
    sort_key_lengths: List[int] = []
    blobs: List[bytes] = []

    def seal_block() -> None:
        payload = pack_data_block(offsets, sort_key_lengths, blobs)
        block_metas.append(
            DataBlockMeta(
                entry_count=len(blobs),
                first_sort_key=blobs[0][: sort_key_lengths[0]],
                size_bytes=len(payload),
                checksum=block_checksum(payload),
            )
        )
        block_payloads.append(payload)

    position = 0
    newest = oldest = (
        blob_pairs[0][0][-SORT_KEY_TS_BYTES:] if blob_pairs else b""
    )
    for sort_key, blob in blob_pairs:
        blob_len = len(blob)
        if position and position + blob_len > limit:
            seal_block()
            offsets, sort_key_lengths, blobs = [], [], []
            position = 0
        offsets.append(position)
        sort_key_lengths.append(len(sort_key))
        blobs.append(blob)
        position += blob_len
        if counts:
            counts[int.from_bytes(sort_key[:8], "big") >> shift] += 1
        suffix = sort_key[-SORT_KEY_TS_BYTES:]
        if suffix < newest:
            newest = suffix
        elif suffix > oldest:
            oldest = suffix
    if blobs:
        seal_block()
    header = RunHeader(
        run_id=run_id,
        zone=zone,
        level=level,
        min_groomed_id=min_groomed_id,
        max_groomed_id=max_groomed_id,
        entry_count=len(blob_pairs),
        synopsis=synopsis,
        # offset[b] = ordinal of the first entry with hash high-bits >= b.
        offset_array=tuple(accumulate(counts, initial=0))[:-1],
        block_meta=tuple(block_metas),
        min_begin_ts=begin_ts_of_sort_key(oldest) if blob_pairs else 0,
        max_begin_ts=begin_ts_of_sort_key(newest) if blob_pairs else 0,
        persisted=persisted,
        ancestor_run_ids=tuple(ancestor_run_ids),
    )
    builder._write_blocks(header, block_payloads, True)
    return IndexRun(definition, header, builder.hierarchy)
