"""Shared fixtures and helpers for the Umzi reproduction test suite."""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import pytest


def pytest_configure(config):
    # CI installs pytest-timeout and enforces @pytest.mark.timeout as a
    # hard per-test limit (the concurrency stress test relies on it so a
    # livelock cannot hang tier-1).  Locally the plugin may be absent;
    # register the marker so the suite stays warning-free either way.
    config.addinivalue_line(
        "markers",
        "timeout(seconds): hard per-test time limit (pytest-timeout in CI)",
    )
    config.addinivalue_line("markers", "slow: long-running soak tests")

from repro.core.definition import (
    ColumnSpec,
    ColumnType,
    IndexDefinition,
    i1_definition,
    i2_definition,
    i3_definition,
)
from repro.core.encoding import (
    EncodingError,
    KeyValue,
    encode_bytes,
    encode_float64,
    encode_int64,
    encode_str,
)
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.merge import merge_blocks
from repro.core.search import narrow_with_offset_array, ts_floor
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.ssd import SSDTier
from repro.storage.metrics import IntentStats, IOStats


@pytest.fixture
def i1() -> IndexDefinition:
    return i1_definition()

@pytest.fixture
def i2() -> IndexDefinition:
    return i2_definition()

@pytest.fixture
def i3() -> IndexDefinition:
    return i3_definition()


@pytest.fixture
def hierarchy() -> StorageHierarchy:
    return StorageHierarchy()


@pytest.fixture
def small_levels() -> LevelConfig:
    """Small K/T so merges trigger quickly in tests."""
    return LevelConfig(
        groomed_levels=3,
        post_groomed_levels=2,
        max_runs_per_level=2,
        size_ratio=2,
    )


@pytest.fixture
def index(i1: IndexDefinition, small_levels: LevelConfig) -> UmziIndex:
    return UmziIndex(i1, config=UmziConfig(name="t", levels=small_levels))


def make_entry(
    definition: IndexDefinition,
    k: int,
    begin_ts: int,
    zone: Zone = Zone.GROOMED,
    block_id: int = 0,
    offset: int = 0,
) -> IndexEntry:
    """One entry for abstract key ``k`` under any of the I1/I2/I3 shapes."""
    n_eq = len(definition.equality_columns)
    n_sort = len(definition.sort_columns)
    eq = tuple(k + i for i in range(n_eq))
    sort = tuple(k + i for i in range(n_sort))
    incl = tuple(k * 10 + i for i in range(len(definition.included_columns)))
    return IndexEntry.create(
        definition, eq, sort, incl, begin_ts, RID(zone, block_id, offset)
    )


def make_entries(
    definition: IndexDefinition,
    keys: Sequence[int],
    begin_ts_start: int = 1,
    zone: Zone = Zone.GROOMED,
    block_id: int = 0,
) -> List[IndexEntry]:
    """Entries for ``keys`` with consecutive beginTS values."""
    return [
        make_entry(definition, k, begin_ts_start + i, zone, block_id, i)
        for i, k in enumerate(keys)
    ]


def rid_map(entries: Sequence[IndexEntry]):
    """A streaming evolve's ``new_rid_of``: each of ``entries``' beginTS to
    that entry's (post-groomed) RID, ``None`` for every other version."""
    return {entry.begin_ts: entry.rid for entry in entries}.get


def locate(run, ordinal: int) -> Tuple[int, int]:
    """Map a global entry ordinal of ``run`` to ``(block_index,
    in_block_index)``."""
    if not 0 <= ordinal < run.entry_count:
        raise IndexError(f"ordinal {ordinal} out of range 0..{run.entry_count}")
    block_index = bisect_right(run._cum, ordinal) - 1
    return block_index, ordinal - run._cum[block_index]


def entry_at(run, ordinal: int) -> IndexEntry:
    """The decoded entry at global ``ordinal`` of ``run``."""
    block_index, in_block = locate(run, ordinal)
    return run.block_view(block_index).entry(in_block)


def view_sort_key(view, index: int) -> bytes:
    """Raw sort key of entry ``index`` of a ``DataBlockView`` -- a payload
    slice, counted as one raw key probe."""
    if view._stats is not None:
        view._stats.raw_key_probes += 1
    start = view.base + view.table[index]
    return view.payload[start : start + view.table[view.count + index]]


def encode_value(value: KeyValue) -> bytes:
    """Encode one scalar by its runtime type (a ``bool`` as an int64)."""
    if isinstance(value, (bool, int)):
        return encode_int64(int(value))
    if isinstance(value, float):
        return encode_float64(value)
    if isinstance(value, str):
        return encode_str(value)
    if isinstance(value, bytes):
        return encode_bytes(value)
    raise EncodingError(f"unsupported key type {type(value).__name__}")


def encode_composite(values: Sequence[KeyValue]) -> bytes:
    """Concatenated value encodings; composite order == tuple order."""
    return b"".join(encode_value(v) for v in values)


def intent_snapshot(stats: IOStats) -> Dict[str, IntentStats]:
    """Both intents' counters, copied, keyed by intent value."""
    return {intent.value: row.snapshot() for intent, row in stats.intents.items()}


def latest_checkpoint(journal):
    """The journal's newest checkpoint that verifies, or ``None``."""
    return next(iter(journal.valid_checkpoints()), None)


def live_version_count(lifecycle) -> int:
    """Length of the lifecycle's live version chain: 1 (the current node)
    plus the older versions in-flight queries still pin."""
    with lifecycle._locked:
        return len(lifecycle._versions)


def is_pinned(lifecycle, run_id: str) -> bool:
    return bool(lifecycle.pinned_among((run_id,)))


def map_refs(registry, epoch: int) -> int:
    """Pins a routing-map registry holds on ``epoch``."""
    return registry._refs.get(epoch, 0)


def unlink(run_list, run_id: str) -> None:
    """Unlink the run ``run_id`` from ``run_list`` in one publication."""
    (_unlinked,) = run_list.remove_where(lambda run: run.run_id == run_id)


def needs_merge(index) -> bool:
    return any(
        index.merger.level_needing_merge(zone) is not None
        for zone in (Zone.GROOMED, Zone.POST_GROOMED)
    )


def pending_psns(shard) -> int:
    """Post-groomed PSNs some index of ``shard`` has not evolved yet."""
    return max(0, shard.post_groomer.max_psn - shard.indexes.min_indexed_psn())


def scan_run(
    run, lower_key: bytes, upper_exclusive: bytes, query_ts: int,
    hash_value: Optional[int] = None, use_offset_array: bool = True,
) -> List[IndexEntry]:
    """``IndexRun.scan_visible`` over a key range from ``hash_value``'s
    offset-array bucket (the whole run without a hash, or with
    ``use_offset_array`` off), every hit decoded."""
    lo, hi = narrow_with_offset_array(run, hash_value if use_offset_array else None)
    return [view.entry(i) for _, view, i in run.scan_visible(
        lower_key, lo, hi, upper_exclusive, ts_floor(query_ts)
    )]


def lookup_run(
    run, key: bytes, query_ts: int, hash_value: Optional[int] = None,
    use_offset_array: bool = True,
) -> Optional[IndexEntry]:
    """``IndexRun.lookup_visible`` for one exact key, from
    ``hash_value``'s offset-array bucket as :func:`scan_run` narrows."""
    if run.entry_count == 0:
        return None
    lo, hi = narrow_with_offset_array(run, hash_value if use_offset_array else None)
    return run.lookup_visible(key, ts_floor(query_ts), lo, hi)


def merged_blob_pairs(runs, retention_ts: Optional[int] = None, dead_keys=()):
    """``merge_blocks`` flattened to ``(sort_key, entry_blob)`` pairs, at
    a retention horizon, repairing ``dead_keys`` (the collection its
    callable answers at ``retention_ts``)."""
    for keys, blobs in merge_blocks(runs, retention_ts, lambda _ts: dead_keys):
        yield from zip(keys, blobs)


def run_entries(run) -> List[IndexEntry]:
    """Every entry of ``run`` in sort-key order, decoded."""
    return [entry_at(run, ordinal) for ordinal in range(run.entry_count)]


def key_of(definition: IndexDefinition, k: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(equality_values, sort_values) for abstract key ``k``."""
    return (
        tuple(k + i for i in range(len(definition.equality_columns))),
        tuple(k + i for i in range(len(definition.sort_columns))),
    )


def encode_data_block(definition: IndexDefinition, entries) -> bytes:
    """Serialize one data block from decoded entries."""
    from itertools import accumulate

    from repro.core.block import pack_data_block

    pairs = [entry.to_blob(definition) for entry in entries]
    blobs = [blob for _sort_key, blob in pairs]
    return pack_data_block(
        [0, *accumulate(map(len, blobs[:-1]))],
        [len(sort_key) for sort_key, _blob in pairs],
        blobs,
    )


def v1_layout_payload(definition: IndexDefinition, entries) -> bytes:
    """A data block in the retired v1 layout -- ``count | entry offsets |
    entry bytes``, no magic and no sort-key length table -- which readers
    refuse."""
    import struct
    from itertools import accumulate

    blobs = [entry.to_bytes(definition) for entry in entries]
    offsets = [0, *accumulate(map(len, blobs[:-1]))]
    return struct.pack(f">{len(blobs) + 1}I", len(blobs), *offsets) + b"".join(blobs)


def assert_lifecycles_quiescent(table) -> None:
    """At quiescence no run is parked: every shard's indexes drained their
    retired backlog and every retired run was reclaimed."""
    for shard in table.shards:
        for shard_index in shard.indexes.all():
            assert shard_index.index.lifecycle.retired_backlog() == 0
        epochs = shard.hierarchy.stats.epochs
        assert epochs.runs_retired == epochs.runs_reclaimed


def shared_bytes_digest(hierarchy) -> str:
    """sha256 over every shared-storage block: namespace, ordinal, payload."""
    import hashlib

    digest = hashlib.sha256()
    for namespace in hierarchy.shared.namespaces():
        for block_id in hierarchy.shared.namespace_block_ids(namespace):
            digest.update(f"{namespace}#{block_id.ordinal}:".encode())
            digest.update(hierarchy.shared.read(block_id).payload)
    return digest.hexdigest()


def groomed_block(block_id: int, rows, begin_ts):
    """A groomed :class:`DataBlock` over ``rows`` (no endTS, no prevRID)."""
    from repro.wildfire.columnar import DataBlock

    none = (None,) * len(rows)
    return DataBlock(Zone.GROOMED, block_id, tuple(rows), tuple(begin_ts), none, none)


def block_records(block):
    """``block``'s versions as records, as the catalog fetches them (minus
    the endTS overlay): ``prevRID`` a :class:`RID` again."""
    from repro.wildfire.record import Record

    return tuple(
        Record(row, ts, end_ts, None if prev is None else RID(Zone(prev[0]), *prev[1:]))
        for row, ts, end_ts, prev in zip(
            block.rows, block.begin_ts, block.end_ts, block.prev_rids
        )
    )


def committed_rows(transaction) -> List[tuple]:
    """A committed transaction's rows, transposed from its column batch."""
    return list(zip(*transaction.batch.columns))
