"""Shared fixtures and helpers for the Umzi reproduction test suite."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.ssd import SSDTier
from repro.storage.metrics import IOStats


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


def entry_at(run, ordinal: int) -> IndexEntry:
    """The decoded entry at global ``ordinal`` of ``run``."""
    block_index, in_block = run.locate(ordinal)
    return run.block_view(block_index).entry(in_block)


def run_entries(run) -> List[IndexEntry]:
    """Every entry of ``run`` in sort-key order, decoded."""
    return [entry_at(run, ordinal) for ordinal in range(run.entry_count)]


def key_of(definition: IndexDefinition, k: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(equality_values, sort_values) for abstract key ``k``."""
    return (
        tuple(k + i for i in range(len(definition.equality_columns))),
        tuple(k + i for i in range(len(definition.sort_columns))),
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
