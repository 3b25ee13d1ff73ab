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


def key_of(definition: IndexDefinition, k: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(equality_values, sort_values) for abstract key ``k``."""
    return (
        tuple(k + i for i in range(len(definition.equality_columns))),
        tuple(k + i for i in range(len(definition.sort_columns))),
    )


def downgrade_blocks_to_v1(run, blocks=None) -> None:
    """Rewrite the data blocks of ``run`` (all, or those at the indexes
    ``blocks``) in the legacy v1 encoding."""
    from repro.core.run import encode_data_block_v1
    from repro.storage.block import Block

    for bi in range(run.header.num_data_blocks) if blocks is None else blocks:
        payload = encode_data_block_v1(run.definition, run.read_block(bi))
        block_id = run.data_block_id(bi)
        run.hierarchy.delete_everywhere(block_id)  # shared storage is immutable
        run.hierarchy.write_persisted(Block(block_id, payload))
    run.drop_decode_cache()


def shared_bytes_digest(hierarchy) -> str:
    """sha256 over every shared-storage block: namespace, ordinal, payload."""
    import hashlib

    digest = hashlib.sha256()
    for namespace in hierarchy.shared.namespaces():
        for block_id in hierarchy.shared.namespace_block_ids(namespace):
            digest.update(f"{namespace}#{block_id.ordinal}:".encode())
            digest.update(hierarchy.shared.read(block_id).payload)
    return digest.hexdigest()
