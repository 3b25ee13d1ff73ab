"""The knobs that chose between two code paths are gone with the path each
one turned off.

No caller ever set them to anything but their defaults, so each became the
behaviour in force (a named constant where it is a number).  A caller still
passing one gets a ``TypeError`` naming it, not a setting silently ignored.
"""

import pytest

from repro.baselines.lsm import ClassicLSMIndex
from repro.core.cache import HIGH_WATERMARK, LOW_WATERMARK
from repro.core.definition import ColumnSpec, i1_definition
from repro.core.epoch import RunLifecycle
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.query import QueryExecutor, ReconcileStrategy
from repro.faults.plan import FaultPlan
from repro.faults.storage import FaultyTier
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.memory import DEFAULT_MEMORY_READ, MemoryTier
from repro.storage.metrics import EpochStats
from repro.storage.shared import SharedStorage
from repro.storage.ssd import SSDTier
from repro.wildfire.blockstore import BlockCatalog
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.indexer import IndexerDaemon
from repro.wildfire.indexes import ShardIndexes
from repro.wildfire.schema import IndexSpec, TableSchema


def make_shard():
    schema = TableSchema(
        name="knobs",
        columns=(ColumnSpec("k"), ColumnSpec("v")),
        primary_key=("k",),
        sharding_key=("k",),
    )
    return WildfireShard(schema, IndexSpec(("k",), (), ("v",)))


@pytest.mark.parametrize("config,field,value", [
    (UmziConfig, "run_lifecycle", "epoch"),
    (UmziConfig, "reconcile", ReconcileStrategy.SET),
    (UmziConfig, "cache_high_watermark", 0.95),
    (UmziConfig, "cache_low_watermark", 0.5),
    (UmziConfig, "use_synopsis", False),
    (UmziConfig, "use_offset_array", False),
    (LevelConfig, "spill_non_persisted_to_ssd", True),
    (ShardConfig, "run_lifecycle", "legacy"),
    (ShardConfig, "streaming_evolve", False),
    (ShardConfig, "groomed_block_grace_psns", 2),
    (ShardConfig, "require_primary_index", False),
], ids=lambda value: getattr(value, "__name__", None))
def test_a_retired_config_field_is_refused(config, field, value):
    with pytest.raises(TypeError, match=field):
        config(**{field: value})


@pytest.mark.parametrize("parameter,value", [
    ("streaming_evolve", False),
    ("groomed_block_grace_psns", 2),
])
def test_a_retired_indexer_parameter_is_refused(parameter, value):
    shard = make_shard()
    with pytest.raises(TypeError, match=parameter):
        IndexerDaemon(
            shard.schema, shard.catalog, shard.indexes, shard.post_groomer,
            **{parameter: value},
        )


def test_retired_parameters_of_the_shard_and_the_lsm_baseline_are_refused():
    shard = make_shard()
    with pytest.raises(TypeError, match="require_primary"):
        ShardIndexes(
            shard.schema, shard.index_spec, shard.hierarchy, UmziConfig(),
            require_primary=False,
        )
    with pytest.raises(TypeError, match="post_groom_enabled"):
        shard.start_daemons(post_groom_enabled=False)
    assert not shard.daemons_running
    with pytest.raises(TypeError, match="remap"):
        ClassicLSMIndex(i1_definition()).rebuild_with_rids(remap=lambda e: None)


def test_the_lifecycle_has_no_mode():
    with pytest.raises(TypeError, match="mode"):
        RunLifecycle(EpochStats(), lambda: None, mode="epoch")


def test_the_cache_keeps_the_watermarks_every_caller_used():
    index = UmziIndex(i1_definition(), config=UmziConfig(name="w"))
    assert (HIGH_WATERMARK, LOW_WATERMARK) == (0.85, 0.60)
    assert index.cache.high_watermark == HIGH_WATERMARK
    assert index.cache.low_watermark == LOW_WATERMARK


def test_synopsis_pruning_has_no_switch():
    with pytest.raises(TypeError, match="use_synopsis"):
        QueryExecutor(i1_definition(), list, use_synopsis=False)


def test_the_storage_paths_take_no_spill_or_promote_flag():
    hierarchy = StorageHierarchy()
    block = Block(BlockId("r", 0), bytes(8))
    with pytest.raises(TypeError, match="spill_to_ssd"):
        hierarchy.write_cached_only(block, spill_to_ssd=True)
    hierarchy.write_persisted(block, write_through_ssd=False)
    with pytest.raises(TypeError, match="promote"):
        hierarchy.read(block.block_id, promote=False)
    with pytest.raises(TypeError, match="promote"):
        hierarchy.read_many([block.block_id], promote=False)
    builder = UmziIndex(i1_definition(), hierarchy).builder
    with pytest.raises(TypeError, match="spill_to_ssd"):
        builder.build_from_columns(persisted=False, spill_to_ssd=True)
    assert not hierarchy.ssd.contains(block.block_id)


@pytest.mark.parametrize("make_tier", [
    MemoryTier, SSDTier, SharedStorage,
    lambda **latency: FaultyTier(FaultPlan(seed=0), "t-run", **latency),
], ids=["memory", "ssd", "shared", "faulty"])
@pytest.mark.parametrize("parameter", ["read_latency", "write_latency"])
def test_a_tier_keeps_its_own_latency_model(make_tier, parameter):
    with pytest.raises(TypeError, match=parameter):
        make_tier(**{parameter: DEFAULT_MEMORY_READ})


def test_the_shard_has_one_door_per_read_and_a_plain_driver():
    shard = make_shard()
    with pytest.raises(TypeError, match="table_name"):
        BlockCatalog(shard.schema, shard.hierarchy, table_name="other")
    with pytest.raises(TypeError, match="ingest_fn"):
        shard.run_cycles(1, ingest_fn=lambda cycle: [])
    assert shard.cycle == 0
    for door in ("degraded_point_query", "degraded_range_query",
                 "secondary_scan", "secondary_lookup"):
        assert not hasattr(shard, door)


def test_the_shard_scans_answer_with_entries_only():
    shard = make_shard()
    with pytest.raises(TypeError, match="fetch_records"):
        shard.range_query(fetch_records=True)
