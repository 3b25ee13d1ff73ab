"""The knobs that chose between two code paths are gone with the path each
one turned off.

No caller ever set them to anything but their defaults, so each became the
behaviour in force (a named constant where it is a number).  A caller still
passing one gets a ``TypeError`` naming it, not a setting silently ignored.
"""

import pytest

from repro import baselines, faults
from repro.baselines.lsm import ClassicLSMIndex
from repro.baselines.separate import SeparateZoneIndexes
from repro.core.builder import RunBuilder
from repro.core.cache import HIGH_WATERMARK, LOW_WATERMARK, CacheManager
from repro.core.definition import (
    ColumnSpec,
    i1_definition,
    i2_definition,
    i3_definition,
)
from repro.core.epoch import RunLifecycle
from repro.core.evolve import Watermark
from repro.core.index import UmziConfig, UmziIndex
from repro.core.journal import MetadataJournal
from repro.core.levels import LevelConfig
from repro.core.merge import MergeController, merge_entry_blob_streams
from repro.core.query import QueryExecutor, ReconcileStrategy
from repro.core.run import IndexRun, RunHeader
from repro.core.search import lookup_key_in_run, search_run
from repro.faults.plan import BrownoutWindow, FaultPlan
from repro.faults.storage import FaultyTier
from tests.fault_plans import generate_fault_plan
from repro.planner import smart
from repro.planner.stats import AccessPathSynopsis
from repro.qos.admission import AdmissionController, QosConfig
from repro.qos.breaker import BreakerConfig
from repro.storage import retry
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.memory import DEFAULT_MEMORY_READ, MemoryTier
from repro.storage.metrics import EpochStats
from repro.storage.shared import SharedStorage
from repro.storage.ssd import SSDTier
from repro.wildfire import cluster
from repro.wildfire.blockstore import BlockCatalog
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.indexer import IndexerDaemon
from repro.wildfire.indexes import ShardIndexes
from repro.wildfire.rebalance import RebalanceConfig, RebalancePolicy
from repro.wildfire.schema import IndexSpec, TableSchema
from repro.wildfire.shardmap import ShardMapRegistry
from repro.wildfire.transaction import Transaction
from repro.wildfire.txlog import CommittedTransaction
from repro.workloads.queries import QueryBatchGenerator


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
    (UmziConfig, "bloom_fpr", 0.01),
    (UmziConfig, "per_key_batch_pruning", True),
    (LevelConfig, "spill_non_persisted_to_ssd", True),
    (ShardConfig, "run_lifecycle", "legacy"),
    (ShardConfig, "streaming_evolve", False),
    (ShardConfig, "groomed_block_grace_psns", 2),
    (ShardConfig, "require_primary_index", False),
    (QosConfig, "retry_delta_threshold", 3),
    (BreakerConfig, "probe_successes", 1),
    (RebalanceConfig, "backlog_high_water_ns", 1),
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
    assert (HIGH_WATERMARK, LOW_WATERMARK) == (0.85, 0.60)
    for parameter in ("high_watermark", "low_watermark"):
        with pytest.raises(TypeError, match=parameter):
            CacheManager(LevelConfig(), StorageHierarchy(), {}, **{parameter: 0.5})


# Each parameter no program passed, refused by name: a call binding it
# raises before the body runs, so an unbound method takes ``None`` for
# ``self``.
RETIRED_PARAMETERS = [
    ("freshness", lambda: make_shard().point_query((1,), freshness="live")),
    ("replica_id", lambda: make_shard().begin(replica_id=1)),
    ("replica_id", lambda: make_shard().ingest([(1, 1)], replica_id=1)),
    ("replica_id", lambda: Transaction(None, None, None, replica_id=1)),
    ("replica_id", lambda: CommittedTransaction(1, [], replica_id=0)),
    ("retry_policy", lambda: StorageHierarchy(retry_policy=None)),
    ("memory", lambda: StorageHierarchy(memory=MemoryTier())),
    ("policy", lambda: ClassicLSMIndex(i1_definition(), policy="tiering")),
    ("size_ratio", lambda: ClassicLSMIndex(i1_definition(), size_ratio=2)),
    ("data_block_bytes",
     lambda: ClassicLSMIndex(i1_definition(), data_block_bytes=512)),
    ("name", lambda: ClassicLSMIndex(i1_definition(), name="lsm")),
    ("hierarchy",
     lambda: ClassicLSMIndex(i1_definition(), hierarchy=StorageHierarchy())),
    ("hash_value", lambda: search_run(None, b"", b"", 0, hash_value=1)),
    ("use_offset_array",
     lambda: search_run(None, b"", b"", 0, use_offset_array=False)),
    ("hash_value", lambda: lookup_key_in_run(None, b"", 0, hash_value=1)),
    ("use_offset_array",
     lambda: lookup_key_in_run(None, b"", 0, use_offset_array=False)),
    ("use_bloom", lambda: lookup_key_in_run(None, b"", 0, use_bloom=False)),
    ("intent", lambda: CacheManager.release_after_query(None, [], intent=None)),
    ("deadline_ns", lambda: AdmissionController(QosConfig()).admit(deadline_ns=1)),
    ("cost", lambda: AdmissionController(QosConfig()).admit(cost=2.0)),
    ("timeout_s", lambda: ShardMapRegistry.drain(None, 1, timeout_s=1.0)),
    ("max_rounds", lambda: make_shard().quiesce(max_rounds=1)),
    ("max_versions", lambda: make_shard().time_travel((1,), (1,), 1, max_versions=1)),
    ("query_ts", lambda: make_shard().index_batch_lookup([], query_ts=1)),
    ("max_steps", lambda: UmziIndex(i1_definition()).run_maintenance(max_steps=1)),
    ("max_steps", lambda: MergeController.merge_until_stable(None, None, max_steps=1)),
    ("interval_s", lambda: RebalancePolicy.start(None, interval_s=1.0)),
    ("keep", lambda: MetadataJournal._trim(None, keep=1)),
    ("retention_ts",
     lambda: merge_entry_blob_streams(None, [], retention_ts=1).__next__()),
    ("query_ts", lambda: QueryBatchGenerator.sequential_batch(None, 1, query_ts=1)),
    ("query_ts", lambda: QueryBatchGenerator.random_batch(None, 1, query_ts=1)),
    ("query_ts", lambda: QueryBatchGenerator.sequential_scan(None, 1, query_ts=1)),
    ("query_ts", lambda: QueryBatchGenerator.random_scan(None, 1, query_ts=1)),
    ("query_ts", lambda: SeparateZoneIndexes.scan_naive_union(
        None, b"", b"", query_ts=1
    )),
    ("hash_bits", lambda: i1_definition(hash_bits=3)),
    ("hash_bits", lambda: i2_definition(hash_bits=3)),
    ("hash_bits", lambda: i3_definition(hash_bits=3)),
    ("initial", lambda: Watermark(initial=3)),
    ("max_crashes", lambda: generate_fault_plan(0, max_crashes=1)),
    ("max_op_ordinal", lambda: generate_fault_plan(0, max_op_ordinal=1)),
    ("error_rate", lambda: BrownoutWindow.generate(0, error_rate=1.0)),
    ("start_op", lambda: BrownoutWindow.generate(0, start_op=5)),
    ("start_op", lambda: BrownoutWindow(4, (0,), start_op=5)),
    ("brownouts", lambda: FaultPlan(seed=0, brownouts=())),
    ("max_steps", lambda: IndexerDaemon.drain(None, max_steps=1)),
    ("per_key_batch_pruning",
     lambda: QueryExecutor(i1_definition(), list, per_key_batch_pruning=True)),
    ("bloom_fpr",
     lambda: RunBuilder(i1_definition(), StorageHierarchy(), bloom_fpr=0.01)),
    ("bloom_blob", lambda: RunHeader(bloom_blob=b"")),
    ("bloom_runs", lambda: AccessPathSynopsis(bloom_runs=0)),
]


@pytest.mark.parametrize(
    "parameter,call", RETIRED_PARAMETERS,
    ids=[f"{n}-{name}" for n, (name, _) in enumerate(RETIRED_PARAMETERS)],
)
def test_a_retired_parameter_is_refused_by_name(parameter, call):
    with pytest.raises(TypeError, match=parameter):
        call()


def test_retired_policies_and_paths_are_gone():
    assert not hasattr(retry, "RetryPolicy")
    assert not hasattr(retry, "DEFAULT_RETRY_POLICY")
    assert not hasattr(faults, "RetryPolicy")
    assert not hasattr(baselines, "LSMMergePolicy")
    assert not hasattr(ClassicLSMIndex, "_merge_tiering")
    assert not hasattr(WildfireShard, "_live_zone_lookup")
    assert not hasattr(IndexRun, "may_contain_key")
    assert not hasattr(AccessPathSynopsis, "all_runs_bloomed")
    assert not hasattr(smart, "BLOOM_PROBE_COST")
    assert not hasattr(CacheManager(LevelConfig(), StorageHierarchy(), {}),
                       "high_watermark")


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


def test_reads_name_their_intent_where_they_are_issued():
    index = UmziIndex(i1_definition(), StorageHierarchy())
    assert not hasattr(index.hierarchy, "reading_as")
    assert not hasattr(index.hierarchy, "current_read_intent")
    with pytest.raises(TypeError, match="intent"):
        index.hierarchy.read_shared(BlockId("r", 1), intent=None)
    assert not hasattr(index.cache, "maintenance_bypasses")
    run = index.add_groomed_run([], 0, 0)
    with pytest.raises(TypeError, match="intent"):
        index.cache.load_run(run, intent=None)


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
    for door in ("degraded_point_query", "degraded_range_query",
                 "secondary_scan", "secondary_lookup", "range_query"):
        assert not hasattr(shard, door)


def test_a_range_read_is_a_typed_query_at_both_layers():
    """There is no range door: a cluster or a shard reads a range as a
    typed ``Query``, and the cluster has no entry merge or kind for one."""
    assert not hasattr(WildfireShard, "range_query")
    for retired in ("range_query", "_merge_versions"):
        assert not hasattr(ShardedTable, retired)
    assert not hasattr(cluster, "RANGE")
