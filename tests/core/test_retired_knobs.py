"""The knobs that chose between two code paths are gone with the path each
one turned off.

No caller ever set them to anything but their defaults, so each became the
behaviour in force (a named constant where it is a number).  A caller still
passing one gets a ``TypeError`` naming it, not a setting silently ignored.
"""

import pytest

from repro.core.cache import HIGH_WATERMARK, LOW_WATERMARK
from repro.core.definition import ColumnSpec, i1_definition
from repro.core.epoch import RunLifecycle
from repro.core.index import UmziConfig, UmziIndex
from repro.core.query import ReconcileStrategy
from repro.storage.metrics import EpochStats
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.indexer import IndexerDaemon
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
    (ShardConfig, "run_lifecycle", "legacy"),
    (ShardConfig, "streaming_evolve", False),
    (ShardConfig, "groomed_block_grace_psns", 2),
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


def test_the_lifecycle_has_no_mode():
    with pytest.raises(TypeError, match="mode"):
        RunLifecycle(EpochStats(), lambda: None, mode="epoch")


def test_the_cache_keeps_the_watermarks_every_caller_used():
    index = UmziIndex(i1_definition(), config=UmziConfig(name="w"))
    assert (HIGH_WATERMARK, LOW_WATERMARK) == (0.85, 0.60)
    assert index.cache.high_watermark == HIGH_WATERMARK
    assert index.cache.low_watermark == LOW_WATERMARK
