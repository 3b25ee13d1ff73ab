"""Statistics layer + cost model tests (repro.planner.stats / smart).

The synopsis must be (a) zero-decode -- built from run headers only --
and (b) version-fresh: cached on the index's versionset publication
sequence, rebuilt exactly when the run lists change.
"""

import pytest

from repro.core.definition import ColumnSpec, ColumnType
from repro.planner import Query, SynopsisCatalog, plan_smart
from repro.planner.plan import Binding
from repro.planner.smart import (
    FETCH_BACK_PROBE_COST,
    RECORD_FETCH_COST,
    RUN_PROBE_COST,
)
from repro.planner.stats import build_synopsis
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema


def make_shard(post_groom_every=3):
    schema = TableSchema(
        name="orders",
        columns=(
            ColumnSpec("order_id"),
            ColumnSpec("customer", ColumnType.STRING),
            ColumnSpec("region", ColumnType.STRING),
            ColumnSpec("amount"),
        ),
        primary_key=("order_id",),
        sharding_key=("order_id",),
    )
    primary = IndexSpec(sort_columns=("order_id",))
    config = ShardConfig(
        post_groom_every=post_groom_every,
        secondary_indexes={
            "by_customer": IndexSpec(
                equality_columns=("customer",), included_columns=("amount",)
            ),
            "by_region": IndexSpec(
                sort_columns=("region",), included_columns=("amount",)
            ),
        },
    )
    return WildfireShard(schema, primary, config=config)


def seed(shard, n=50):
    shard.ingest([
        (i, f"c{i % 5}", f"r{i % 3}", i * 10) for i in range(n)
    ])
    shard.run_cycles(4)


def plan_for(shard, query):
    """The shard's plan for ``query``, bound to its type-checked values."""
    return shard.plan_query(query, Binding(shard.schema, query))


class TestSynopsis:
    def test_counts_match_visible_runs(self):
        shard = make_shard()
        seed(shard)
        primary = shard.indexes.get("primary")
        syn = build_synopsis(primary, primary.index.lifecycle.version_seq)
        assert syn.entry_count == 50
        assert syn.run_count == len(primary.index.visible_runs())
        assert sum(count for _, count in syn.level_entry_counts) == 50

    def test_distinct_prefix_from_int_spans(self):
        shard = make_shard()
        seed(shard)
        syn = shard.synopses.synopsis("primary")
        # order_id spans 0..49 -> 50 distinct keys; [0] is always 1.
        assert syn.distinct_prefix == (1, 50)

    def test_string_columns_use_the_prefix_sketch(self):
        shard = make_shard()
        seed(shard)
        syn = shard.synopses.synopsis("by_customer")
        # customer spans "c0".."c4": the bounded prefix sketch (ISSUE 10)
        # reads exactly 5 distinct values off the run-header bounds --
        # the old fallback pinned this at the 50-entry cap, making every
        # string secondary look maximally selective.  The suffixed
        # order_id then saturates at the entry count.
        assert syn.distinct_prefix == (1, 5, 50)

    def test_string_sketch_widens_with_the_domain(self):
        shard = make_shard()
        shard.ingest([
            (i, f"c{i % 16:02d}", f"r{i % 3}", i * 10) for i in range(50)
        ])
        shard.run_cycles(4)
        syn = shard.synopses.synopsis("by_customer")
        # "c00".."c15": two divergent characters, interpreted as a
        # big-endian span -> 262, clamped to the 50-entry cap.
        assert syn.distinct_prefix[1] == 50

    def test_key_range_union_covers_domain(self):
        shard = make_shard()
        seed(shard)
        syn = shard.synopses.synopsis("primary")
        assert syn.key_ranges[0].min_value == 0
        assert syn.key_ranges[0].max_value == 49

    def test_zero_decode(self):
        shard = make_shard()
        seed(shard)
        decode = shard.hierarchy.stats.decode
        before = (decode.entry_decodes, decode.raw_key_probes)
        shard.synopses.snapshot()
        assert (decode.entry_decodes, decode.raw_key_probes) == before


class TestCatalogFreshness:
    def test_cached_while_version_unchanged(self):
        shard = make_shard()
        seed(shard)
        catalog = shard.synopses
        first = catalog.synopsis("primary")
        assert catalog.synopsis("primary") is first  # same object: cached

    def test_rebuilt_after_lifecycle_mutation(self):
        shard = make_shard(post_groom_every=1)
        seed(shard, n=20)
        catalog = shard.synopses
        before = catalog.synopsis("primary")
        shard.ingest([(100 + i, "cX", "rX", i) for i in range(10)])
        shard.run_cycles(2)  # groom + post-groom publish new versions
        after = catalog.synopsis("primary")
        assert after.version_seq > before.version_seq
        assert after.entry_count == 30


class TestCostModel:
    def test_covering_secondary_beats_primary_scan(self):
        shard = make_shard()
        seed(shard)
        plan = plan_for(shard, Query(
            equalities=(("customer", "c1"),),
            projection=("order_id", "amount"),
        ))
        assert plan.index_name == "by_customer"
        assert plan.index_only
        costs = {
            (c["index"], c["index_only"]): c["cost"]
            for c in plan.considered
        }
        assert costs[("by_customer", True)] < costs[("primary", False)]

    def test_primary_point_beats_secondaries(self):
        shard = make_shard()
        seed(shard)
        plan = plan_for(shard, Query(equalities=(("order_id", 7),)))
        assert plan.index_name == "primary" and plan.mode == "point"

    def test_index_only_discount_is_the_fetch_cost(self):
        shard = make_shard()
        seed(shard)
        plan = plan_for(shard, Query(
            equalities=(("customer", "c1"),),
            projection=("order_id", "amount"),
        ))
        by_variant = {
            c["index_only"]: c["cost"]
            for c in plan.considered if c["index"] == "by_customer"
        }
        saved = by_variant[False] - by_variant[True]
        expected = plan.rows_est * (
            FETCH_BACK_PROBE_COST + RECORD_FETCH_COST
        )
        assert saved == pytest.approx(expected)

    def test_int_range_selectivity_scales_estimate(self):
        shard = make_shard()
        seed(shard)
        narrow = plan_for(shard, Query(ranges=(("order_id", 0, 4),)))
        wide = plan_for(shard, Query(ranges=(("order_id", 0, 39),)))
        assert narrow.rows_est == pytest.approx(5.0)
        assert wide.rows_est == pytest.approx(40.0)

    def test_index_hint_restricts_candidates(self):
        shard = make_shard()
        seed(shard)
        plan = plan_for(shard, Query(
            equalities=(("order_id", 7),), index_hint="primary",
        ))
        assert {c["index"] for c in plan.considered} == {"primary"}

    def test_run_count_term_in_cost(self):
        shard = make_shard()
        seed(shard)
        syn = shard.synopses.synopsis("by_region")
        plan = plan_for(shard, Query(
            equalities=(("region", "r1"),),
            projection=("region", "amount"),
        ))
        chosen = next(
            c for c in plan.considered
            if c["index"] == "by_region" and c["index_only"]
        )
        assert chosen["cost"] >= syn.run_count * RUN_PROBE_COST
