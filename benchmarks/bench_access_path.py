"""Ablation A15: cost-based access-path planning vs always-primary (ISSUE 9).

Two single-shard arms hold byte-identical data -- a skewed orders table
with two secondary indexes (``by_customer``: equality on customer with
``amount`` included; ``by_region``: sorted on region with ``amount``
included) -- and answer the same multi-predicate workload.  The
``baseline`` arm plans every typed query onto the primary index (the
pre-planner behaviour); the ``smart`` arm runs the cost-based planner
over all three indexes, choosing secondary prefix scans with RID
fetch-back and index-only scans when the included columns cover the
projection.  A fetch-back resolves through the primary only the hits
whose key is ghosted (a secondary key that changed across versions);
this workload moves no key, so its three fetch-back rows read their
records by the secondary entries' own RIDs and charge no primary block.

Every measured query starts from a cold shard (decode caches dropped,
local tiers crashed), so the counters are exact per-query costs:

* **block fetches** -- shared-tier block transfers
  (``IOStats.tier("shared").reads``), the paper's block-basis unit;
* **raw key probes** -- zero-decode sort-key slices
  (``DecodeStats.raw_key_probes``), the CPU-side search cost.

Asserted per workload query: baseline and smart return byte-identical
rows; smart never fetches more blocks or probes more keys than baseline,
and strictly fewer whenever it leaves the primary; the smart plan matches
the golden access path; and every index-only query finishes with **zero**
block reads attributed to the primary index and zero to the record store
(the read-attribution ledger, scoped per plan component).

Every persisted number is a deterministic ledger counter -- the workload
is generated arithmetically, no wall-clock and no RNG anywhere -- so
``BENCH_access_path.json`` is byte-stable and CI diffs it against the
committed artifact (same full-size run everywhere, like A13/A14).
"""

from repro.core.definition import ColumnSpec, ColumnType
from repro.core.index import UmziConfig
from repro.planner import Query
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema

from harness import ExperimentResult, Series, report

N_ROWS = 1_200
BATCHES = 6
DATA_BLOCK_BYTES = 1_024  # fine-grained index blocks: per-block costs show
CUSTOMERS = tuple(f"c{i:02d}" for i in range(16))
# Integer weights (sum 100): c00 takes 20% of rows, the tail 2-5% each.
CUSTOMER_WEIGHTS = (20, 14, 10, 8, 7, 6, 5, 5, 4, 4, 3, 3, 3, 3, 3, 2)
REGIONS = tuple(f"r{i:02d}" for i in range(30))

_ALPHABET = tuple(
    name
    for name, weight in zip(CUSTOMERS, CUSTOMER_WEIGHTS)
    for _ in range(weight)
)


def make_rows():
    """The deterministic skewed order set shared by both arms.

    Orders arrive in bursts of 12 per customer and 8 per region (session
    locality), with the burst-to-slot maps strided so one customer's
    bursts scatter across the whole order_id domain.  ``(i // 12) * 37
    mod 100`` visits every alphabet slot exactly once over 1200 rows, so
    each customer receives exactly ``weight%`` of the rows; regions are
    uniform (40 rows each); amounts span 0..4999 uncorrelated.
    """
    return [
        (
            i,
            _ALPHABET[((i // 12) * 37) % len(_ALPHABET)],
            REGIONS[((i // 8) * 7) % len(REGIONS)],
            (i * 97) % 5_000,
        )
        for i in range(N_ROWS)
    ]


def make_shard(planner: str) -> WildfireShard:
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
    config = ShardConfig(
        planner=planner,
        post_groom_every=2,
        umzi=UmziConfig(data_block_bytes=DATA_BLOCK_BYTES),
        secondary_indexes={
            "by_customer": IndexSpec(
                equality_columns=("customer",), included_columns=("amount",)
            ),
            "by_region": IndexSpec(
                sort_columns=("region",), included_columns=("amount",)
            ),
        },
    )
    return WildfireShard(schema, IndexSpec(sort_columns=("order_id",)), config=config)


def build_arm(planner: str) -> WildfireShard:
    shard = make_shard(planner)
    rows = make_rows()
    batch = N_ROWS // BATCHES
    for b in range(BATCHES):
        shard.ingest(rows[b * batch : (b + 1) * batch])
        shard.tick()
    shard.run_cycles(4)
    return shard


# The workload: (slug, query, golden smart path (index, index_only,
# fetch_back)).  Queries 0-1 are primary-optimal (both arms plan the
# same path); the rest must leave the primary under the smart planner.
WORKLOAD = (
    (
        "pk_point",
        Query(equalities=(("order_id", 700),)),
        ("primary", False, False),
    ),
    (
        "pk_range",
        Query(ranges=(("order_id", 100, 160),)),
        ("primary", False, False),
    ),
    (
        "cust_hot_cover",
        Query(equalities=(("customer", "c00"),),
              projection=("order_id", "amount")),
        ("by_customer", True, False),
    ),
    (
        "cust_mid_rows",
        Query(equalities=(("customer", "c07"),)),
        ("by_customer", False, True),
    ),
    (
        "cust_cold_cover",
        Query(equalities=(("customer", "c15"),),
              projection=("order_id", "amount")),
        ("by_customer", True, False),
    ),
    (
        "region_band_cover",
        Query(ranges=(("region", "r00", "r04"),),
              projection=("region", "amount")),
        ("by_region", True, False),
    ),
    (
        "region_eq_rows",
        Query(equalities=(("region", "r17"),)),
        ("by_region", False, True),
    ),
    (
        "cust_amount_resid",
        Query(equalities=(("customer", "c05"),),
              ranges=(("amount", 0, 2_500),)),
        ("by_customer", False, True),
    ),
)


def cold_reset(shard: WildfireShard) -> None:
    """Drop every warm copy so the next query pays real block fetches."""
    for shard_index in shard.indexes.all():
        for run in shard_index.index.visible_runs():
            run.drop_decode_cache()
    shard.hierarchy.crash_local_tiers()
    shard.catalog.forget_decoded()


def measure(shard: WildfireShard, query: Query):
    """Run one query cold; return (rows, block_fetches, probes, attribution)."""
    cold_reset(shard)
    stats = shard.hierarchy.stats
    blocks_before = stats.tier("shared").reads
    probes_before = stats.decode.raw_key_probes
    attr_before = stats.attribution_snapshot()
    rows = shard.query(query)
    attr_after = stats.attribution_snapshot()
    attribution = {
        component: attr_after.get(component, 0) - attr_before.get(component, 0)
        for component in attr_after
        if attr_after.get(component, 0) != attr_before.get(component, 0)
    }
    return (
        rows,
        stats.tier("shared").reads - blocks_before,
        stats.decode.raw_key_probes - probes_before,
        attribution,
    )


def run_arm(planner: str):
    """Build one arm and measure every workload query cold."""
    shard = build_arm(planner)
    explains = [shard.explain(query) for _, query, _ in WORKLOAD]
    measurements = [measure(shard, query) for _, query, _ in WORKLOAD]
    return explains, measurements


def test_access_path_planner():
    base_explains, base_runs = run_arm("baseline")
    smart_explains, smart_runs = run_arm("smart")

    blocks_base = Series("block fetches (baseline)")
    blocks_smart = Series("block fetches (smart)")
    probes_base = Series("raw key probes (baseline)")
    probes_smart = Series("raw key probes (smart)")
    metrics = {}

    for ordinal, (slug, _, golden) in enumerate(WORKLOAD):
        index_name, index_only, fetch_back = golden
        b_rows, b_blocks, b_probes, _ = base_runs[ordinal]
        s_rows, s_blocks, s_probes, s_attr = smart_runs[ordinal]

        # The fetch-back re-check invariant: plans differ, answers do not.
        assert s_rows == b_rows, f"A15 {slug}: smart rows diverge"
        assert b_rows, f"A15 {slug}: workload query matched nothing"

        # Golden access paths: baseline is always the primary, smart
        # chooses the cost model's pick for this query shape.
        assert base_explains[ordinal]["index"] == "primary"
        assert not base_explains[ordinal]["index_only"]
        assert not base_explains[ordinal]["fetch_back"]
        explain = smart_explains[ordinal]
        assert (
            explain["index"], explain["index_only"], explain["fetch_back"]
        ) == golden, f"A15 {slug}: smart left the golden path: {explain}"

        # The planner never loses, and wins whenever it leaves the primary.
        assert s_blocks <= b_blocks, f"A15 {slug}: smart fetched more blocks"
        assert s_probes <= b_probes, f"A15 {slug}: smart probed more keys"
        if index_name != "primary":
            assert s_blocks < b_blocks, f"A15 {slug}: no block saving"
            assert s_probes < b_probes, f"A15 {slug}: no probe saving"
            assert s_attr.get(f"index:{index_name}", 0) > 0

        # Index-only means *zero* primary-index and record block reads.
        if index_only:
            assert s_attr.get("index:primary", 0) == 0, f"A15 {slug}"
            assert s_attr.get("records", 0) == 0, f"A15 {slug}"

        blocks_base.add(ordinal, b_blocks)
        blocks_smart.add(ordinal, s_blocks)
        probes_base.add(ordinal, b_probes)
        probes_smart.add(ordinal, s_probes)
        metrics[f"{slug}_rows"] = float(len(b_rows))
        metrics[f"{slug}_blocks_base"] = float(b_blocks)
        metrics[f"{slug}_blocks_smart"] = float(s_blocks)
        metrics[f"{slug}_probes_base"] = float(b_probes)
        metrics[f"{slug}_probes_smart"] = float(s_probes)
        metrics[f"{slug}_primary_reads_smart"] = float(
            s_attr.get("index:primary", 0)
        )
        metrics[f"{slug}_record_reads_smart"] = float(s_attr.get("records", 0))

    # Replay determinism: the smart arm twice, byte-for-byte -- rows,
    # counters, attribution maps, explains, everything.
    replay_explains, replay_runs = run_arm("smart")
    assert replay_explains == smart_explains
    assert replay_runs == smart_runs

    result = ExperimentResult(
        figure="Ablation A15",
        title="Cost-based access-path planning vs always-primary",
        x_label="workload query ordinal",
        y_label="cold per-query cost (counters)",
        series=[blocks_base, blocks_smart, probes_base, probes_smart],
        notes=(
            f"{N_ROWS} skewed orders (hot customer 20%), two secondary "
            "indexes with included columns; every query measured from a "
            "cold shard in both arms; smart answers are byte-identical "
            "to baseline and index-only queries read zero primary-index "
            "and zero record blocks"
        ),
        metrics=metrics,
    )
    report(result, "access_path")
