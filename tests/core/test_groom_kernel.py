"""The columnar groom kernel against the per-entry path it replaced.

``ShardIndexes.build_groomed_runs`` encodes each groomed column once and
joins ``(sort_key, blob)`` pairs column at a time; the reference is what
the groomer did before -- ``IndexEntry.create(...)`` per row, ``to_blob``
per entry, ``RunBuilder.build`` -- which stays in ``src/`` for the
per-entry callers and serves here as the oracle.  The persisted run has
to come out byte-identical: sorted pairs, synopsis, offset array, Bloom
blob, block payloads and header bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import RunBuilder
from repro.core.definition import (
    COLUMN_ENCODERS,
    ENCODERS,
    ColumnSpec,
    ColumnType,
)
from repro.core.encoding import encode_ts_desc, encode_ts_desc_column
from repro.core.entry import (
    RID,
    IndexEntry,
    Zone,
    encode_rid_column,
    entry_blob_columns,
)
from repro.core.index import UmziConfig
from repro.core.merge import merge_entry_blob_streams
from repro.storage.hierarchy import StorageHierarchy
from repro.wildfire.columnar import DataBlock, encode_columns
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.indexes import ShardIndexes
from repro.wildfire.record import Record
from repro.wildfire.schema import IndexSpec, TableSchema

from tests.conftest import shared_bytes_digest

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
VALUES = {
    ColumnType.INT64: INT64 | st.integers(-3, 3),
    # -0.0 must encode as 0.0, and an int is a legal float-column value.
    ColumnType.FLOAT64: (
        st.floats(allow_nan=False)
        | st.sampled_from([0.0, -0.0, float("inf"), float("-inf")])
        | st.integers(-(2**53), 2**53)
    ),
    ColumnType.STRING: st.text(max_size=6) | st.sampled_from(["", "\x00", "a\x00b"]),
    ColumnType.BYTES: st.binary(max_size=6) | st.sampled_from([b"", b"\x00\xff"]),
}
BLOCK_ID = 7


@st.composite
def groomed_batches(draw):
    """(schema, index spec, rows, begin_ts values) for one groomed block."""
    ctypes = draw(st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=5))
    columns = tuple(ColumnSpec(f"c{i}", t) for i, t in enumerate(ctypes))
    roles = draw(
        st.lists(
            st.sampled_from(["eq", "sort", "incl", "none"]),
            min_size=len(columns), max_size=len(columns),
        ).filter(lambda rs: "eq" in rs or "sort" in rs)
    )
    names = {
        role: tuple(c.name for c, r in zip(columns, roles) if r == role)
        for role in ("eq", "sort", "incl")
    }
    spec = IndexSpec(
        names["eq"], names["sort"], names["incl"],
        hash_bits=draw(st.integers(1, 10)),
    )
    schema = TableSchema(
        name="k", columns=columns, primary_key=names["eq"] + names["sort"],
    )
    rows = draw(st.lists(
        st.tuples(*[VALUES[t] for t in ctypes]), min_size=1, max_size=40,
    ))
    begin_ts = draw(st.lists(
        st.integers(0, 2**64 - 1),
        min_size=len(rows), max_size=len(rows), unique=True,
    ))
    return schema, spec, rows, begin_ts


def oracle_entries(schema, shard_index, rows, begin_ts):
    """The parent's per-row list comprehension."""
    make_entry = shard_index.index.make_entry
    extract = shard_index.spec.extractor(schema)
    return [
        make_entry(*extract(row), ts, RID(Zone.GROOMED, BLOCK_ID, offset))
        for offset, (row, ts) in enumerate(zip(rows, begin_ts))
    ]


@settings(max_examples=120, deadline=None)
@given(groomed_batches(), st.sampled_from([None, 0.01]), st.sampled_from([64, 4096]))
def test_kernel_run_is_byte_identical_to_the_per_entry_build(
    batch, bloom_fpr, data_block_bytes
):
    schema, spec, rows, begin_ts = batch
    config = UmziConfig(bloom_fpr=bloom_fpr, data_block_bytes=data_block_bytes)
    hierarchy = StorageHierarchy()
    indexes = ShardIndexes(schema, spec, hierarchy, config)
    shard_index = indexes.primary
    definition = shard_index.index.definition
    block = DataBlock(
        Zone.GROOMED, BLOCK_ID,
        tuple(Record(row, ts) for row, ts in zip(rows, begin_ts)),
    )

    run_id = indexes.build_groomed_runs(block)["primary"]
    (run,) = shard_index.index.run_lists[Zone.GROOMED].snapshot()

    entries = oracle_entries(schema, shard_index, rows, begin_ts)
    oracle_storage = StorageHierarchy()
    oracle = RunBuilder(
        definition, oracle_storage, data_block_bytes, bloom_fpr=bloom_fpr
    ).build(run_id, entries, Zone.GROOMED, 0, BLOCK_ID, BLOCK_ID)

    # The sorted (sort_key, blob) list ...
    expected_pairs = sorted(e.to_blob(definition) for e in entries)
    assert list(merge_entry_blob_streams(definition, [run])) == expected_pairs
    # ... and everything the builder derives from it or is handed.
    assert run.header.synopsis == oracle.header.synopsis
    assert run.header.offset_array == oracle.header.offset_array
    assert run.header.bloom_blob == oracle.header.bloom_blob
    assert run.header.block_meta == oracle.header.block_meta
    assert (run.header.min_begin_ts, run.header.max_begin_ts) == (
        min(begin_ts), max(begin_ts),
    )
    # The persisted run, block by block: header bytes and payloads.
    block_ids = oracle_storage.shared.namespace_block_ids(run_id)
    assert hierarchy.shared.namespace_block_ids(run_id) == block_ids
    assert len(block_ids) == 1 + run.header.num_data_blocks
    for block_id in block_ids:
        assert (
            hierarchy.shared.read(block_id).payload
            == oracle_storage.shared.read(block_id).payload
        ), block_id


@settings(max_examples=120, deadline=None)
@given(groomed_batches())
def test_column_encoders_equal_their_scalar_twins(batch):
    schema, spec, rows, begin_ts = batch
    encoded = encode_columns(schema, rows)
    for position, column_spec in enumerate(schema.columns):
        scalar = ENCODERS[column_spec.ctype]
        assert encoded[position] == [
            scalar(column_spec.validate(row[position])) for row in rows
        ]
        assert COLUMN_ENCODERS[column_spec.ctype](
            [row[position] for row in rows]
        ) == encoded[position]
    assert encode_ts_desc_column(begin_ts) == [encode_ts_desc(ts) for ts in begin_ts]
    assert encode_rid_column(Zone.GROOMED, BLOCK_ID, len(rows)) == [
        RID(Zone.GROOMED, BLOCK_ID, offset).to_bytes() for offset in range(len(rows))
    ]


@settings(max_examples=120, deadline=None)
@given(groomed_batches())
def test_entry_blob_columns_equals_to_blob_per_entry(batch):
    schema, spec, rows, begin_ts = batch
    definition = spec.build_definition(schema)
    extract = spec.extractor(schema)
    encoded = encode_columns(schema, rows)
    positions = [
        schema.positions(group)
        for group in (spec.equality_columns, spec.sort_columns, spec.included_columns)
    ]
    pairs = entry_blob_columns(
        definition,
        *[[encoded[p] for p in group] for group in positions],
        encode_ts_desc_column(begin_ts),
        encode_rid_column(Zone.GROOMED, BLOCK_ID, len(rows)),
    )
    assert pairs == [
        IndexEntry.create(
            definition, *extract(row), ts, RID(Zone.GROOMED, BLOCK_ID, offset)
        ).to_blob(definition)
        for offset, (row, ts) in enumerate(zip(rows, begin_ts))
    ]


def test_empty_block_builds_empty_runs():
    schema = TableSchema("e", (ColumnSpec("k"), ColumnSpec("v")), ("k",))
    indexes = ShardIndexes(
        schema, IndexSpec(("k",), (), ("v",)), StorageHierarchy(), UmziConfig(),
        secondary_specs={"by_v": IndexSpec((), ("v",))},
    )
    indexes.build_groomed_runs(DataBlock(Zone.GROOMED, 0, ()))
    for shard_index in indexes.all():
        (run,) = shard_index.index.run_lists[Zone.GROOMED].snapshot()
        assert run.entry_count == 0
        assert all(r is None for r in run.header.synopsis.ranges)


# sha256 over every shared-storage block (namespace, ordinal, payload) after
# the fixed groom below, recorded on the parent commit (4d5e3c1), where the
# groomer still built one IndexEntry per row per index.
GOLDEN_SHARED_BYTES = (
    "fc5b8e4bc7cdb5d978e15f79739148b7d7271ac6c648b8a9d6ffa988ebd5f93e"
)


def test_fixed_three_index_groom_writes_the_parents_bytes():
    schema = TableSchema(
        name="orders",
        columns=(
            ColumnSpec("order_id"),
            ColumnSpec("customer", ColumnType.STRING),
            ColumnSpec("region", ColumnType.STRING),
            ColumnSpec("amount"),
            ColumnSpec("weight", ColumnType.FLOAT64),
            ColumnSpec("tag", ColumnType.BYTES),
        ),
        primary_key=("order_id",),
        sharding_key=("order_id",),
    )
    shard = WildfireShard(
        schema,
        IndexSpec(sort_columns=("order_id",), included_columns=("weight",)),
        config=ShardConfig(secondary_indexes={
            "by_customer": IndexSpec(
                equality_columns=("customer",), included_columns=("amount", "tag")
            ),
            "by_region": IndexSpec(
                sort_columns=("region", "weight"), included_columns=("amount",)
            ),
        }),
    )
    for batch in range(3):
        shard.ingest([
            (
                (k * 7919) % 500 - 100,
                f"c{k % 37:03d}" + ("\x00" if k % 11 == 0 else ""),
                f"r{k % 5}",
                k * 31 - 2**40 * (k % 3),
                (k - 90) / 8 if k % 4 else -0.0,
                bytes([k % 256, 0, (k * 3) % 256]),
            )
            for k in range(batch * 60, batch * 60 + 90)
        ])
        shard.groomer.groom()
    assert shared_bytes_digest(shard.hierarchy) == GOLDEN_SHARED_BYTES
