"""The one-pass batch door against the per-row door it replaced.

``ShardedTable.ingest`` validates a batch a column at a time, encodes and
hashes its sharding columns once and routes it under one map pin;
``tests/reference_ingest.py`` keeps the door it replaced (per-row
``key_hash`` and ``validate_row``, one ``upsert`` per row).  Twin tables
take the same random batches through both doors -- every column type,
values at and past the edges of each domain, bools and ``IntEnum``s,
wrong-arity rows -- and must commit the same rows (values *and* their
normalized types, read back from the committed column batches) to the
same shards in the same transactions, and refuse the same batches with
the same exception and message.

A refused batch is the one documented difference: the per-row door has
already committed the shards it reached before the bad row's shard, the
batch door commits nothing anywhere.
"""

import enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.definition import ColumnSpec, ColumnType
from repro.core.encoding import EncodingError
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.schema import IndexSpec, TableSchema

from tests.conftest import committed_rows
from tests.reference_ingest import reference_ingest


class Level(enum.IntEnum):
    LOW = -(2**63)
    ONE = 1
    HIGH = 2**63 - 1


COLUMNS = (
    ColumnSpec("a"),
    ColumnSpec("b", ColumnType.FLOAT64),
    ColumnSpec("c", ColumnType.STRING),
    ColumnSpec("d", ColumnType.BYTES),
)
SHARDINGS = [("a",), ("c", "b"), ("b", "d", "a")]
VALUES = [
    st.integers(-(2**63), 2**63 - 1)
    | st.sampled_from([0, 2**63 - 1, -(2**63), Level.LOW, Level.ONE, Level.HIGH]),
    st.floats(allow_nan=False)
    | st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), 3, 2**70, Level.ONE])
    | st.integers(-(2**53), 2**53),
    st.text(max_size=4) | st.sampled_from(["", "\x00"]),
    st.binary(max_size=4) | st.sampled_from([b"", b"\x00\xff"]),
]
# One value per column type that ``ColumnSpec.validate`` refuses.
POISONS = [
    [True, False, 2**63, -(2**63) - 1, "1", 1.0, float("nan"), None],
    [True, float("nan"), "1.0", 2**1100, None, b"1"],
    [b"x", 1, False, None],
    ["x", 1, bytearray(b"x"), None],
]


def make_table(sharding):
    schema = TableSchema(
        name="mix", columns=COLUMNS, primary_key=("a", "b", "c", "d"),
        sharding_key=sharding,
    )
    return ShardedTable(schema, IndexSpec(("a",), ("b", "c", "d")), num_shards=3)


@st.composite
def cases(draw):
    """(sharding key, batches): each batch may carry one bad value or row."""
    sharding = draw(st.sampled_from(SHARDINGS))
    last_key_position = max("abcd".index(name) for name in sharding)
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(st.tuples(*VALUES), max_size=24))
        if rows and draw(st.booleans()):
            at = draw(st.integers(0, len(rows) - 1))
            row = list(rows[at])
            kind = draw(st.sampled_from(["short", "long", 0, 1, 2, 3]))
            if kind == "short" and last_key_position < 3:
                # The per-row door read the sharding values before any
                # arity check; keep them, so both doors see a short row.
                row = row[: draw(st.integers(last_key_position + 1, 3))]
            elif kind in ("short", "long"):
                row.append(draw(VALUES[0]))
            else:
                row[kind] = draw(st.sampled_from(POISONS[kind]))
            rows[at] = tuple(row)
        batches.append(rows)
    return sharding, batches


def typed(row):
    return tuple((type(value), repr(value)) for value in row)


def drained(table):
    """Per shard, per committed transaction, the typed rows transposed from
    its committed columns; empties logs."""
    return [
        [[typed(row) for row in committed_rows(tx)] for tx in shard.committed_log.drain()]
        for shard in table.shards
    ]


def refusal(ingest, table, rows):
    try:
        return list(ingest(table, rows).items()), None
    except Exception as exc:  # the refusal itself is what is compared
        return None, (type(exc), str(exc))


@settings(max_examples=60, deadline=None)
@given(cases())
@example((("a",), [[
    (Level.HIGH, -0.0, "", b""), (2**63 - 1, 3, "\x00", b"\x00\xff"),
    (-(2**63), float("inf"), "x", b"x"), (Level.LOW, float("-inf"), "y", b"y"),
]]))
@example((("c", "b"), [[(1, 2.5, "k", b""), (2, True, "k", b"")]]))
@example((("b", "d", "a"), [[(k, float(k), "s", b"b") for k in range(12)]
                            + [(99, float("nan"), "s", b"b")]]))
@example((("a",), [[(k, 0.5, "s", b"") for k in range(20)] + [(2**63, 0.5, "s", b"")]]))
@example((("a",), [[(k, 0.5, "s", b"") for k in range(20)] + [(7, 0.5, "s")]]))
@example((("c", "b"), [[(k, 0.5, "s", b"") for k in range(9)]
                       + [(7, 0.5, "s", b"", 1)], [(1, 1, "t", b"t")]]))
@example((("a",), [[(Level.ONE, 1, "s", b"")], [(True, 1.0, "s", b"")]]))
def test_batch_door_matches_the_per_row_door(case):
    sharding, batches = case
    per_row, batched = make_table(sharding), make_table(sharding)
    for rows in batches:
        routed, refused = refusal(reference_ingest, per_row, rows)
        new_routed, new_refused = refusal(ShardedTable.ingest, batched, rows)
        assert new_refused == refused
        committed, new_committed = drained(per_row), drained(batched)
        if refused is None:
            assert new_routed == routed  # same shards, first-seen order
            assert new_committed == committed
        else:
            assert all(txs == [] for txs in new_committed)
            assert sum(len(rs) for txs in committed for rs in txs) < len(rows)


def test_a_refused_batch_leaves_every_committed_log_empty():
    table = make_table(("a",))
    with pytest.raises(EncodingError, match="column 'b' expects float64"):
        table.ingest([(k, 0.5, "s", b"") for k in range(12)] + [(99, "x", "s", b"")])
    assert all(shard.committed_log.drain() == [] for shard in table.shards)
    assert all(shard.hierarchy.stats.tier("ssd").writes == 0 for shard in table.shards)
