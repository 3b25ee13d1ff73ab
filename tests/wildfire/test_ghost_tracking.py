"""Column-at-a-time ghost tracking against the per-row loop it replaced.

``ShardIndexes._track_ghosts`` decides a batch's ghosts a column at a
time; ``tests/reference_ghosts.py`` keeps the per-row loop.  Twin shard
index sets -- one on the kernel, one on the loop -- take the same grooms,
splits and merges, and after every step each secondary's ``ghosted`` map
(newest beginTS included), its ``stale`` keys and every ``_key_memo``
must be equal -- the
loop's whole secondary keys cut to what the kernel keeps of them, their
columns outside the primary key (a value for one column).  The
batches draw primary keys from a tiny domain, so a key repeats inside one
batch (absent -> A -> B must be ghosted), moves back, and comes back
already ghosted, over one and two secondaries.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.definition import ColumnSpec, ColumnType
from repro.core.index import UmziConfig
from repro.storage.hierarchy import StorageHierarchy
from repro.wildfire.indexes import ShardIndexes
from repro.wildfire.schema import IndexSpec, TableSchema

from tests.conftest import groomed_block
from tests.reference_ghosts import reference_note_stale, reference_track_ghosts

COLUMNS = (
    ColumnSpec("k1"), ColumnSpec("k2"), ColumnSpec("a"),
    ColumnSpec("b", ColumnType.STRING),
)
SECONDARIES = {
    "by_a": IndexSpec(("a",), (), ()),
    "by_ba": IndexSpec((), ("b", "a")),
}
ROW = st.tuples(
    st.integers(0, 4), st.integers(0, 1), st.integers(0, 2), st.sampled_from("xy")
)
STEP = st.one_of(
    st.tuples(st.just("groom"), st.integers(0, 2), st.lists(ROW, min_size=1, max_size=8)),
    st.tuples(st.just("split"), st.integers(0, 2)),
    st.tuples(st.just("merge"), st.integers(0, 2)),
)


class Twins:
    """One shard's index set on the kernel and its twin on the loop."""

    def __init__(self, primary_key, secondaries, sources=(), clock=0):
        schema = TableSchema("g", COLUMNS, primary_key)
        specs = {name: SECONDARIES[name] for name in secondaries}
        self.kernel, self.loop = (
            ShardIndexes(
                schema, IndexSpec((), primary_key), StorageHierarchy(),
                UmziConfig(), secondary_specs=specs,
            )
            for _ in range(2)
        )
        twin = self.loop
        twin._track_ghosts = lambda raw, ts: reference_track_ghosts(twin, raw, ts)
        twin._note_stale = lambda si, pairs: reference_note_stale(twin, si, pairs)
        self.kernel.adopt_ghost_state([source.kernel for source in sources])
        self.loop.adopt_ghost_state([source.loop for source in sources])
        self.clock = clock  # block ids and beginTS, increasing
        self.assert_equal()

    def groom(self, rows):
        begin_ts = list(range(self.clock, self.clock + len(rows)))
        for indexes in (self.kernel, self.loop):
            indexes.build_groomed_runs(groomed_block(self.clock, rows, begin_ts))
        self.clock += len(rows)
        self.assert_equal()

    def assert_equal(self):
        for name, shard_index in self.kernel.secondaries.items():
            assert shard_index.ghosted == self.loop.secondaries[name].ghosted, name
            assert shard_index.stale == self.loop.secondaries[name].stale, name
        assert self.kernel._key_memo == {
            name: kernel_memo(self.loop, name, memo)
            for name, memo in self.loop._key_memo.items()
        }


def kernel_memo(indexes, name, memo):
    """A memo of whole secondary keys as the kernel keeps it."""
    equality, sort, _included = indexes.secondaries[name].positions
    kept = [
        i for i, p in enumerate(equality + sort)
        if p not in indexes._pk_positions
    ]
    if len(kept) == 1:
        return {pk: key[kept[0]] for pk, key in memo.items()}
    return {pk: tuple(key[i] for i in kept) for pk, key in memo.items()}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([("k1",), ("k1", "k2")]),
    st.sampled_from([("by_a",), ("by_a", "by_ba")]),
    st.lists(STEP, min_size=1, max_size=12),
)
@example(("k1",), ("by_a",), [("groom", 0, [(1, 0, 0, "x"), (1, 0, 1, "x")])])
@example(("k1",), ("by_a",), [
    ("groom", 0, [(1, 0, 0, "x")]),
    ("groom", 0, [(1, 0, 1, "x"), (1, 0, 0, "x"), (2, 0, 2, "y")]),
    ("split", 0),
    ("groom", 1, [(1, 0, 0, "x"), (2, 0, 2, "y")]),
    ("merge", 0),
    ("groom", 0, [(2, 0, 1, "x"), (2, 0, 2, "x")]),
])
def test_ghosts_and_memos_equal_the_per_row_loop(primary_key, secondaries, steps):
    shards = [Twins(primary_key, secondaries)]
    for step in steps:
        slot = step[1] % len(shards)
        if step[0] == "groom":
            shards[slot].groom(step[2])
        elif step[0] == "split":  # each successor adopts the source
            source = shards.pop(slot)
            shards += [
                Twins(primary_key, secondaries, [source], source.clock)
                for _ in range(2)
            ]
        elif len(shards) > 1:  # the fused target adopts both successors
            left, right = shards.pop(slot), shards.pop(slot % len(shards))
            clock = max(left.clock, right.clock)
            shards.append(Twins(primary_key, secondaries, [left, right], clock))


def test_a_key_absent_then_moved_inside_one_batch_is_ghosted():
    shard = Twins(("k1",), ("by_a",))
    shard.groom([(7, 0, 0, "x"), (7, 0, 1, "x"), (8, 0, 2, "y"), (8, 0, 2, "y")])
    assert shard.kernel.secondaries["by_a"].ghosted == {7: 1}
    assert shard.kernel._key_memo["by_a"] == {7: 1, 8: 2}
