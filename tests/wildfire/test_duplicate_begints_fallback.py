"""Duplicate ``beginTS`` values are refused before any index evolves.

Evolve keys its splice map by ``beginTS`` (its raw ``~beginTS`` sort-key
suffix).  Only the groomer writes groomed blocks, and its
``compose_begin_ts_column(cycle, count)`` keeps those unique, so a
published splice map smaller than the migrated record count means an
invariant broke: splicing from the collapsed map would silently
point several index entries at one record.  The indexer raises a typed
:class:`EvolveError` instead, before touching any index, and leaves the
PSN's splice map in place.
"""

import pytest

from repro.core.definition import ColumnSpec
from repro.core.encoding import columns_of
from repro.core.entry import Zone
from repro.core.evolve import EvolveError
from repro.wildfire.columnar import encode_columns
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema


def make_shard(**overrides):
    schema = TableSchema(
        name="dup",
        columns=(ColumnSpec("k"), ColumnSpec("v")),
        primary_key=("k",),
        sharding_key=("k",),
    )
    spec = IndexSpec(("k",), (), ("v",))
    return WildfireShard(schema, spec, config=ShardConfig(**overrides))


def groom_block_with_duplicate_ts(shard, rows, begin_ts_of):
    """Store one groomed block with caller-chosen (possibly duplicate)
    beginTS values -- standing in for a broken groomer -- and build the
    index runs over it, as the groomer would."""
    begin_ts = [begin_ts_of(i) for i in range(len(rows))]
    encoded = encode_columns(shard.schema, rows)
    block = shard.catalog.store_groomed(rows, begin_ts, encoded)
    shard.indexes.build_groomed_runs(block, columns_of(rows, range(2)), encoded)
    return block


def index_state(shard):
    """Per index: indexed PSN, both run lists and the publication seq."""
    return {
        shard_index.name: (
            shard_index.index.indexed_psn,
            [
                [run.run_id for run in shard_index.index.run_lists[zone].snapshot()]
                for zone in (Zone.GROOMED, Zone.POST_GROOMED)
            ],
            shard_index.index.lifecycle.version_seq,
        )
        for shard_index in shard.indexes.all()
    }


# beginTS per record of a three-record block, and how many are distinct.
COLLAPSES = {
    "first-two-share": ((7, 7, 9), 2),
    "last-two-share": ((5, 8, 8), 2),
    "all-share": ((7, 7, 7), 1),
}


class TestDuplicateBeginTsFallback:
    @pytest.mark.parametrize("collapse", list(COLLAPSES))
    def test_collapsed_map_is_refused_before_any_index_evolves(self, collapse):
        shard = make_shard(
            secondary_indexes={"by_v": IndexSpec((), ("v",), ())}
        )
        # Distinct keys share a beginTS: the splice map the
        # post-groomer publishes can only keep one of them.
        stamps, distinct = COLLAPSES[collapse]
        rows = [(1, 100), (2, 200), (3, 300)]
        groom_block_with_duplicate_ts(shard, rows, begin_ts_of=stamps.__getitem__)
        op = shard.post_groomer.post_groom()
        assert op is not None
        assert op.record_count == 3
        assert len(op.splices) == distinct, "duplicates must collapse"
        before = index_state(shard)

        with pytest.raises(
            EvolveError, match=rf"PSN 1: 3 records .* only {distinct} distinct"
        ):
            shard.indexer.step()

        assert index_state(shard) == before
        assert all(psn == 0 for psn, _lists, _seq in before.values())
        assert shard.indexer.evolves_applied == 0
        assert shard.post_groomer.get_op(1).splices == op.splices
        # Queries still answer every key from the groomed zone.
        for k, v in rows:
            entry = shard.index.lookup((k,))
            assert entry is not None and entry.rid.zone is Zone.GROOMED
            assert shard.catalog.fetch_record(entry.rid).values == (k, v)
            (hit,) = shard.indexes.get("by_v").index.scan((), (v,), (v,))
            assert hit.rid == entry.rid

    def test_unique_ts_stays_on_streaming_path(self):
        shard = make_shard()
        rows = [(1, 100), (2, 200), (3, 300)]
        groom_block_with_duplicate_ts(shard, rows, begin_ts_of=lambda i: 5 + i)
        op = shard.post_groomer.post_groom()
        assert len(op.splices) == op.record_count == 3
        result = shard.indexer.step()
        assert result is not None
        assert result.evolve.spliced_blobs == op.record_count

    def test_real_groomer_never_needs_the_fallback(self):
        shard = make_shard(post_groom_every=2)
        applied = []
        for batch in range(4):
            shard.ingest([(k, batch * 10 + k) for k in range(5)])
            applied += shard.tick().get("evolved", [])
        applied += [
            step for report in shard.run_cycles(2)
            for step in report.get("evolved", [])
        ]
        assert shard.indexer.evolves_applied == len(applied) > 0
        for step in applied:
            op = shard.post_groomer.get_op(step.evolve.psn)
            assert step.evolve.spliced_blobs == op.record_count
