"""End-to-end streaming evolve: the zero-decode indexer path points every
index entry, primary and secondary, at its post-groomed record, with zero
entry decodes during the evolve itself."""

from repro.core.definition import ColumnSpec
from repro.core.entry import Zone
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema


def make_shard(**overrides):
    schema = TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    spec = IndexSpec(("device",), ("msg",), ("reading",))
    config = ShardConfig(
        secondary_indexes={"by_reading": IndexSpec((), ("reading",), ())},
        **overrides,
    )
    return WildfireShard(schema, spec, config=config)


def run_workload(shard):
    for batch in range(6):
        shard.ingest([(d, m, batch * 100 + d * 10 + m)
                      for d in range(3) for m in range(4)])
        shard.tick()
    shard.run_cycles(4)


def all_answers(shard):
    answers = {}
    for d in range(3):
        for m in range(4):
            entry = shard.index.lookup((d,), (m,))
            record = shard.point_query((d,), (m,))
            answers[(d, m)] = None if entry is None else (
                entry.begin_ts, entry.include_values, entry.rid.zone,
                record.values,
            )
    return answers


class TestStreamingEvolveEndToEnd:
    def test_streaming_evolve_is_zero_decode(self):
        shard = make_shard(post_groom_every=100)
        for batch in range(3):
            shard.ingest([(d, m, batch + d + m) for d in range(2) for m in range(3)])
            shard.groomer.groom()
        decode = shard.hierarchy.stats.decode
        before = decode.snapshot()
        op = shard.post_groomer.post_groom()
        assert op is not None and op.splices
        result = shard.indexer.step()
        delta = decode.diff(before)
        assert result is not None
        assert result.evolve.spliced_blobs == op.record_count
        assert delta.evolve_blob_splices >= op.record_count
        assert delta.entry_decodes == 0, (
            "streaming evolve must not materialize entries"
        )
        # Entries now point into the post-groomed zone.
        hit = shard.index.lookup((1,), (1,))
        assert hit is not None and hit.rid.zone is Zone.POST_GROOMED

    def test_every_entry_points_at_its_post_groomed_record(self):
        shard = make_shard(post_groom_every=2)
        run_workload(shard)
        assert shard.indexer.evolves_applied > 0
        for (d, m), (begin_ts, included, zone, values) in all_answers(shard).items():
            assert zone is Zone.POST_GROOMED
            assert values == (d, m, 500 + d * 10 + m) and included == (values[2],)
        hits = shard.indexes.get("by_reading").index.scan((), (512,), (512,))
        assert [(e.rid.zone, shard.catalog.fetch_record(e.rid).values) for e in hits] == [
            (Zone.POST_GROOMED, (1, 2, 512))
        ]
