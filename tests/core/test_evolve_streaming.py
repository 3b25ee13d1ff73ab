"""Streaming (zero-decode) evolve: equivalence with the entry-based
evolve kept in ``tests/reference_evolve.py``, partial-coverage skips, and
decode accounting."""

import pytest

from repro.core.builder import RunBuilder
from repro.core.definition import i1_definition
from repro.core.entry import RID, RID_BYTES, SORT_KEY_TS_BYTES, Zone
from repro.core.evolve import EvolveController, RidSplices, Watermark
from repro.core.ids import RunIdAllocator
from repro.core.index import UmziConfig, UmziIndex
from repro.core.journal import MetadataJournal
from repro.core.levels import LevelConfig
from repro.core.runlist import RunList
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import make_entries, run_entries
from tests.reference_evolve import reference_evolve

DEF = i1_definition()


def setup(journal=True):
    hierarchy = StorageHierarchy()
    config = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=2, size_ratio=2)
    builder = RunBuilder(DEF, hierarchy, data_block_bytes=1024)
    lists = {Zone.GROOMED: RunList("g"), Zone.POST_GROOMED: RunList("p")}
    allocator = RunIdAllocator("e")
    watermark = Watermark()
    ctrl = EvolveController(
        config, builder, hierarchy, allocator, lists, watermark,
        journal=MetadataJournal(hierarchy, "meta") if journal else None,
    )
    return ctrl, hierarchy, lists, builder, allocator


def groomed_run(builder, allocator, lists, gid_lo, gid_hi, keys, ts_start):
    run = builder.build(
        allocator.allocate(Zone.GROOMED),
        make_entries(DEF, keys, begin_ts_start=ts_start, zone=Zone.GROOMED),
        Zone.GROOMED, 0, gid_lo, gid_hi,
    )
    lists[Zone.GROOMED].push_front(run)
    return run


def new_rid_of(begin_ts):
    return RID(Zone.POST_GROOMED, 100 + begin_ts // 7, begin_ts % 7)


def run_payloads(hierarchy, run):
    return [
        hierarchy.read(run.data_block_id(i)).payload
        for i in range(run.header.num_data_blocks)
    ]


class TestBlobSpliceHelpers:
    def test_uncovered_versions_splice_to_none(self):
        assert RidSplices(lambda ts: None)[b"\xff" * 8] is None

    def test_replace_rid_keeps_everything_else(self):
        entry = make_entries(DEF, [7], begin_ts_start=11)[0]
        sort_key, blob = entry.to_blob(DEF)
        target = RID(Zone.POST_GROOMED, 42, 3)
        asked = []
        splices = RidSplices(lambda ts: asked.append(ts) or target)
        suffix = sort_key[-SORT_KEY_TS_BYTES:]
        spliced = blob[:-RID_BYTES] + splices[suffix]
        assert splices[suffix] == target.to_bytes()
        assert asked == [11]  # once per distinct suffix
        from repro.core.entry import IndexEntry
        decoded, _ = IndexEntry.from_bytes(DEF, spliced)
        assert decoded == entry._replace(rid=target)
        assert spliced[: len(sort_key)] == sort_key


class TestStreamingEquivalence:
    def test_byte_identical_runs_and_synopsis(self):
        """The streaming path must build exactly the run the entry-based
        oracle builds: same entries, same data-block bytes, same synopsis."""
        legacy_ctrl, legacy_h, legacy_lists, lb, la = setup()
        stream_ctrl, stream_h, stream_lists, sb, sa = setup()
        for ctrl_args in ((lb, la, legacy_lists), (sb, sa, stream_lists)):
            builder, allocator, lists = ctrl_args
            groomed_run(builder, allocator, lists, 3, 5, range(20, 40), 21)
            groomed_run(builder, allocator, lists, 0, 2, range(20), 1)

        legacy_entries = [
            e._replace(rid=new_rid_of(e.begin_ts))
            for run in legacy_lists[Zone.GROOMED].snapshot()
            for e in run_entries(run)
        ]
        legacy_result = reference_evolve(legacy_ctrl, 1, legacy_entries, 0, 5)

        decode = stream_h.stats.decode
        before = decode.snapshot()
        stream_result = stream_ctrl.evolve_streaming(1, new_rid_of, 0, 5)
        delta = decode.diff(before)

        assert delta.entry_decodes == 0
        assert delta.evolve_blob_splices == 40
        assert stream_result.spliced_blobs == 40
        assert stream_result.skipped_blobs == 0
        assert stream_result.new_run_entries == legacy_result.new_run_entries

        legacy_run = legacy_lists[Zone.POST_GROOMED].snapshot()[0]
        stream_run = stream_lists[Zone.POST_GROOMED].snapshot()[0]
        assert run_payloads(stream_h, stream_run) == run_payloads(
            legacy_h, legacy_run
        )
        assert stream_run.header.synopsis == legacy_run.header.synopsis
        assert stream_run.header.entry_count == legacy_run.header.entry_count
        assert stream_run.header.block_meta == legacy_run.header.block_meta

    def test_frozen_a9_fixture(self):
        """Ablation A9's verdict, at a tier-1 size: an index of groomed
        runs evolved in one PSN -- the streaming door splices every entry
        with zero decodes, the entry-based oracle decodes every entry, and
        both build the same data blocks and synopsis."""
        num_runs, per_run = 4, 300
        total = num_runs * per_run

        def groomed_index(name):
            index = UmziIndex(DEF, config=UmziConfig(
                name=name, data_block_bytes=4096,
                levels=LevelConfig(groomed_levels=3, post_groomed_levels=2,
                                   max_runs_per_level=num_runs + 1,
                                   size_ratio=4),
            ))
            for gid in range(num_runs):
                index.add_groomed_run(make_entries(
                    DEF, range(gid * per_run, (gid + 1) * per_run),
                    begin_ts_start=1 + gid * per_run, block_id=gid,
                ), gid, gid)
            return index

        def relocated(begin_ts):
            return RID(Zone.POST_GROOMED, begin_ts // 1000, begin_ts % 1000)

        legacy = groomed_index("a9-legacy")
        before = legacy.hierarchy.stats.decode.snapshot()
        entries = [
            entry._replace(rid=relocated(entry.begin_ts))
            for run in legacy.run_lists[Zone.GROOMED].snapshot()
            for entry in run_entries(run)
        ]
        assert reference_evolve(
            legacy.evolver, 1, entries, 0, num_runs - 1
        ).new_run_entries == total
        assert legacy.hierarchy.stats.decode.diff(before).entry_decodes >= total

        streaming = groomed_index("a9-stream")
        decode = streaming.hierarchy.stats.decode
        before = decode.snapshot()
        result = streaming.evolve_streaming(1, relocated, 0, num_runs - 1)
        delta = decode.diff(before)
        assert result.new_run_entries == total
        assert result.spliced_blobs == delta.evolve_blob_splices == total
        assert delta.entry_decodes == 0

        legacy_run = legacy.run_lists[Zone.POST_GROOMED].snapshot()[0]
        stream_run = streaming.run_lists[Zone.POST_GROOMED].snapshot()[0]
        assert run_payloads(streaming.hierarchy, stream_run) == run_payloads(
            legacy.hierarchy, legacy_run
        )
        assert stream_run.header.synopsis == legacy_run.header.synopsis

    def test_same_watermark_and_gc_as_legacy(self):
        ctrl, hierarchy, lists, builder, allocator = setup()
        old = groomed_run(builder, allocator, lists, 0, 4, range(20), 1)
        result = ctrl.evolve_streaming(1, new_rid_of, 0, 4)
        assert result.watermark_after == 4
        assert old.run_id in result.collected_run_ids
        assert lists[Zone.GROOMED].snapshot() == []
        assert not hierarchy.shared.contains(old.header_block_id())
        pg = lists[Zone.POST_GROOMED].snapshot()
        assert len(pg) == 1 and pg[0].entry_count == 20
        # Every migrated entry points at its post-groomed RID.
        for entry in run_entries(pg[0]):
            assert entry.rid == new_rid_of(entry.begin_ts)

    def test_psn_order_enforced(self):
        ctrl, _, _, builder, allocator = setup()
        from repro.core.evolve import EvolveError
        with pytest.raises(EvolveError):
            ctrl.evolve_streaming(2, new_rid_of, 0, 0)


class TestPartialCoverage:
    def test_unmapped_entries_skipped_and_straddler_kept(self):
        """A groomed run straddling the evolved range contributes only its
        covered entries; the rest are skipped and the run survives."""
        ctrl, hierarchy, lists, builder, allocator = setup()
        groomed_run(builder, allocator, lists, 0, 1, range(10), 1)
        straddler = groomed_run(builder, allocator, lists, 2, 6, range(10, 20), 11)
        # Only beginTS 1..10 (the first run) is covered by this post-groom;
        # the straddler overlaps the range so its blobs are streamed, but
        # none of them map.
        covered = {ts: new_rid_of(ts) for ts in range(1, 11)}
        result = ctrl.evolve_streaming(1, covered.get, 0, 2)
        assert result.spliced_blobs == 10
        assert result.skipped_blobs == 10
        assert result.new_run_entries == 10
        # max_groomed_id 6 > watermark 2: the straddler must survive.
        assert [r.run_id for r in lists[Zone.GROOMED].snapshot()] == [
            straddler.run_id
        ]

    def test_empty_coverage_builds_empty_run(self):
        ctrl, _, lists, builder, allocator = setup()
        result = ctrl.evolve_streaming(1, lambda ts: None, 0, 0)
        assert result.new_run_entries == 0
        assert ctrl.indexed_psn == 1
