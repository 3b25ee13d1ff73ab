"""Checksum-based recovery: per-block CRC validation and journal
torn-write detection."""

from hypothesis import given, settings, strategies as st

from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.journal import Checkpoint, MetadataJournal
from repro.core.levels import LevelConfig
from repro.core.run import RunHeader, block_checksum
from repro.storage.block import Block
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import latest_checkpoint, make_entries

DEF = i1_definition()


def build_index(name="ck", runs=2, keys_per_run=30):
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=4, size_ratio=2)
    index = UmziIndex(DEF, config=UmziConfig(name=name, levels=levels,
                                             data_block_bytes=512))
    ts = 1
    for gid in range(runs):
        keys = range(gid * keys_per_run, (gid + 1) * keys_per_run)
        index.add_groomed_run(make_entries(DEF, keys, ts), gid, gid)
        ts += keys_per_run
    return index


def rewrite_shared(index, block_id, payload):
    index.hierarchy.shared.delete(block_id)
    index.hierarchy.shared.write(Block(block_id, payload))


class TestChecksumRecovery:
    def test_clean_recovery_is_zero_decode(self):
        index = build_index()
        total_blocks = sum(r.header.num_data_blocks for r in index.all_runs())
        index.hierarchy.crash_local_tiers()
        decode = index.hierarchy.stats.decode
        before = decode.snapshot()
        state = index.recover()
        delta = decode.diff(before)
        assert not state.corrupt_run_ids
        assert delta.entry_decodes == 0
        assert delta.checksum_validations >= total_blocks

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_flipped_byte_is_caught(self, data):
        """Property: one flipped byte anywhere in any v2 data-block payload
        makes recovery drop exactly that run as corrupt."""
        index = build_index()
        runs = index.all_runs()
        victim = runs[data.draw(st.integers(0, len(runs) - 1), label="run")]
        bi = data.draw(
            st.integers(0, victim.header.num_data_blocks - 1), label="block"
        )
        block_id = victim.data_block_id(bi)
        payload = bytearray(index.hierarchy.shared.read(block_id).payload)
        pos = data.draw(st.integers(0, len(payload) - 1), label="byte")
        flip = data.draw(st.integers(1, 255), label="xor")
        payload[pos] ^= flip
        rewrite_shared(index, block_id, bytes(payload))
        index.hierarchy.crash_local_tiers()

        state = index.recover()
        assert state.corrupt_run_ids == [victim.run_id]
        assert victim.run_id not in index.hierarchy.shared.namespaces()
        survivors = {r.run_id for r in index.all_runs()}
        assert victim.run_id not in survivors
        assert survivors == {r.run_id for r in runs} - {victim.run_id}

    def test_header_roundtrip_preserves_checksums(self):
        index = build_index(runs=1)
        run = index.all_runs()[0]
        blob = run.header.to_bytes(DEF)
        decoded = RunHeader.from_bytes(DEF, blob)
        assert decoded.block_meta == run.header.block_meta
        for bi, meta in enumerate(decoded.block_meta):
            payload = index.hierarchy.read(run.data_block_id(bi)).payload
            assert meta.checksum == block_checksum(payload)


class TestJournalTornWrites:
    def test_torn_tail_falls_back_to_previous_checkpoint(self):
        hierarchy = StorageHierarchy()
        journal = MetadataJournal(hierarchy, "meta")
        journal.append(Checkpoint(indexed_psn=1, max_covered_groomed_id=3))
        journal.append(Checkpoint(indexed_psn=2, max_covered_groomed_id=7))
        ids = hierarchy.shared.namespace_block_ids("meta")
        newest = hierarchy.shared.read(ids[-1])
        # Torn write: the tail checkpoint lost its last bytes.
        hierarchy.shared.delete(ids[-1])
        hierarchy.shared.write(Block(ids[-1], newest.payload[:-6]))
        assert latest_checkpoint(journal) == Checkpoint(1, 3)

    def test_flipped_byte_in_checkpoint_is_caught(self):
        hierarchy = StorageHierarchy()
        journal = MetadataJournal(hierarchy, "meta")
        journal.append(Checkpoint(indexed_psn=1, max_covered_groomed_id=3))
        journal.append(Checkpoint(indexed_psn=2, max_covered_groomed_id=7))
        ids = hierarchy.shared.namespace_block_ids("meta")
        newest = hierarchy.shared.read(ids[-1])
        tampered = bytearray(newest.payload)
        tampered[5] ^= 0x10  # inside indexed_psn
        hierarchy.shared.delete(ids[-1])
        hierarchy.shared.write(Block(ids[-1], bytes(tampered)))
        assert latest_checkpoint(journal) == Checkpoint(1, 3)

    def test_all_checkpoints_torn_means_none(self):
        hierarchy = StorageHierarchy()
        journal = MetadataJournal(hierarchy, "meta")
        journal.append(Checkpoint(indexed_psn=1, max_covered_groomed_id=3))
        ids = hierarchy.shared.namespace_block_ids("meta")
        hierarchy.shared.delete(ids[-1])
        hierarchy.shared.write(Block(ids[-1], b"JUNKJUNK"))
        assert latest_checkpoint(journal) is None
