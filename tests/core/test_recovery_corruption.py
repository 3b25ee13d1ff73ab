"""Failure-injection tests: corrupted blocks in shared storage."""

import struct
from dataclasses import replace

import pytest

from repro.core.builder import RunBuilder
from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.journal import Checkpoint, MetadataJournal
from repro.core.levels import LevelConfig
from repro.core.run import RunHeader, block_checksum
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import make_entries, key_of, v1_layout_payload

DEF = i1_definition()


def build_index():
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=2, size_ratio=2)
    return UmziIndex(DEF, config=UmziConfig(name="cr", levels=levels,
                                            data_block_bytes=1024))


def corrupt_shared_block(index, block_id, payload):
    index.hierarchy.shared.delete(block_id)
    index.hierarchy.shared.write(Block(block_id, payload))


def two_runs():
    """An index with two groomed runs: ``(index, victim, survivor)``."""
    index = build_index()
    index.add_groomed_run(make_entries(DEF, range(10)), 0, 0)
    index.add_groomed_run(make_entries(DEF, range(10, 20), 11), 1, 1)
    victim, survivor = index.run_lists[Zone.GROOMED].snapshot()
    return index, victim, survivor


def many_block_header():
    """The header of a run of at least three data blocks."""
    run = RunBuilder(DEF, StorageHierarchy(), data_block_bytes=128).build(
        "r", make_entries(DEF, range(12)), Zone.GROOMED, 0, 0, 0
    )
    assert run.header.num_data_blocks >= 3
    return run.header


def recover_without_victim(index, victim, survivor):
    """Crash, recover (which must not raise), and check that only the
    survivor is left and still answers."""
    index.hierarchy.crash_local_tiers()
    state = index.recover()
    assert victim.run_id in state.incomplete_run_ids
    assert victim.run_id not in index.hierarchy.shared.namespaces()
    assert [run.run_id for run in index.all_runs()] == [survivor.run_id]
    assert index.lookup(*key_of(DEF, 5)) is not None
    return state


class TestPreChecksumFormatsRefused:
    """The run format has one version: header v3 with a checksum for every
    data block, and ``UMB2`` data blocks.  Older headers, a block without
    its checksum and v1-layout data blocks are refused; recovery drops such
    a run and carries on."""

    def test_a_version_2_header_is_dropped_as_incomplete(self):
        index, victim, survivor = two_runs()
        header_id = victim.header_block_id()
        original = index.hierarchy.shared.read(header_id).payload
        corrupt_shared_block(
            index, header_id, original[:4] + struct.pack(">H", 2) + original[6:]
        )
        with pytest.raises(ValueError, match="version 2"):
            RunHeader.from_bytes(DEF, index.hierarchy.shared.read(header_id).payload)
        state = recover_without_victim(index, victim, survivor)
        assert victim.run_id not in state.corrupt_run_ids

    def test_a_missing_block_checksum_is_dropped_as_incomplete(self):
        index, victim, survivor = two_runs()
        header_id = victim.header_block_id()
        original = index.hierarchy.shared.read(header_id).payload
        present = b"\x01" + struct.pack(">I", victim.header.block_meta[0].checksum)
        assert original.count(present) == 1
        corrupt_shared_block(index, header_id, original.replace(present, b"\x00"))
        with pytest.raises(ValueError, match="without a checksum"):
            RunHeader.from_bytes(DEF, index.hierarchy.shared.read(header_id).payload)
        state = recover_without_victim(index, victim, survivor)
        assert victim.run_id not in state.corrupt_run_ids

    @pytest.mark.parametrize("header", ["untouched", "describing-the-v1-block"])
    def test_a_v1_layout_data_block_is_dropped_as_corrupt(self, header):
        index, victim, survivor = two_runs()
        view = victim.block_view(0)
        payload = v1_layout_payload(DEF, [view.entry(i) for i in range(view.count)])
        corrupt_shared_block(index, victim.data_block_id(0), payload)
        if header != "untouched":  # a valid v3 header whose CRC matches
            metas = list(victim.header.block_meta)
            metas[0] = replace(
                metas[0], size_bytes=len(payload), checksum=block_checksum(payload)
            )
            rewritten = replace(victim.header, block_meta=tuple(metas))
            corrupt_shared_block(
                index, victim.header_block_id(), rewritten.to_bytes(DEF)
            )
        state = recover_without_victim(index, victim, survivor)
        assert state.corrupt_run_ids == [victim.run_id]

    @pytest.mark.parametrize("version", [0, 1, 2, 4, 0xFFFF])
    def test_a_header_of_any_other_version_is_refused(self, version):
        header = many_block_header()
        data = header.to_bytes(DEF)
        assert RunHeader.from_bytes(DEF, data) == header
        tampered = data[:4] + struct.pack(">H", version) + data[6:]
        with pytest.raises(ValueError, match=f"unsupported run header version {version}$"):
            RunHeader.from_bytes(DEF, tampered)

    @pytest.mark.parametrize("block", ["first", "middle", "last"])
    def test_a_zero_presence_byte_on_any_block_is_refused(self, block):
        """The checksum kept, its presence byte cleared: still refused."""
        header = many_block_header()
        position = {"first": 0, "middle": header.num_data_blocks // 2, "last": -1}[block]
        data = header.to_bytes(DEF)
        present = b"\x01" + struct.pack(">I", header.block_meta[position].checksum)
        assert data.count(present) == 1
        with pytest.raises(ValueError, match="without a checksum"):
            RunHeader.from_bytes(DEF, data.replace(present, b"\x00" + present[1:]))

    @pytest.mark.parametrize(
        "shape", ["empty", "magic-only", "one-byte-short", "one-byte-long"]
    )
    def test_a_checkpoint_of_any_other_length_is_skipped(self, shape):
        hierarchy = StorageHierarchy()
        journal = MetadataJournal(hierarchy, "meta")
        journal.append(Checkpoint(indexed_psn=1, max_covered_groomed_id=3))
        journal.append(Checkpoint(indexed_psn=5, max_covered_groomed_id=9))
        newest = BlockId("meta", 1)
        valid = hierarchy.shared.read(newest).payload
        payload = {
            "empty": b"",
            "magic-only": valid[:4],
            "one-byte-short": valid[:-1],
            "one-byte-long": valid + b"\x00",
        }[shape]
        hierarchy.shared.delete(newest)
        hierarchy.shared.write(Block(newest, payload))
        assert journal.latest() == Checkpoint(1, 3)
        assert journal.valid_checkpoints() == [Checkpoint(1, 3)]

    def test_a_checkpoint_without_its_checksum_is_skipped(self):
        hierarchy = StorageHierarchy()
        journal = MetadataJournal(hierarchy, "meta")
        journal.append(Checkpoint(indexed_psn=1, max_covered_groomed_id=3))
        # What the journal wrote before checkpoints carried a CRC: magic +
        # body, 28 bytes.
        unverified = b"UMZM" + struct.pack(">QqQ", 5, 9, 1)
        assert len(unverified) == 28
        hierarchy.shared.write(Block(BlockId("meta", 1), unverified))
        assert journal.latest() == Checkpoint(1, 3)
        assert journal.valid_checkpoints() == [Checkpoint(1, 3)]

        alone = StorageHierarchy()
        alone.shared.write(Block(BlockId("meta", 0), unverified))
        assert MetadataJournal(alone, "meta").latest() is None
        assert MetadataJournal(alone, "meta").valid_checkpoints() == []


class TestCorruptedHeaders:
    def test_garbage_header_treated_as_incomplete(self):
        index = build_index()
        index.add_groomed_run(make_entries(DEF, range(10)), 0, 0)
        index.add_groomed_run(make_entries(DEF, range(10, 20), 11), 1, 1)
        victim = index.run_lists[Zone.GROOMED].snapshot()[0]
        corrupt_shared_block(index, victim.header_block_id(), b"\x00" * 64)
        index.hierarchy.crash_local_tiers()
        state = index.recover()
        assert victim.run_id in state.incomplete_run_ids
        # The intact run still answers.
        eq, sort = key_of(DEF, 5)
        assert index.lookup(eq, sort) is not None

    def test_truncated_header_treated_as_incomplete(self):
        index = build_index()
        index.add_groomed_run(make_entries(DEF, range(10)), 0, 0)
        victim = index.run_lists[Zone.GROOMED].snapshot()[0]
        original = index.hierarchy.shared.read(victim.header_block_id())
        corrupt_shared_block(
            index, victim.header_block_id(), original.payload[:10]
        )
        index.hierarchy.crash_local_tiers()
        state = index.recover()
        assert victim.run_id in state.incomplete_run_ids

    def test_wrong_version_header_treated_as_incomplete(self):
        index = build_index()
        index.add_groomed_run(make_entries(DEF, range(10)), 0, 0)
        victim = index.run_lists[Zone.GROOMED].snapshot()[0]
        original = index.hierarchy.shared.read(victim.header_block_id())
        tampered = original.payload[:4] + b"\x00\x99" + original.payload[6:]
        corrupt_shared_block(index, victim.header_block_id(), tampered)
        index.hierarchy.crash_local_tiers()
        state = index.recover()
        assert victim.run_id in state.incomplete_run_ids

    def test_recovery_deletes_corrupt_namespaces(self):
        index = build_index()
        index.add_groomed_run(make_entries(DEF, range(10)), 0, 0)
        victim = index.run_lists[Zone.GROOMED].snapshot()[0]
        corrupt_shared_block(index, victim.header_block_id(), b"JUNK")
        index.hierarchy.crash_local_tiers()
        index.recover()
        assert victim.run_id not in index.hierarchy.shared.namespaces()
