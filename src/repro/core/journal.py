"""Durable index metadata (paper section 5.5).

"After each index evolve operation, the maximum groomed blocked ID for the
post-groomed run list and IndexedPSN are also persisted."

Shared storage is append-only, so the journal writes a new checkpoint block
per evolve (monotonic ordinal within one namespace) and recovery reads the
newest one.  Old checkpoints are trimmed opportunistically to keep the
object small.

Every checkpoint block carries a CRC32 of its own payload: a torn write
(crash mid-append, bit rot) fails verification and recovery falls back to
the newest *valid* checkpoint instead of recovering from garbage.  A
block of any other length (truncated, padded, or an unverifiable
checksum-less body) is skipped the same way.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.run import block_checksum
from repro.faults.crash import crash_point
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy

_MAGIC = b"UMZM"
_FORMAT = ">QqQ"  # indexed_psn, watermark, checkpoint ordinal echo
# Valid checkpoints a trim keeps.
KEEP_CHECKPOINTS = 4
_BODY_LEN = 4 + struct.calcsize(_FORMAT)
_CRC_LEN = 4


@dataclass(frozen=True)
class Checkpoint:
    """One persisted metadata point."""

    indexed_psn: int
    max_covered_groomed_id: int


class MetadataJournal:
    """Append-only checkpoint log in shared storage."""

    def __init__(self, hierarchy: StorageHierarchy, namespace: str) -> None:
        self.hierarchy = hierarchy
        self.namespace = namespace
        self._next_ordinal = self._discover_next_ordinal()
        # Validity cache: ordinals this process appended are valid by
        # construction; pre-existing ordinals (recovery) are validated
        # lazily on first trim and the verdict remembered, so the
        # steady-state trim path never re-reads checkpoint blocks.
        self._validity: Dict[int, bool] = {}

    def _discover_next_ordinal(self) -> int:
        ids = self.hierarchy.shared.namespace_block_ids(self.namespace)
        return (max(bid.ordinal for bid in ids) + 1) if ids else 0

    def append(self, checkpoint: Checkpoint) -> None:
        crash_point("journal.pre_append")
        body = _MAGIC + struct.pack(
            _FORMAT,
            checkpoint.indexed_psn,
            checkpoint.max_covered_groomed_id,
            self._next_ordinal,
        )
        payload = body + struct.pack(">I", block_checksum(body))
        block = Block(BlockId(self.namespace, self._next_ordinal), payload)
        # Durable path (with transient-error retry); never SSD-cached --
        # the journal is only ever read during recovery.
        self.hierarchy.write_persisted(block, write_through_ssd=False)
        self._validity[self._next_ordinal] = True
        self._next_ordinal += 1
        self._trim()

    def valid_checkpoints(self) -> List[Checkpoint]:
        """All checkpoints that verify, newest first.

        Recovery uses the full list, not only the newest checkpoint, when
        the newest one promises coverage that shared storage cannot
        actually support -- e.g. the post-groomed run a checkpoint
        described was torn mid-write -- and must fall back to the newest
        checkpoint consistent with the surviving runs.
        """
        ids = self.hierarchy.shared.namespace_block_ids(self.namespace)
        checkpoints: List[Checkpoint] = []
        for bid in reversed(ids):
            block = self.hierarchy.read_shared(bid)
            if block is None:
                continue
            checkpoint = self._try_decode(block.payload)
            if checkpoint is not None:
                checkpoints.append(checkpoint)
        return checkpoints

    def _try_decode(self, payload: bytes) -> Optional[Checkpoint]:
        if payload[:4] != _MAGIC or len(payload) != _BODY_LEN + _CRC_LEN:
            return None
        (stored,) = struct.unpack_from(">I", payload, _BODY_LEN)
        self.hierarchy.stats.decode.checksum_validations += 1
        if block_checksum(payload[:_BODY_LEN]) != stored:
            return None
        indexed_psn, watermark, _ordinal = struct.unpack_from(_FORMAT, payload, 4)
        return Checkpoint(indexed_psn=indexed_psn, max_covered_groomed_id=watermark)

    def _is_valid(self, bid: BlockId) -> bool:
        cached = self._validity.get(bid.ordinal)
        if cached is not None:
            return cached
        block = self.hierarchy.read_shared(bid)
        verdict = block is not None and self._try_decode(block.payload) is not None
        self._validity[bid.ordinal] = verdict
        return verdict

    def _trim(self) -> None:
        """Drop the oldest checkpoints, keeping the newest
        :data:`KEEP_CHECKPOINTS` *valid* ones (and anything newer than them).

        Counting raw ordinals instead of validity lost the newest valid
        checkpoint whenever the tail held ``keep`` torn blocks -- recovery
        would then find no checkpoint at all (the ISSUE 6 regression).
        Torn blocks older than the cutoff are still deleted; if fewer
        than ``keep`` checkpoints verify, nothing is deleted.
        """
        keep = KEEP_CHECKPOINTS
        ids = self.hierarchy.shared.namespace_block_ids(self.namespace)
        if len(ids) <= keep:
            return
        cutoff: Optional[int] = None
        valid_seen = 0
        for bid in reversed(ids):
            if self._is_valid(bid):
                valid_seen += 1
                if valid_seen == keep:
                    cutoff = bid.ordinal
                    break
        if cutoff is None:
            return  # fewer than ``keep`` valid checkpoints survive: keep all
        for bid in ids:
            if bid.ordinal < cutoff:
                self.hierarchy.shared.delete(bid)
                self._validity.pop(bid.ordinal, None)


__all__ = ["Checkpoint", "MetadataJournal"]
