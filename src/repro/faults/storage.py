"""FaultyTier: a SharedStorage that executes a FaultPlan (ISSUE 6).

Drop-in replacement for :class:`~repro.storage.shared.SharedStorage`
(same class, subclassed) that injects the plan's storage faults at the
tier boundary, so *all* production code above it -- builder, journal,
recovery, queries -- runs unmodified against a hostile store:

* **Torn writes** are *silent*: ``write`` returns normally but the block
  never lands.  That is the realistic failure -- a process that dies
  mid-upload gets no error either; the loss is only discoverable by
  reading back (which is exactly what recovery validation does).  The
  local write-through copy still lands, so the writing "process" keeps
  functioning until it crashes -- the paper's durability story is about
  what *shared storage* holds afterwards.
* **Bit rot** mutates an already-stored data block after a later write
  completes; the v3 per-block CRC32 must catch it during recovery.
* **Transient faults** raise :class:`TransientIOError` for a bounded
  number of consecutive attempts; the hierarchy's retry loop absorbs
  them.  ``set_outage(True)`` makes every op fail until cleared, for
  give-up and degraded-mode tests.

Every injected fault increments the ``IOStats.faults`` ledger, so tests
assert injection really happened (a schedule that never fires proves
nothing).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.faults.plan import BrownoutWindow, FaultPlan, TornWrite
from repro.storage.block import Block, BlockId
from repro.storage.metrics import IOStats
from repro.storage.retry import TransientIOError
from repro.storage.shared import SharedStorage


class FaultyTier(SharedStorage):
    """Shared storage driven by a seeded :class:`FaultPlan`.

    ``run_prefix`` scopes structural faults (torn writes, bit rot) to
    index-run namespaces (``"<name>-run"`` matches ``<name>-run-g-...``
    and ``<name>-run-p-...``); transient faults hit every namespace,
    including the metadata journal.
    """

    def __init__(
        self,
        plan: FaultPlan,
        run_prefix: str,
        stats: Optional[IOStats] = None,
    ) -> None:
        super().__init__(stats)
        self.plan = plan
        self.run_prefix = run_prefix
        self._outage = False
        # Torn writes by target persist ordinal; a persist is observed
        # as a header (ordinal 0) write to a fresh run namespace.
        self._tears_by_persist: Dict[int, TornWrite] = {
            t.persist_ordinal: t for t in plan.torn_writes
        }
        self._persist_seq = 0
        self._active_tears: Dict[str, TornWrite] = {}  # namespace -> tear
        self._data_kept: Dict[str, int] = {}  # torn namespace -> kept blocks
        # Transient faults by trigger op ordinal -> consecutive failures.
        self._transient_by_op: Dict[int, int] = {
            t.op_ordinal: t.failures for t in plan.transient
        }
        self._op_seq = 0
        self._pending_failures = 0
        # Brownout windows (ISSUE 7), anchored by start_brownout(): active
        # windows as (anchor_op, failing-offset set, length) triples.
        self._brownouts_active: List[Tuple[int, frozenset, int]] = []
        # Bit rot by data-block-write ordinal (run namespaces only).
        self._rot_by_write = {r.after_write_ordinal: r for r in plan.bit_rot}
        self._data_write_seq = 0

    # -- transient faults ------------------------------------------------------

    def set_outage(self, outage: bool) -> None:
        """Hard outage: every op fails until cleared (give-up testing)."""
        self._outage = outage

    def start_brownout(self, window: BrownoutWindow) -> None:
        """Open a brownout window anchored at the *next* tier operation.

        Relative activation: the caller says "brown out now" and the
        window's pregenerated failing-offset table applies to the
        following ``window.length_ops`` operations, whatever their
        absolute ordinals -- one seed still reproduces the whole storm.
        """
        with self._lock:
            self._brownouts_active.append(
                (self._op_seq + 1, frozenset(window.failing_offsets), window.length_ops)
            )

    def _transient_gate(self, is_write: bool) -> None:
        """Raise TransientIOError if this op is scheduled to fail."""
        with self._lock:
            self._op_seq += 1
            failures = self._transient_by_op.pop(self._op_seq, None)
            if failures is not None:
                self._pending_failures += failures
            in_brownout = any(
                0 <= self._op_seq - anchor < length
                and (self._op_seq - anchor) in offsets
                for anchor, offsets, length in self._brownouts_active
            )
            self._brownouts_active = [
                (anchor, offsets, length)
                for anchor, offsets, length in self._brownouts_active
                if self._op_seq < anchor + length
            ]
            fail = self._outage or self._pending_failures > 0 or in_brownout
            if fail:
                if self._pending_failures > 0 and not self._outage and not in_brownout:
                    self._pending_failures -= 1
                if is_write:
                    self.stats.faults.transient_write_errors += 1
                else:
                    self.stats.faults.transient_read_errors += 1
        if fail:
            raise TransientIOError(
                f"injected transient {'write' if is_write else 'read'} "
                f"failure (op #{self._op_seq})"
            )

    # -- structural faults -----------------------------------------------------

    def _is_run_namespace(self, namespace: str) -> bool:
        return namespace.startswith(self.run_prefix)

    def _tear_decision(self, block_id: BlockId) -> bool:
        """True iff this block of a torn persist must be silently dropped."""
        if not self._is_run_namespace(block_id.namespace):
            return False
        with self._lock:
            if block_id.ordinal == 0:
                # A header write opens a new persist.
                self._persist_seq += 1
                tear = self._tears_by_persist.pop(self._persist_seq, None)
                if tear is None:
                    return False
                self._active_tears[block_id.namespace] = tear
                self._data_kept[block_id.namespace] = 0
                self.stats.faults.torn_writes += 1
                if tear.drop_header:
                    self.stats.faults.dropped_headers += 1
                    return True
                return False
            tear = self._active_tears.get(block_id.namespace)
            if tear is None:
                return False
            kept = self._data_kept[block_id.namespace]
            if kept < tear.keep_data_blocks:
                self._data_kept[block_id.namespace] = kept + 1
                return False
            return True

    def _maybe_rot(self, block_id: BlockId) -> None:
        """After a data-block write lands, maybe rot a stored sibling."""
        if block_id.ordinal == 0 or not self._is_run_namespace(
            block_id.namespace
        ):
            return
        with self._lock:
            self._data_write_seq += 1
            rot = self._rot_by_write.pop(self._data_write_seq, None)
            if rot is None:
                return
            victims = sorted(
                (
                    bid
                    for bid in self._blocks
                    if bid.namespace == block_id.namespace and bid.ordinal > 0
                ),
                key=lambda b: b.ordinal,
            )
            if not victims:
                return
            victim = victims[rot.victim_index % len(victims)]
            payload = self._blocks[victim].payload
            if not payload:
                return
            pos = rot.pos_seed % len(payload)
            rotten = (
                payload[:pos]
                + bytes([payload[pos] ^ rot.xor_mask])
                + payload[pos + 1 :]
            )
            self._blocks[victim] = Block(victim, rotten)
            self.stats.faults.bit_flips += 1

    # -- faulted tier operations -----------------------------------------------

    def write(self, block: Block) -> None:
        self._transient_gate(is_write=True)
        if self._tear_decision(block.block_id):
            return  # silently dropped: the "process" believes it wrote
        super().write(block)
        self._maybe_rot(block.block_id)

    def read(self, block_id: BlockId) -> Optional[Block]:
        self._transient_gate(is_write=False)
        return super().read(block_id)


__all__ = ["FaultyTier"]
