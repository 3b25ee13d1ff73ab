"""The block store every tier is, its latency model and its ledger row.

Each tier charges deterministic simulated nanoseconds per operation to an
:class:`~repro.storage.metrics.IOStats` ledger.  Latency = fixed seek cost
plus a per-byte transfer cost -- the standard first-order model for both
local devices and network storage, and enough to reproduce the paper's
relative-cost structure (shared storage >> SSD >> memory).
"""

from __future__ import annotations

import abc
import enum
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.storage.block import Block, BlockId
from repro.storage.metrics import IOStats


class TierName(str, enum.Enum):
    """Canonical tier names used in I/O accounting."""

    MEMORY = "memory"
    SSD = "ssd"
    SHARED = "shared"


@dataclass(frozen=True)
class LatencyModel:
    """Deterministic cost model: ``fixed_ns + per_byte_ns * nbytes``.

    Defaults for each tier live on the tier classes; they are chosen to
    reproduce the orders-of-magnitude gaps of the paper's testbed (DRAM ~
    100ns, NVMe SSD ~ 100us per block, networked shared storage ~ ms).
    """

    fixed_ns: int
    per_byte_ns: float = 0.0

    def cost(self, nbytes: int) -> int:
        return int(self.fixed_ns + self.per_byte_ns * nbytes)


class StorageTier(abc.ABC):
    """A dict of blocks charging simulated latency per operation.

    What differs between tiers is what :meth:`write` may do (memory
    overwrites, the SSD is capacity-bounded, shared storage is
    append-only).  A probe -- :meth:`read`, :meth:`contains` -- is one
    ``dict`` operation and takes no lock: under the GIL it sees the block
    or it does not, and a block is immutable.  ``_lock`` is held where
    ``_blocks`` and the running ``_used`` total move together and around
    walks of the key set.  The tier binds its ledger row when ``stats`` is
    assigned and charges it, with ``total_sim_ns``, under the ledger's lock.
    """

    def __init__(
        self,
        name: TierName,
        read_latency: LatencyModel,
        write_latency: LatencyModel,
        stats: Optional[IOStats] = None,
    ) -> None:
        self.name = name
        # ``LatencyModel.cost`` is spelled out at the two charge sites.
        self._read_fixed_ns = read_latency.fixed_ns
        self._read_per_byte_ns = read_latency.per_byte_ns
        self._write_fixed_ns = write_latency.fixed_ns
        self._write_per_byte_ns = write_latency.per_byte_ns
        self._delete_ns = write_latency.cost(0)
        self._blocks: Dict[BlockId, Block] = {}
        self._used = 0
        self._lock = threading.Lock()
        self.stats = stats if stats is not None else IOStats()

    @property
    def stats(self) -> IOStats:
        return self._stats

    @stats.setter
    def stats(self, stats: IOStats) -> None:
        self._stats = stats
        self._row = stats.row(self.name.value)

    # -- the tier interface -------------------------------------------------

    @abc.abstractmethod
    def write(self, block: Block) -> None:
        """Store a block (overwriting semantics depend on the tier)."""

    def _charge_write(self, nbytes: int) -> None:
        sim_ns = int(self._write_fixed_ns + self._write_per_byte_ns * nbytes)
        stats, row = self._stats, self._row
        with stats.lock:
            row.writes += 1
            row.bytes_written += nbytes
            row.sim_ns += sim_ns
            stats.total_sim_ns += sim_ns

    def read(self, block_id: BlockId) -> Optional[Block]:
        """Return the block or ``None`` if not present in this tier."""
        block = self._blocks.get(block_id)
        if block is not None:
            nbytes = len(block.payload)
            sim_ns = int(self._read_fixed_ns + self._read_per_byte_ns * nbytes)
            stats, row = self._stats, self._row
            with stats.lock:
                row.reads += 1
                row.bytes_read += nbytes
                row.sim_ns += sim_ns
                stats.total_sim_ns += sim_ns
        return block

    def delete(self, block_id: BlockId) -> bool:
        """Remove a block; return whether it was present."""
        return bool(self.delete_many((block_id,)))

    def delete_many(self, block_ids: Iterable[BlockId]) -> List[BlockId]:
        """Remove the blocks present -- one lock round, one ledger update
        for all their deletes -- and return their ids."""
        removed = []
        pop = self._blocks.pop
        with self._lock:
            for block_id in block_ids:
                block = pop(block_id, None)
                if block is not None:
                    self._used -= len(block.payload)
                    removed.append(block_id)
        if removed:
            sim_ns = len(removed) * self._delete_ns
            stats, row = self._stats, self._row
            with stats.lock:
                row.deletes += len(removed)
                row.sim_ns += sim_ns
                stats.total_sim_ns += sim_ns
        return removed

    def contains(self, block_id: BlockId) -> bool:
        """Membership test.  Does *not* charge I/O (metadata is in memory)."""
        return block_id in self._blocks

    def block_ids(self) -> List[BlockId]:
        """All block ids stored in this tier."""
        with self._lock:
            return list(self._blocks)

    @property
    def used_bytes(self) -> int:
        """Bytes held, kept as a running total by every write and delete."""
        return self._used

    def namespaces(self) -> List[str]:
        """The logical objects (runs, block files) with a block here."""
        return sorted({bid.namespace for bid in self.block_ids()})

    def delete_namespace(self, namespace: str) -> int:
        """Delete every block of one logical object; return count removed."""
        return len(self.delete_many(
            [bid for bid in self.block_ids() if bid.namespace == namespace]
        ))
