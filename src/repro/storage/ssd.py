"""The SSD cache tier: capacity-bounded block store.

Stands in for the Intel 750 NVMe SSD of the paper's testbed.  Umzi's cache
manager (section 6.2) decides *which runs* live here -- this tier only
enforces capacity and reports pressure; it never evicts behind the cache
manager's back.  That mirrors the paper, where purge/load decisions are
level-based policy, not device-level LRU.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.block import Block
from repro.storage.metrics import IOStats
from repro.storage.tier import LatencyModel, StorageTier, TierName

DEFAULT_SSD_READ = LatencyModel(fixed_ns=80_000, per_byte_ns=0.4)
DEFAULT_SSD_WRITE = LatencyModel(fixed_ns=100_000, per_byte_ns=0.6)


class SSDCapacityError(RuntimeError):
    """Raised when a write would exceed the configured SSD capacity."""


class SSDTier(StorageTier):
    """Capacity-bounded block store with NVMe-like simulated latency.

    ``capacity_bytes=None`` means unbounded (the default for unit tests and
    microbenchmarks; end-to-end purge experiments set a budget).
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        stats: Optional[IOStats] = None,
    ) -> None:
        super().__init__(TierName.SSD, DEFAULT_SSD_READ, DEFAULT_SSD_WRITE, stats)
        self.capacity_bytes = capacity_bytes

    def admit(self, block: Block) -> bool:
        """Store ``block`` unless that would exceed the capacity -- the only
        way into this tier.  The check (of the bytes the block *adds*, a
        held copy counted off) and the insert are one critical section, so
        no writer can take the room between them; a block that does not
        fit is left out, uncharged, and ``False`` comes back."""
        nbytes = len(block.payload)
        capacity = self.capacity_bytes
        with self._lock:
            added = nbytes
            previous = self._blocks.get(block.block_id)
            if previous is not None:
                added -= len(previous.payload)
            if capacity is not None and self._used + added > capacity:
                return False
            self._blocks[block.block_id] = block
            self._used += added
        sim_ns = int(self._write_fixed_ns + self._write_per_byte_ns * nbytes)
        stats, row = self._stats, self._row
        with stats.lock:  # :meth:`_charge_write`, inline
            row.writes += 1
            row.bytes_written += nbytes
            row.sim_ns += sim_ns
            stats.total_sim_ns += sim_ns
        return True

    def write(self, block: Block) -> None:
        """:meth:`admit`, for callers to whom a full cache is an error."""
        if not self.admit(block):
            raise SSDCapacityError(
                f"SSD capacity {self.capacity_bytes}B exceeded writing "
                f"{block.block_id} ({block.size}B; used {self._used}B)"
            )

    def utilization(self) -> float:
        """Fraction of capacity in use (0.0 when unbounded)."""
        if self.capacity_bytes is None or self.capacity_bytes == 0:
            return 0.0
        return self._used / self.capacity_bytes

    def would_fit(self, nbytes: int) -> bool:
        """Would ``nbytes`` more fit right now?  An estimate for sizing a
        whole-run load up front; :meth:`admit` is what decides per block."""
        return self.capacity_bytes is None or (
            self._used + nbytes <= self.capacity_bytes
        )
