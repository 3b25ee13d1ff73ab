"""The memory tier: unbounded, cheapest, supports everything.

In the paper, runs in non-persisted levels live only in memory, and memory
also serves as the hottest cache layer.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.block import Block
from repro.storage.metrics import IOStats
from repro.storage.tier import LatencyModel, StorageTier, TierName

DEFAULT_MEMORY_READ = LatencyModel(fixed_ns=100, per_byte_ns=0.01)
DEFAULT_MEMORY_WRITE = LatencyModel(fixed_ns=100, per_byte_ns=0.01)


class MemoryTier(StorageTier):
    """Block store with DRAM-like simulated latency; a write overwrites."""

    def __init__(self, stats: Optional[IOStats] = None) -> None:
        super().__init__(
            TierName.MEMORY, DEFAULT_MEMORY_READ, DEFAULT_MEMORY_WRITE, stats
        )

    def write(self, block: Block) -> None:
        nbytes = len(block.payload)
        with self._lock:
            previous = self._blocks.get(block.block_id)
            if previous is not None:
                self._used -= len(previous.payload)
            self._blocks[block.block_id] = block
            self._used += nbytes
        self._charge_write(nbytes)
