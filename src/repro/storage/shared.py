"""The shared storage tier: append-only, block-granularity, expensive.

Simulates HDFS / GlusterFS / cloud object storage.  The semantics the paper
leans on are enforced here, not merely documented:

* **No in-place updates** -- writing an existing block id raises.
* **Whole-block access** -- reads return full blocks only.
* **File-count pressure** -- the tier counts live objects (namespaces), so
  benchmarks can show why Umzi prefers a small number of large files.
* **High, network-like latency** -- the most expensive tier by far.
"""

from __future__ import annotations

from typing import List, Optional

from repro.storage.block import Block, BlockId
from repro.storage.metrics import IOStats
from repro.storage.tier import LatencyModel, StorageTier, TierName

DEFAULT_SHARED_READ = LatencyModel(fixed_ns=2_000_000, per_byte_ns=2.0)
DEFAULT_SHARED_WRITE = LatencyModel(fixed_ns=3_000_000, per_byte_ns=3.0)


class SharedStorageError(RuntimeError):
    """Violation of shared-storage semantics (e.g. in-place update)."""


class SharedStorage(StorageTier):
    """Append-only distributed-storage simulation.

    Durability is assumed: anything written here survives "node crashes"
    (deleting local tiers), which is exactly the recovery contract of
    paper section 5.5.
    """

    def __init__(self, stats: Optional[IOStats] = None) -> None:
        super().__init__(
            TierName.SHARED, DEFAULT_SHARED_READ, DEFAULT_SHARED_WRITE, stats
        )
        self._total_bytes_ever_written = 0

    def write(self, block: Block) -> None:
        nbytes = len(block.payload)
        with self._lock:
            if block.block_id in self._blocks:
                raise SharedStorageError(
                    f"in-place update of {block.block_id} is not supported by "
                    "shared storage; write a new block instead"
                )
            self._blocks[block.block_id] = block
            self._used += nbytes
            self._total_bytes_ever_written += nbytes
        self._charge_write(nbytes)

    def namespace_block_ids(self, namespace: str) -> List[BlockId]:
        """All block ids of one object, sorted by ordinal."""
        ids = [bid for bid in self.block_ids() if bid.namespace == namespace]
        return sorted(ids, key=lambda b: b.ordinal)

    @property
    def write_amplification_bytes(self) -> int:
        """Total bytes ever written -- numerator of write amplification."""
        return self._total_bytes_ever_written
