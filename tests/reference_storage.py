"""The storage layer as it was before the bound-row ledger, kept as the oracle.

Until the tier fold, each of the three tiers carried its own locked
``_blocks`` dict; every charge went ``_charge_*`` -> ``TierName.value`` ->
``LatencyModel.cost`` -> ``IOStats.record_*``, which built (and usually
threw away) a ``TierStats()`` in ``setdefault``; ``StorageHierarchy.read``
admitted a block to the SSD with ``would_fit`` *then* ``write``, two
critical sections; the shared tier had one retry loop for reads and a twin
for writes; the breaker took its lock on every check; and a query exit
dropped its blocks one ``drop_from_cache(block_id)`` at a time.  Those
paths live on here, out of ``src/``, as the reference the replacement is
compared against step by step: same tier counters, same simulated
nanoseconds, same intent / fault / breaker counters, same resident blocks
(``tests/properties/test_storage_ledger_equivalence.py``).

What the reference does *not* reproduce is the admission window itself:
single-threaded, ``would_fit``-then-``write`` and ``SSDTier.admit`` decide
alike whenever the block is not already held, which is every case the
property test generates.
"""

import threading
from typing import Dict, Iterable, List, Optional

from repro.faults.storage import FaultyTier
from repro.qos.breaker import PROBE_SUCCESSES, BreakerState, CircuitBreaker
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import BlockNotFoundError, StorageHierarchy
from repro.storage.memory import DEFAULT_MEMORY_READ, DEFAULT_MEMORY_WRITE
from repro.storage.metrics import IOStats, ReadIntent, TierStats
from repro.storage import retry
from repro.storage.retry import StorageBrownout, TransientIOError
from repro.storage.shared import (
    DEFAULT_SHARED_READ,
    DEFAULT_SHARED_WRITE,
    SharedStorageError,
)
from repro.storage.ssd import DEFAULT_SSD_READ, DEFAULT_SSD_WRITE, SSDCapacityError
from repro.storage.tier import LatencyModel, TierName


class ReferenceIOStats(IOStats):
    """The ledger with rows made (and remade) by ``setdefault`` per charge."""

    def row(self, tier: str) -> TierStats:
        return TierStats()  # nothing here binds a row; never registered

    def record_read(self, tier: str, nbytes: int, sim_ns: int) -> None:
        with self.lock:
            stats = self._tiers.setdefault(tier, TierStats())
            stats.reads += 1
            stats.bytes_read += nbytes
            stats.sim_ns += sim_ns
            self.total_sim_ns += sim_ns

    def record_write(self, tier: str, nbytes: int, sim_ns: int) -> None:
        with self.lock:
            stats = self._tiers.setdefault(tier, TierStats())
            stats.writes += 1
            stats.bytes_written += nbytes
            stats.sim_ns += sim_ns
            self.total_sim_ns += sim_ns

    def record_delete(self, tier: str, sim_ns: int) -> None:
        with self.lock:
            stats = self._tiers.setdefault(tier, TierStats())
            stats.deletes += 1
            stats.sim_ns += sim_ns
            self.total_sim_ns += sim_ns

    def record_backoff(self, tier: str, sim_ns: int) -> None:
        with self.lock:
            stats = self._tiers.setdefault(tier, TierStats())
            stats.sim_ns += sim_ns
            self.total_sim_ns += sim_ns
        self.faults.backoff_sim_ns += sim_ns

    def snapshot(self) -> Dict[str, TierStats]:
        with self.lock:
            return {name: stats.snapshot() for name, stats in self._tiers.items()}

    def reset(self) -> None:
        super().reset()
        with self.lock:
            self._tiers.clear()


class _ReferenceTier:
    """The accounting helpers the three dict-store twins shared."""

    def __init__(self, name, read_latency, write_latency, stats) -> None:
        self.name = name
        self._read_latency = read_latency
        self._write_latency = write_latency
        self.stats = stats if stats is not None else ReferenceIOStats()
        self._blocks: Dict[BlockId, Block] = {}
        self._lock = threading.Lock()

    def _charge_read(self, nbytes: int) -> None:
        self.stats.record_read(self.name.value, nbytes, self._read_latency.cost(nbytes))

    def _charge_write(self, nbytes: int) -> None:
        self.stats.record_write(
            self.name.value, nbytes, self._write_latency.cost(nbytes)
        )

    def _charge_delete(self) -> None:
        self.stats.record_delete(self.name.value, self._write_latency.cost(0))

    def read(self, block_id: BlockId) -> Optional[Block]:
        with self._lock:
            block = self._blocks.get(block_id)
        if block is not None:
            self._charge_read(block.size)
        return block

    def contains(self, block_id: BlockId) -> bool:
        with self._lock:
            return block_id in self._blocks

    def block_ids(self) -> Iterable[BlockId]:
        with self._lock:
            return list(self._blocks.keys())

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return sum(b.size for b in self._blocks.values())

    def delete_namespace(self, namespace: str) -> int:
        doomed = [bid for bid in list(self.block_ids()) if bid.namespace == namespace]
        for bid in doomed:
            self.delete(bid)
        return len(doomed)


class ReferenceMemoryTier(_ReferenceTier):
    def __init__(self, stats=None) -> None:
        super().__init__(
            TierName.MEMORY, DEFAULT_MEMORY_READ, DEFAULT_MEMORY_WRITE, stats
        )

    def write(self, block: Block) -> None:
        with self._lock:
            self._blocks[block.block_id] = block
        self._charge_write(block.size)

    def delete(self, block_id: BlockId) -> bool:
        with self._lock:
            present = self._blocks.pop(block_id, None) is not None
        if present:
            self._charge_delete()
        return present


class ReferenceSSDTier(_ReferenceTier):
    def __init__(self, capacity_bytes: Optional[int] = None, stats=None) -> None:
        super().__init__(TierName.SSD, DEFAULT_SSD_READ, DEFAULT_SSD_WRITE, stats)
        self.capacity_bytes = capacity_bytes
        self._used = 0

    def write(self, block: Block) -> None:
        with self._lock:
            previous = self._blocks.get(block.block_id)
            delta = block.size - (previous.size if previous is not None else 0)
            if self.capacity_bytes is not None and self._used + delta > self.capacity_bytes:
                raise SSDCapacityError(f"SSD capacity exceeded writing {block.block_id}")
            self._blocks[block.block_id] = block
            self._used += delta
        self._charge_write(block.size)

    def delete(self, block_id: BlockId) -> bool:
        with self._lock:
            block = self._blocks.pop(block_id, None)
            if block is not None:
                self._used -= block.size
        if block is not None:
            self._charge_delete()
        return block is not None

    def would_fit(self, nbytes: int) -> bool:
        if self.capacity_bytes is None:
            return True
        with self._lock:
            return self._used + nbytes <= self.capacity_bytes


class ReferenceSharedStorage(_ReferenceTier):
    def __init__(
        self,
        stats=None,
        read_latency: LatencyModel = DEFAULT_SHARED_READ,
        write_latency: LatencyModel = DEFAULT_SHARED_WRITE,
    ) -> None:
        super().__init__(TierName.SHARED, read_latency, write_latency, stats)

    def write(self, block: Block) -> None:
        with self._lock:
            if block.block_id in self._blocks:
                raise SharedStorageError(f"in-place update of {block.block_id}")
            self._blocks[block.block_id] = block
        self._charge_write(block.size)

    def delete(self, block_id: BlockId) -> bool:
        with self._lock:
            present = self._blocks.pop(block_id, None) is not None
        if present:
            self._charge_delete()
        return present


class ReferenceFaultyShared(ReferenceSharedStorage):
    """The reference shared tier behind a real :class:`FaultyTier`'s
    transient gate (the gate's own block store stays empty)."""

    def __init__(self, plan, run_prefix: str, stats) -> None:
        super().__init__(stats)
        self._gate = FaultyTier(plan, run_prefix, stats=stats)

    def start_brownout(self, window) -> None:
        self._gate.start_brownout(window)

    def write(self, block: Block) -> None:
        self._gate._transient_gate(is_write=True)
        super().write(block)

    def read(self, block_id: BlockId) -> Optional[Block]:
        self._gate._transient_gate(is_write=False)
        return super().read(block_id)


class ReferenceBreaker(CircuitBreaker):
    """The breaker taking its lock on every check and every success."""

    def check(self) -> None:
        with self._lock:
            state = self._state_locked()
            if state is BreakerState.OPEN:
                self._stats.breaker_fast_fails += 1
                raise StorageBrownout(
                    self.tier, self._opened_at_ns + self.config.open_ns
                )
            if state is BreakerState.HALF_OPEN:
                self._stats.breaker_probes += 1

    def record_success(self) -> None:
        with self._lock:
            state = self._state_locked()
            if state is BreakerState.HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= PROBE_SUCCESSES:
                    self._state = BreakerState.CLOSED
                    self._consecutive_failures = 0
                    self._stats.breaker_closes += 1
            elif state is BreakerState.CLOSED:
                self._consecutive_failures = 0


class ReferenceHierarchy(StorageHierarchy):
    """``StorageHierarchy`` with the replaced methods as they were; the
    attribution scope is inherited unchanged."""

    def __init__(self, ssd_capacity: Optional[int] = None, shared=None) -> None:
        stats = ReferenceIOStats()
        super().__init__(
            ssd=ReferenceSSDTier(ssd_capacity, stats),
            shared=shared if shared is not None else ReferenceSharedStorage(stats),
            stats=stats,
        )
        self.memory = ReferenceMemoryTier(stats)

    def _shared_read(self, block_id, istats=None) -> Optional[Block]:
        breaker = self._shared_breaker
        fstats = self.stats.faults
        attempt = 1
        while True:
            if breaker is not None:
                breaker.check()
            try:
                result = self.shared.read(block_id)
            except TransientIOError:
                if breaker is not None:
                    breaker.record_failure()
                if attempt >= retry.MAX_ATTEMPTS:
                    fstats.read_giveups += 1
                    if istats is not None:
                        istats.giveups += 1
                    raise
                fstats.read_retries += 1
                if istats is not None:
                    istats.retries += 1
                self.stats.record_backoff(
                    TierName.SHARED.value, retry.backoff_ns(attempt)
                )
                attempt += 1
            else:
                if breaker is not None:
                    breaker.record_success()
                return result

    def _shared_write(self, block: Block) -> None:
        breaker = self._shared_breaker
        fstats = self.stats.faults
        attempt = 1
        while True:
            if breaker is not None:
                breaker.check()
            try:
                self.shared.write(block)
            except TransientIOError:
                if breaker is not None:
                    breaker.record_failure()
                if attempt >= retry.MAX_ATTEMPTS:
                    fstats.write_giveups += 1
                    raise
                fstats.write_retries += 1
                self.stats.record_backoff(
                    TierName.SHARED.value, retry.backoff_ns(attempt)
                )
                attempt += 1
            else:
                if breaker is not None:
                    breaker.record_success()
                return

    def write_persisted(self, block: Block, write_through_ssd: bool = True) -> None:
        self._shared_write(block)
        if write_through_ssd and self.ssd.would_fit(block.size):
            self.ssd.write(block)

    def read(self, block_id, promote=True, intent=ReadIntent.QUERY) -> Block:
        istats = self.stats.intents[intent]
        istats.reads += 1
        component = getattr(self._attribution_local, "component", None)
        if component is not None:
            self.stats.record_attributed(component)
        block = self.memory.read(block_id)
        if block is not None:
            istats.memory_hits += 1
            return block
        block = self.ssd.read(block_id)
        if block is not None:
            istats.ssd_hits += 1
            return block
        block = self._shared_read(block_id, istats)
        if block is None:
            raise BlockNotFoundError(block_id)
        istats.shared_reads += 1
        if promote and intent is ReadIntent.QUERY:
            if self.ssd.would_fit(block.size):
                self.ssd.write(block)
                istats.promotions += 1
        return block

    def read_shared(self, block_id) -> Optional[Block]:
        istats = self.stats.intents[ReadIntent.MAINTENANCE]
        istats.reads += 1
        block = self._shared_read(block_id, istats)
        if block is not None:
            istats.shared_reads += 1
        return block

    def drop_from_cache(self, block_id: BlockId) -> bool:
        in_mem = self.memory.delete(block_id)
        in_ssd = self.ssd.delete(block_id)
        return in_mem or in_ssd

    def load_into_cache(self, block_id: BlockId) -> bool:
        if self.ssd.contains(block_id):
            return True
        block = self._shared_read(block_id)
        if block is None:
            return False
        if not self.ssd.would_fit(block.size):
            return False
        self.ssd.write(block)
        return True

    def crash_local_tiers(self) -> None:
        for bid in list(self.memory.block_ids()):
            self.memory.delete(bid)
        for bid in list(self.ssd.block_ids()):
            self.ssd.delete(bid)


def reference_is_pinned(lifecycle, run_id: str) -> bool:
    """``RunLifecycle.is_pinned`` as it was: one run, one trip through the
    mutex, a walk of the live-version chain."""
    with lifecycle._locked:
        for node in lifecycle._versions:
            if lifecycle._query_refs_locked(node) > 0 and run_id in node.run_ids:
                return True
        return False


def reference_release_after_query(cache, touched_runs: List) -> None:
    """``CacheManager.release_after_query`` for QUERY intent as it was: one
    ``is_pinned`` per run with something to release, one drop per block."""
    hierarchy = cache.hierarchy
    lifecycle = cache._pinned_among.__self__
    for run in touched_runs:
        fetched = run.fetched_blocks
        if not fetched or run.level <= cache.current_cached_level:
            continue
        if reference_is_pinned(lifecycle, run.run_id):
            hierarchy.stats.epochs.eviction_pin_skips += 1
            continue
        while True:
            try:
                block_index = fetched.pop()
            except KeyError:
                break
            hierarchy.drop_from_cache([run.data_block_id(block_index)])
        run.drop_decode_cache()
