"""Composition of the three tiers into the hierarchy Umzi runs against.

Read path (paper section 7): queries read runs from the SSD cache; on a
miss the block is transferred from shared storage to the SSD cache "on a
block-basis ... to facilitate future accesses".  Memory sits in front of
the SSD as the hottest layer for non-persisted runs and recently-touched
blocks.

Write paths (sections 6.1-6.2):

* ``write_persisted`` -- the durable path: shared storage always, plus
  write-through into the SSD cache when the cache manager says the run is
  below the current cached level.
* ``write_cached_only`` -- the non-persisted-level path: memory only,
  never shared storage.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence

from repro.storage.block import Block, BlockId
from repro.storage.memory import MemoryTier
from repro.storage.metrics import IntentStats, IOStats, ReadIntent
from repro.storage import retry
from repro.storage.retry import TransientIOError
from repro.storage.shared import SharedStorage
from repro.storage.ssd import SSDTier
from repro.storage.tier import TierName


class BlockNotFoundError(KeyError):
    """A block was requested that exists in no tier."""


class StorageHierarchy:
    """Memory + SSD + shared storage with Umzi's read/write policies.

    Every read carries a :class:`ReadIntent` that drives cache admission:

    * ``ReadIntent.QUERY`` (the default) -- a shared-storage miss promotes
      the block into the SSD cache (the paper's block-basis transfer), so
      repeated queries over the same purged run warm up;
    * ``ReadIntent.MAINTENANCE`` -- background machinery (streaming evolve,
      merges, the post-groomer, recovery validation) streams each block
      once; those reads **never** promote into the memory or SSD tiers
      and never evict query-hot blocks.

    The caller names the intent where it issues the read: the query path
    takes the default, each maintenance door passes MAINTENANCE (the
    post-groom sweep hands it down its search kernels).  Per-intent
    hit/miss/promotion counters land in ``stats.intents``
    (:class:`~repro.storage.metrics.IntentStats`).
    """

    def __init__(
        self,
        ssd: Optional[SSDTier] = None,
        shared: Optional[SharedStorage] = None,
        stats: Optional[IOStats] = None,
    ) -> None:
        self.stats = stats if stats is not None else IOStats()
        self.memory = MemoryTier(stats=self.stats)
        self.ssd = ssd if ssd is not None else SSDTier(stats=self.stats)
        self.shared = shared if shared is not None else SharedStorage(stats=self.stats)
        # Re-point tiers constructed by the caller at the shared ledger so
        # one hierarchy always produces one consistent set of counters.
        self.ssd.stats = self.stats
        self.shared.stats = self.stats
        # Held for ``read``: they live as long as the ledger (``reset``
        # zeroes them in place) and an enum member hashes in Python.
        self._query_reads = self.stats.intents[ReadIntent.QUERY]
        self._maintenance_reads = self.stats.intents[ReadIntent.MAINTENANCE]
        self._attribution_local = threading.local()
        # Optional per-tier circuit breaker on the shared tier (ISSUE 7):
        # any object with check()/record_success()/record_failure()
        # (see repro.qos.breaker.CircuitBreaker).  Kept duck-typed so the
        # storage layer does not depend on the qos package.
        self._shared_breaker = None

    # -- read attribution (ISSUE 9) --------------------------------------------

    def attribute_reads(self, component: Optional[str]) -> Optional[str]:
        """Charge this thread's reads to ``component`` from here on (``None``:
        to nothing) and return what they were charged to before.

        The access-path executor names each plan step's component as it
        goes (``"index:by_customer"``, ``"records"``) and restores the
        previous one in a ``finally``, so the planner ablation can assert
        exactly which component's blocks an index-only query did *not*
        read.  A plain save/restore (it runs several times per typed
        query), thread-local; reads outside any scope charge nothing, so
        the attribution ledger stays empty (and byte-identical) for every
        pre-existing workload.
        """
        previous = getattr(self._attribution_local, "component", None)
        self._attribution_local.component = component
        return previous

    # -- transient-fault retry (ISSUE 6) + circuit breaker (ISSUE 7) -----------

    def attach_shared_breaker(self, breaker) -> None:
        """Install a circuit breaker over the shared tier (or None).

        While the breaker is open, shared reads/writes fail fast with
        :class:`~repro.storage.retry.StorageBrownout` *before* touching
        the tier or burning retry budget; successes and transient
        failures feed the breaker so it trips during brownouts and
        re-closes after successful half-open probes.
        """
        self._shared_breaker = breaker

    def _shared_call(
        self, op, arg, istats: Optional[IntentStats] = None, write: bool = False,
        error: Optional[TransientIOError] = None,
    ):
        """``op(arg)`` -- ``shared.read`` or ``shared.write`` -- behind the
        breaker, retried with capped exponential backoff.

        Transient errors (:class:`TransientIOError`) are retried up to the
        ``retry.MAX_ATTEMPTS`` budget, charging each wait to the shared tier's
        simulated clock; exhausting the budget counts a give-up and
        re-raises, so the caller sees an *error*, never a wrong answer.
        Retries and give-ups are attributed to ``istats`` (the read's
        intent) when given, and always to the aggregate fault ledger.  With
        a breaker attached, consecutive failures can trip it mid-loop, and
        the next attempt fails fast with ``StorageBrownout`` instead of
        counting a give-up.  A retried write cannot double-apply: shared
        storage is append-only, so it lands the block or fails again.
        ``error``: the caller made the first attempt itself, and it raised.
        """
        breaker = self._shared_breaker
        attempt = 0 if error is None else 1
        while True:
            if attempt:  # attempt ``attempt`` raised ``error``
                if breaker is not None:
                    breaker.record_failure()
                fstats = self.stats.faults
                if attempt >= retry.MAX_ATTEMPTS:
                    if write:
                        fstats.write_giveups += 1
                    else:
                        fstats.read_giveups += 1
                    if istats is not None:
                        istats.giveups += 1
                    raise error
                if write:
                    fstats.write_retries += 1
                else:
                    fstats.read_retries += 1
                if istats is not None:
                    istats.retries += 1
                self.stats.record_backoff(
                    TierName.SHARED.value, retry.backoff_ns(attempt)
                )
            attempt += 1
            if breaker is not None:
                breaker.check()
            try:
                result = op(arg)
            except TransientIOError as failed:
                error = failed
            else:
                if breaker is not None:
                    breaker.record_success()
                return result

    # -- write paths ---------------------------------------------------------

    def write_persisted(self, block: Block, write_through_ssd: bool = True) -> None:
        """Durable write: shared storage, plus SSD write-through if asked.

        The SSD copy is a best-effort cache insertion: if the cache is full
        the durable write still succeeds and the block simply stays
        uncached until the cache manager frees space.
        """
        self._shared_call(self.shared.write, block, write=True)
        if write_through_ssd:
            self.ssd.admit(block)

    def write_cached_only(self, block: Block) -> None:
        """Non-persisted write (section 6.1): memory only, never shared."""
        self.memory.write(block)

    # -- read path -----------------------------------------------------------

    def read(self, block_id: BlockId, intent: ReadIntent = ReadIntent.QUERY) -> Block:
        """Read through memory -> SSD -> shared storage.

        On a shared-storage hit the block is promoted into the SSD cache,
        reproducing the paper's block-basis transfer of purged runs
        (section 6.2).  The read intent alone decides: a QUERY read offers
        the block to the SSD, a MAINTENANCE read never admits, and only
        while the SSD has room does it go in (:meth:`SSDTier.admit`
        decides; a full cache never fails a read).  Raises
        :class:`BlockNotFoundError` if the block is absent everywhere.
        """
        istats = (
            self._query_reads
            if intent is ReadIntent.QUERY
            else self._maintenance_reads
        )
        istats.reads += 1
        component = getattr(self._attribution_local, "component", None)
        if component is not None:
            self.stats.record_attributed(component)
        # A local tier is asked only when its dict holds the block.
        if block_id in self.memory._blocks:
            block = self.memory.read(block_id)
            if block is not None:
                istats.memory_hits += 1
                return block
        if block_id in self.ssd._blocks:
            block = self.ssd.read(block_id)
            if block is not None:
                istats.ssd_hits += 1
                return block
        # :meth:`_shared_call`'s first attempt, inline; a failure goes on
        # in its loop, every retry, backoff and give-up counted.
        breaker, shared = self._shared_breaker, self.shared
        if breaker is not None:
            breaker.check()
        try:
            block = shared.read(block_id)
        except TransientIOError as error:
            block = self._shared_call(shared.read, block_id, istats, error=error)
        else:
            if breaker is not None:
                breaker.record_success()
        if block is None:
            raise BlockNotFoundError(block_id)
        istats.shared_reads += 1
        if intent is ReadIntent.QUERY and self.ssd.admit(block):
            istats.promotions += 1
        return block

    def read_many(
        self, block_ids: List[BlockId], intent: ReadIntent = ReadIntent.QUERY
    ) -> List[Block]:
        return [self.read(bid, intent=intent) for bid in block_ids]

    def read_shared(self, block_id: BlockId) -> Optional[Block]:
        """Read the durable shared-storage copy only; never promotes.

        Recovery validation must check the copy that survives a node crash,
        not whatever a local tier happens to hold (and must *not* resurrect
        non-persisted runs whose only blocks live locally), so it bypasses
        the local tiers entirely.  Its callers -- recovery and the journal
        -- are maintenance, and the read is counted as MAINTENANCE.
        Returns ``None`` when the shared copy is absent.
        """
        istats = self._maintenance_reads
        istats.reads += 1
        block = self._shared_call(self.shared.read, block_id, istats)
        if block is not None:
            istats.shared_reads += 1
        return block

    # -- cache-management primitives ------------------------------------------

    def drop_from_cache(self, block_ids: Sequence[BlockId]) -> int:
        """Remove blocks from the local tiers (purge, query-exit release),
        keeping the shared copies: one lock round and one ledger update
        per tier.  Returns how many of the blocks a local tier held."""
        if isinstance(block_ids, BlockId):  # itself a tuple: would "work"
            raise TypeError("drop_from_cache takes a sequence of block ids")
        in_memory = self.memory.delete_many(block_ids)
        in_ssd = self.ssd.delete_many(block_ids)
        return len({*in_memory, *in_ssd})

    def load_into_cache(self, block_id: BlockId) -> bool:
        """Fetch a block from shared storage into the SSD cache (load)."""
        if self.ssd.contains(block_id):
            return True
        block = self._shared_call(self.shared.read, block_id)
        return block is not None and self.ssd.admit(block)

    def is_cached(self, block_id: BlockId) -> bool:
        return self.memory.contains(block_id) or self.ssd.contains(block_id)

    # -- deletion --------------------------------------------------------------

    def delete_namespace(self, namespace: str) -> None:
        """Garbage-collect one logical object from every tier."""
        self.memory.delete_namespace(namespace)
        self.ssd.delete_namespace(namespace)
        self.shared.delete_namespace(namespace)

    # -- failure injection -------------------------------------------------------

    def crash_local_tiers(self) -> None:
        """Simulate a node crash: lose memory and SSD, keep shared storage.

        This is the recovery scenario of paper section 5.5 -- the indexer
        process loses all local state and must rebuild run lists from runs
        persisted in shared storage.
        """
        self.memory.delete_many(self.memory.block_ids())
        self.ssd.delete_many(self.ssd.block_ids())
