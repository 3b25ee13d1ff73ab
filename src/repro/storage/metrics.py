"""I/O accounting for the simulated storage tiers.

The paper cannot report absolute numbers (Wildfire is product code), and
neither can a pure-Python reproduction hope to match a 28-core Xeon with an
NVMe SSD.  What *can* be reproduced exactly is the relative cost structure:
shared storage is orders of magnitude more expensive than the SSD cache,
which is more expensive than memory.  Every tier operation charges a
deterministic number of simulated nanoseconds here, and the benchmark
harness reports normalized simulated costs -- the same normalization the
paper uses.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, fields, replace
from typing import Dict


class ReadIntent(enum.Enum):
    """Why a block is being read -- the cache-admission signal.

    ``QUERY`` reads serve user-facing lookups and scans: on a shared-storage
    miss the block is promoted into the SSD cache so future queries hit
    locally (the paper's block-basis transfer).  ``MAINTENANCE`` reads come
    from background machinery -- streaming evolve, within-zone merges, the
    post-groomer's groomed-block scans, crash-recovery validation -- that
    touches each block once and never again; admitting those blocks would
    only displace query-hot data from a bounded cache (classic scan
    thrashing), so MAINTENANCE reads never promote into the memory or SSD
    tiers.
    """

    QUERY = "query"
    MAINTENANCE = "maintenance"


class _Counters:
    """``snapshot`` / ``diff`` / ``reset`` for a dataclass of int counters."""

    def snapshot(self):
        """Return a copy of the current counters."""
        return replace(self)

    def diff(self, earlier):
        """Return the delta between this snapshot and an ``earlier`` one."""
        return type(self)(**{
            spec.name: getattr(self, spec.name) - getattr(earlier, spec.name)
            for spec in fields(self)
        })

    def reset(self) -> None:
        for spec in fields(self):
            setattr(self, spec.name, 0)


@dataclass
class IntentStats(_Counters):
    """Per-:class:`ReadIntent` cache-path counters.

    One instance exists per intent on each :class:`IOStats` ledger.
    ``reads`` counts :meth:`StorageHierarchy.read` calls attributed to the
    intent; ``memory_hits``/``ssd_hits`` are local-tier hits,
    ``shared_reads`` are misses that went to shared storage, and
    ``promotions`` counts blocks written into the SSD cache as a result of
    such a miss.  A healthy maintenance-aware configuration shows
    ``promotions == 0`` for the MAINTENANCE intent while query promotions
    continue to warm the cache.

    Counters are plain ints incremented without the ledger lock (same
    rationale as :class:`DecodeStats`: they sit on the per-block read path
    and the GIL makes the increments adequate for benchmark/test usage).
    """

    reads: int = 0
    memory_hits: int = 0
    ssd_hits: int = 0
    shared_reads: int = 0
    promotions: int = 0
    # Transient-fault handling on the shared-read path (ISSUE 6):
    # ``retries`` counts shared reads re-issued after a TransientIOError,
    # ``giveups`` counts reads abandoned after the retry budget ran out
    # (the error propagates to the caller).
    retries: int = 0
    giveups: int = 0

    def local_hit_rate(self) -> float:
        """Fraction of reads served by a local tier (1.0 when no reads)."""
        if self.reads == 0:
            return 1.0
        return (self.memory_hits + self.ssd_hits) / self.reads


@dataclass
class FaultStats(_Counters):
    """Aggregate fault-injection and fault-handling counters (ISSUE 6).

    The injection side (``transient_*_errors``, ``torn_writes``,
    ``dropped_headers``, ``bit_flips``, ``crashes_injected``) is
    incremented by the deterministic fault injector (``repro.faults``);
    the handling side (``*_retries``, ``*_giveups``, ``backoff_sim_ns``)
    by :class:`~repro.storage.hierarchy.StorageHierarchy`'s retry loops.
    Together they make fault tests counter-asserted: every injected
    transient error must show up as exactly one retry or one give-up.

    Counters are plain ints incremented without the ledger lock (same
    rationale as :class:`DecodeStats`).
    """

    transient_read_errors: int = 0
    transient_write_errors: int = 0
    read_retries: int = 0
    write_retries: int = 0
    read_giveups: int = 0
    write_giveups: int = 0
    backoff_sim_ns: int = 0
    torn_writes: int = 0
    dropped_headers: int = 0
    bit_flips: int = 0
    crashes_injected: int = 0

    @property
    def transient_errors(self) -> int:
        return self.transient_read_errors + self.transient_write_errors

    @property
    def retries(self) -> int:
        return self.read_retries + self.write_retries

    @property
    def giveups(self) -> int:
        return self.read_giveups + self.write_giveups


@dataclass
class QosStats(_Counters):
    """Overload-protection counters (ISSUE 7).

    The admission side (``admitted``/``shed``/``deadline_misses``/
    ``queue_sim_ns``) is maintained by
    :class:`~repro.qos.admission.AdmissionController`: every query entering
    the cluster front door is either admitted (possibly after a simulated
    queueing delay, charged to ``queue_sim_ns``) or shed with a typed
    ``Overloaded``/``DeadlineExceeded`` error.  ``deadline_misses`` counts
    queries that were admitted but finished past their deadline (the work
    was done; the caller is told it was late).

    The breaker side is maintained by
    :class:`~repro.qos.breaker.CircuitBreaker`: ``breaker_opens``/
    ``breaker_closes`` count state transitions, ``breaker_probes`` counts
    half-open trial operations, and ``breaker_fast_fails`` counts
    operations rejected without touching the tier while the breaker was
    open.  ``degraded_reads`` counts queries served from local tiers plus
    a pinned versionset snapshot while the shared tier's breaker was open
    -- stale-bounded answers instead of errors.

    The scheduler side is maintained by
    :class:`~repro.qos.scheduler.DaemonScheduler`:
    ``maintenance_cycles`` counts maintenance work units that ran,
    ``maintenance_throttled`` counts work units suppressed by
    backpressure, and ``throttle_events``/``throttle_releases`` count the
    scheduler's gate closing and re-opening.

    Counters are plain ints incremented without the ledger lock (same
    rationale as :class:`DecodeStats`).
    """

    admitted: int = 0
    shed: int = 0
    deadline_misses: int = 0
    queue_sim_ns: int = 0
    degraded_reads: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    breaker_probes: int = 0
    breaker_fast_fails: int = 0
    maintenance_cycles: int = 0
    maintenance_throttled: int = 0
    throttle_events: int = 0
    throttle_releases: int = 0

    @property
    def offered(self) -> int:
        """Total queries that reached the front door (admitted + shed)."""
        return self.admitted + self.shed

    def shed_rate(self) -> float:
        """Fraction of offered queries that were shed (0.0 when idle)."""
        offered = self.offered
        if offered == 0:
            return 0.0
        return self.shed / offered


@dataclass
class TierStats(_Counters):
    """Counters for a single storage tier."""

    reads: int = 0
    writes: int = 0
    deletes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    sim_ns: int = 0


@dataclass
class DecodeStats(_Counters):
    """CPU-side counters for the run read path (zero-decode accounting).

    The simulated tiers charge I/O; these counters charge *object
    materialization*, the cost the memcmp-comparable key format exists to
    avoid.  ``entry_decodes`` counts full ``IndexEntry.from_bytes`` calls,
    ``raw_key_probes`` counts zero-decode sort-key slice fetches, and
    ``blob_copies`` counts pre-serialized entry blobs forwarded verbatim
    (the merge fast path).  A healthy hot path probes raw keys many times
    per entry decode.

    Counters are plain ints incremented without the ledger lock: they sit
    on every binary-search probe, and the GIL already makes the increments
    adequate for the single-writer benchmark/test usage they serve.
    """

    entry_decodes: int = 0
    raw_key_probes: int = 0
    blob_copies: int = 0
    # Maintenance/write-path counters.  ``evolve_blob_splices`` counts
    # entries migrated across zones as raw RID/key splices (evolve),
    # ``checksum_validations`` counts data blocks and checkpoints
    # re-validated by CRC (recovery, journal).  ``maintenance_entry_decodes``
    # stays 0: no maintenance path decodes an entry since the entry-rebuild
    # evolve and the decoding recovery check were retired; the field is kept
    # because benchmarks/e2e/tracer.py reports it.
    evolve_blob_splices: int = 0
    checksum_validations: int = 0
    maintenance_entry_decodes: int = 0


@dataclass
class EpochStats(_Counters):
    """Counters for the run lifecycle (``core.epoch``).

    Queries *pin* an immutable run-list version for their whole lifetime;
    maintenance *retires* runs it unlinked from the lists and the
    lifecycle *reclaims* them (cache blocks released, view caches
    invalidated, shared-storage namespace freed) only once no live
    version still contains them.  ``reclaims_deferred`` counts
    retirements that had to park behind a live pin; at quiescence
    ``runs_retired == runs_reclaimed``.  ``eviction_pin_skips`` counts
    cache purge/release decisions that were skipped because the target
    run was pinned.

    The refcount-cost counters make pin cost a countable invariant:

    * ``version_refs`` / ``version_unrefs`` -- Ref/Unref operations on
      version nodes.  Exactly one of each per query, so a query costs
      **exactly 2** version-refcount operations regardless of run count.
    * ``versions_reclaimed`` -- version nodes whose last reference went
      away (superseded and unpinned), unblocking runs only they covered.
    * ``versions_coalesced`` -- publications folded into a later rebuild
      instead of rebuilding the current node eagerly:
      ``note_publish`` only marks the node stale, so a merge storm's N
      back-to-back publications cost one O(runs) rebuild at the next
      pin/retire and count N-1 here.

    Counters are plain ints; the lifecycle increments the
    pin/retire/reclaim counters under its own mutex.
    """

    pins_entered: int = 0
    pins_exited: int = 0
    versions_published: int = 0
    runs_retired: int = 0
    runs_reclaimed: int = 0
    reclaims_deferred: int = 0
    eviction_pin_skips: int = 0
    version_refs: int = 0
    version_unrefs: int = 0
    versions_reclaimed: int = 0
    versions_coalesced: int = 0


_UNTOUCHED = TierStats()


def _add_fields(target, source) -> None:
    """Add every dataclass counter field of ``source`` into ``target``."""
    for spec in fields(source):
        setattr(
            target, spec.name, getattr(target, spec.name) + getattr(source, spec.name)
        )


class IOStats:
    """Thread-safe ledger of per-tier I/O counters.

    A single ``IOStats`` instance is shared by all tiers of one
    :class:`~repro.storage.hierarchy.StorageHierarchy`, so end-to-end
    experiments can ask "how many simulated nanoseconds did this query
    cost, and on which tier".  The ``decode`` sub-ledger counts CPU-side
    entry materializations on the same hierarchy.
    """

    def __init__(self) -> None:
        # Held wherever a tier row and ``total_sim_ns`` move together:
        # in ``record_backoff`` and by each tier charging the row it bound.
        self.lock = threading.Lock()
        self._tiers: Dict[str, TierStats] = {}
        # Total simulated nanoseconds charged across all tiers: the running
        # sum of every tier's ``sim_ns``, kept under the lock at each charge
        # so the simulated clock is one unlocked attribute read.
        self.total_sim_ns = 0
        self.decode = DecodeStats()
        # Epoch-pinned run lifecycle counters (see core.epoch): query pins,
        # atomic version publications, and retire/reclaim progress.
        self.epochs = EpochStats()
        # Per-intent cache-path counters (see ReadIntent): who read blocks,
        # where the reads were served, and which reads admitted blocks into
        # the SSD cache.
        self.intents: Dict[ReadIntent, IntentStats] = {
            ReadIntent.QUERY: IntentStats(),
            ReadIntent.MAINTENANCE: IntentStats(),
        }
        # Fault-injection and transient-retry counters (see FaultStats).
        self.faults = FaultStats()
        # Overload-protection counters (see QosStats): admission control,
        # circuit-breaker transitions, degraded reads, and maintenance
        # backpressure.
        self.qos = QosStats()
        # Per-component read attribution (ISSUE 9): block reads charged to
        # a named component ("index:primary", "index:by_customer",
        # "records", ...) while a StorageHierarchy.attribute_reads scope is
        # active.  Empty -- and cost-free -- outside such scopes, so
        # existing benchmarks see byte-identical ledgers.
        self._attribution: Dict[str, int] = {}

    def record_attributed(self, component: str) -> None:
        """Charge one block read to ``component`` (attribution scopes)."""
        with self.lock:
            self._attribution[component] = self._attribution.get(component, 0) + 1

    def attributed_reads(self, component: str) -> int:
        """Block reads charged to ``component`` (0 if never scoped)."""
        with self.lock:
            return self._attribution.get(component, 0)

    def attribution_snapshot(self) -> Dict[str, int]:
        """Copy of the per-component read-attribution counters."""
        with self.lock:
            return dict(self._attribution)

    def for_intent(self, intent: ReadIntent) -> IntentStats:
        """The live (mutable) counter object for one read intent."""
        return self.intents[intent]

    def intent_snapshot(self) -> Dict[str, IntentStats]:
        """Snapshot of both intents' counters, keyed by intent value."""
        return {
            intent.value: stats.snapshot()
            for intent, stats in self.intents.items()
        }

    def row(self, tier: str) -> TierStats:
        """The live counter row of one tier, created on first ask and kept
        for the life of the ledger (:meth:`reset` zeroes it in place).  A
        tier binds it once and charges it under :attr:`lock`; a row never
        charged is left out of :meth:`snapshot`."""
        with self.lock:
            return self._row_locked(tier)

    def _row_locked(self, tier: str) -> TierStats:
        row = self._tiers.get(tier)
        if row is None:
            row = self._tiers[tier] = TierStats()
        return row

    def record_backoff(self, tier: str, sim_ns: int) -> None:
        """Charge retry-backoff waiting time to a tier's simulated clock.

        No read/write is counted -- the op that failed already charged (or
        will charge) its own I/O; this is purely the time spent waiting
        between attempts.
        """
        with self.lock:
            row = self._row_locked(tier)
            row.sim_ns += sim_ns
            self.total_sim_ns += sim_ns
        self.faults.backoff_sim_ns += sim_ns

    def tier(self, tier: str) -> TierStats:
        """Return a snapshot of one tier's counters (zeros if untouched)."""
        with self.lock:
            row = self._tiers.get(tier)
            return row.snapshot() if row is not None else TierStats()

    def snapshot(self) -> Dict[str, TierStats]:
        """Return a snapshot of every tier that has been charged."""
        with self.lock:
            return {
                name: row.snapshot()
                for name, row in self._tiers.items()
                if row != _UNTOUCHED
            }

    def merge(self, other: "IOStats") -> "IOStats":
        """Fold another ledger's counters into this one; returns ``self``.

        Cluster-level aggregation (ISSUE 8): per-shard ledgers roll up
        into one cluster view with *every* sub-ledger preserved -- tier
        counters, decode, epoch/lifecycle, per-intent cache-path, fault,
        and qos counters -- not just the top-level tier sums.  Field
        lists come from the dataclasses themselves, so a counter added to
        any sub-ledger is aggregated automatically.  ``other`` is
        snapshotted first, so merging a live ledger is safe.
        """
        other_tiers = other.snapshot()
        other_attribution = other.attribution_snapshot()
        with self.lock:
            for name, tier_stats in other_tiers.items():
                _add_fields(self._row_locked(name), tier_stats)
                self.total_sim_ns += tier_stats.sim_ns
            for component, count in other_attribution.items():
                self._attribution[component] = (
                    self._attribution.get(component, 0) + count
                )
        _add_fields(self.decode, other.decode.snapshot())
        _add_fields(self.epochs, other.epochs.snapshot())
        for intent, intent_stats in other.intents.items():
            _add_fields(self.intents[intent], intent_stats.snapshot())
        _add_fields(self.faults, other.faults.snapshot())
        _add_fields(self.qos, other.qos.snapshot())
        return self

    def reset(self) -> None:
        with self.lock:
            for row in self._tiers.values():
                row.reset()  # in place: the tiers keep their bound rows
            self.total_sim_ns = 0
            self._attribution.clear()
        self.decode.reset()
        self.epochs.reset()
        for stats in self.intents.values():
            stats.reset()
        self.faults.reset()
        self.qos.reset()
