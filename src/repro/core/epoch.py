"""Version-set run lifecycle: safe reclamation under live queries.

The paper runs grooming, post-grooming, evolution and merging *concurrently*
with lock-free queries over one multi-zone index.  Unlinking a run from a
run list is an atomic pointer publication (``runlist.py``), so readers never
see a torn list -- but unlinking is only half the story.  The other half is
**reclamation**: once a merge or evolve has replaced a span of runs, their
data blocks are freed from shared storage and every local tier.  A query
that snapshotted the lists a microsecond earlier still holds handles to
those runs and will fault (``BlockNotFoundError``) when it reaches them.

This module closes that race with the LevelDB/RocksDB version-set design.
Every run-list publication makes the current :class:`RunListVersion` stale;
the next pin or retire rebuilds one immutable node carrying a refcount.  A
query pins the *current* node with a single Ref and releases it with a
single Unref -- **O(1) per query, independent of run count** (the countable
invariant: exactly two refcount operations per query,
``EpochStats.version_refs`` + ``version_unrefs``).  Retirement walks the
live-version chain and physically frees a run only once no live version
contains it; an obsolete version dies (``versions_reclaimed``) when its
last reader unrefs it, unblocking the runs only it still covered.

Publication order makes this sound: a run is always unlinked from its
lists (one atomic tuple publication) *before* it is retired, so a pin
either captured the run before the retire check (deferral) or can no
longer see it at all.  Every holder of a pin releases it in a ``finally``
or explicitly.  The lifecycle mutex is a plain, non-reentrant lock, so no
release may run from inside a locked section -- which a finalizer could.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Collection, List, Optional, Set, Tuple

from repro.core.run import IndexRun
from repro.storage.metrics import EpochStats

_new_object = object.__new__


@dataclass(frozen=True)
class RunListVersion:
    """One immutable, query-visible snapshot of an index's run lists.

    ``groomed`` holds only the *visible* groomed runs (the watermark filter
    of section 5.4 already applied -- the filter is part of the atomic
    collection, see :meth:`repro.core.index.UmziIndex._collect_version`),
    so ``candidates()`` is exactly the newest-first run set a query
    searches.  ``version_id`` is the lifecycle's publication sequence
    number at collection time.
    """

    version_id: int
    groomed: Tuple[IndexRun, ...]
    post_groomed: Tuple[IndexRun, ...]
    watermark: int

    def candidates(self) -> List[IndexRun]:
        """Candidate runs, newest first (visible groomed + post-groomed)."""
        return list(self.groomed) + list(self.post_groomed)


class _VersionNode:
    """One live entry of the version chain.

    Wraps the immutable :class:`RunListVersion` with the mutable lifecycle
    state the reclamation walk needs: the refcount (one implicit ref while
    the node is *current*, plus one per pinned query) and the precomputed
    candidate tuple and run-id set.  The chain itself is the lifecycle's
    ``_versions`` list (oldest to newest); a dead node holds no link back
    into it, so superseded versions -- and the run objects only they
    referenced -- become collectable the moment they are removed.
    ``seq`` is the lifecycle publication sequence the node was built at
    -- the staleness check is one int compare.
    """

    __slots__ = ("version", "runs", "run_ids", "refs", "seq")

    def __init__(self, version: RunListVersion, seq: int) -> None:
        self.version = version
        self.runs = tuple(version.candidates())
        self.run_ids = frozenset([run.run_id for run in self.runs])
        self.refs = 1  # the implicit "current version" reference
        self.seq = seq


class QueryPin:
    """A query's Ref on one :class:`_VersionNode`.

    ``version`` / ``runs`` are the pinned snapshot.  Whoever pins
    releases, in a ``finally`` or explicitly (the query executor's exits,
    :class:`~repro.core.index.SnapshotPin`, the shard copy stream);
    nothing else does.  Releasing twice is a no-op.  Only
    :meth:`RunLifecycle.pin` makes one, with no ``__init__`` frame.
    """

    __slots__ = ("version", "runs", "_lifecycle", "_node", "_released")

    def release(self) -> None:
        self._lifecycle.release(self)

    def __enter__(self) -> "QueryPin":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class _RetiredRun:
    """One parked reclamation: the run id plus the deferred free action."""

    __slots__ = ("run_id", "reclaim")

    def __init__(self, run_id: str, reclaim: Callable[[], None]) -> None:
        self.run_id = run_id
        self.reclaim = reclaim


class RunLifecycle:
    """Pin/retire/reclaim coordinator for one index instance.

    * ``collect`` composes the published run-list tuples plus the
      watermark into one :class:`RunListVersion` (see
      :meth:`repro.core.index.UmziIndex._collect_version`).  It is invoked
      under the lifecycle mutex whenever the current node is stale, so it
      must not take locks -- the run lists' ``snapshot()`` reads are
      lock-free by design.
    * Queries call :meth:`pin`: one Ref on the current version node.
    * Maintenance calls :meth:`retire` *after* atomically unlinking the run
      from its list; the reclaim action executes immediately when no live
      version covers the run, and is parked otherwise, draining when the
      covering version dies.
    * The cache manager consults :meth:`pinned_among` before evicting.

    All counters land on the shared :class:`EpochStats` ledger
    (``IOStats.epochs``), so benchmarks can counter-assert "exactly two
    refcount operations per query" the same way they assert I/O costs.
    """

    def __init__(
        self, stats: EpochStats, collect: Callable[[], RunListVersion]
    ) -> None:
        self.stats = stats
        self._collect = collect
        self._locked = threading.Lock()
        # The publication sequence: every run-list mutation bumps it.
        self.version_seq = 0
        # The current version node and the live chain (oldest -> newest; a
        # node is live while it is current or some query still refs it).
        self._current: Optional[_VersionNode] = None
        self._versions: List[_VersionNode] = []
        self._retired: List[_RetiredRun] = []

    # -- version publication -----------------------------------------------------

    def note_publish(self) -> int:
        """Record one atomic run-list publication; returns the sequence.

        A publication only makes the current version node **stale**: the
        O(runs) rebuild of the candidate tuple + run-id set is deferred to
        the first pin/retire that actually needs the current node (the
        seq-mismatch check).  A merge storm's N back-to-back publications
        therefore cost one rebuild instead of N; the N-1 folded
        publications are counted in ``EpochStats.versions_coalesced``.
        Queries never observe staleness -- every pin refreshes first --
        and a stale current node between publications only makes
        ``pinned_among``/``_covered_locked`` err on the safe side (runs
        look covered slightly longer).

        Deliberately **no** reclaim actions execute here:
        ``note_publish`` is invoked from ``RunList._publish_locked``, i.e.
        while the caller still holds the run list's mutation lock, and
        storage-tier frees must never serialize run-list mutations.
        Anything a dying predecessor unblocks stays parked in ``_retired``
        and drains on the next lifecycle operation that runs unlocked (the
        retire that follows every unlink, a pin, a release, or a backlog
        probe).
        """
        with self._locked:
            self.version_seq += 1
            self.stats.versions_published += 1
            return self.version_seq

    def _current_node_locked(self) -> _VersionNode:
        """The fresh current node, rebuilding it from the collector when a
        publication made it stale."""
        old = self._current
        if old is not None and old.seq == self.version_seq:
            return old
        folded = self.version_seq - (old.seq if old is not None else 0)
        if folded > 1:
            self.stats.versions_coalesced += folded - 1
        node = _VersionNode(self._collect(), self.version_seq)
        self._versions.append(node)
        self._current = node
        if old is not None:
            old.refs -= 1  # drop the implicit "current" reference
            if old.refs == 0:
                self._kill_node_locked(old)
        return node

    def _kill_node_locked(self, node: _VersionNode) -> None:
        """Drop a dead version from the live chain (bookkeeping only --
        never runs reclaim actions; callers drain those where safe)."""
        self._versions.remove(node)
        self.stats.versions_reclaimed += 1

    # -- the query side ----------------------------------------------------------

    def pin(self) -> QueryPin:
        """Ref the current version node: the query's snapshot.

        The current node -- rebuilt from the collector at most once per
        publication -- *is* the snapshot, and pinning is one refcount
        increment under the mutex (``EpochStats.version_refs``), with no
        per-run loop.  Snapshot and registration are atomic against
        :meth:`retire`.
        """
        with self._locked:
            node = self._current
            if node is None or node.seq != self.version_seq:
                node = self._current_node_locked()
            node.refs += 1
            self.stats.version_refs += 1
            self.stats.pins_entered += 1
            pin = _new_object(QueryPin)
            pin.version, pin.runs, pin._node = node.version, node.runs, node
            pin._lifecycle, pin._released = self, False
            ready = self._retired and self._drain_locked()
        if ready:
            self._reclaim(ready)
        return pin

    def release(
        self,
        pin: QueryPin,
        after: Optional[Callable[..., None]] = None,
        *args,
    ) -> None:
        """Unref the pin's version; drain any reclamations it was blocking.

        A single Unref under the mutex; a second release of the same pin
        is a no-op.  A superseded version whose last reader just left dies
        here, even when the Unrefs arrive out of publication order (a
        long-lived snapshot may outlive many newer versions).
        ``after(*args)`` runs once the pin no longer counts (the query
        executor's purged-block release hook and the runs it touched) --
        outside the lifecycle mutex, like the reclaim actions.
        """
        with self._locked:
            if pin._released:
                return
            pin._released = True
            node = pin._node
            node.refs -= 1
            self.stats.version_unrefs += 1
            self.stats.pins_exited += 1
            if node.refs == 0 and node is not self._current:
                self._kill_node_locked(node)
            ready = self._retired and self._drain_locked()
        if ready:
            self._reclaim(ready)
        if after is not None:
            after(*args)

    # -- the maintenance side ----------------------------------------------------

    def retire(self, run_id: str, reclaim: Callable[[], None]) -> None:
        """Hand an unlinked run's free action to the lifecycle.

        Must be called only *after* the run has been atomically removed
        from every published run list (so no new pin can acquire it).
        Reclaims inline when no live version covers the run; parks behind
        them otherwise.
        """
        with self._locked:
            # Maintenance-side refresh: make sure the current node reflects
            # the unlink that preceded this retire (O(runs), but on the
            # maintenance thread, never under a query pin).
            self._current_node_locked()
            ready = self._drain_locked()
            self.stats.runs_retired += 1
            inline = not self._covered_locked(run_id)
            if not inline:
                self.stats.reclaims_deferred += 1
                self._retired.append(_RetiredRun(run_id, reclaim))
        self._reclaim(ready)
        if inline:
            # Nothing covered the run at the (locked) check, and nothing
            # can start to: the run is gone from every published list and
            # every future version.  Free outside the mutex so
            # storage-tier work never serializes pin entry/exit.
            reclaim()
            self.stats.runs_reclaimed += 1

    def _covered_locked(self, run_id: str) -> bool:
        """Is the run reachable from any live version (the current node or
        a superseded one some query still refs)?"""
        for node in self._versions:
            if run_id in node.run_ids:
                return True
        return False

    def _drain_locked(self) -> List[_RetiredRun]:
        """Pop every retired run no live version covers anymore."""
        ready: List[_RetiredRun] = []
        parked: List[_RetiredRun] = []
        for item in self._retired:
            (parked if self._covered_locked(item.run_id) else ready).append(item)
        self._retired = parked
        return ready

    def _reclaim(self, ready: List[_RetiredRun]) -> None:
        for item in ready:
            item.reclaim()
            self.stats.runs_reclaimed += 1

    # -- inspection --------------------------------------------------------------

    def pinned_among(self, run_ids: Collection[str]) -> Set[str]:
        """Which of ``run_ids`` does some live *query* pin reference now?

        Used by cache eviction, one pass under the mutex per query exit:
        a run is protected while some in-flight query may still read its
        blocks.  The current node's implicit reference does **not** count
        -- every live run is in the current version, and eviction of
        unread runs must stay possible -- only versions a query actually
        refs protect their runs.
        """
        with self._locked:
            pinned: Set[str] = set()
            for node in self._versions:
                if self._query_refs_locked(node) > 0:
                    pinned.update(node.run_ids.intersection(run_ids))
            return pinned

    def _query_refs_locked(self, node: _VersionNode) -> int:
        """Refs held by queries (the implicit current ref excluded)."""
        return node.refs - (1 if node is self._current else 0)

    def pinned_run_ids(self) -> List[str]:
        with self._locked:
            ids: Set[str] = set()
            for node in self._versions:
                if self._query_refs_locked(node) > 0:
                    ids.update(node.run_ids)
        return sorted(ids)

    def retired_backlog(self) -> int:
        """Retired-but-not-yet-reclaimed run count (0 when idle)."""
        with self._locked:
            ready = self._drain_locked()
            backlog = len(self._retired)
        self._reclaim(ready)
        return backlog


# ---------------------------------------------------------------------------
# reclaim-action factories (shared by the merge and evolve controllers)
# ---------------------------------------------------------------------------


def delete_run_action(hierarchy, run: IndexRun) -> Callable[[], None]:
    """Full reclamation: shared-storage namespace + decoded-view cache."""

    def free() -> None:
        hierarchy.delete_namespace(run.run_id)
        run.drop_decode_cache()

    return free


def delete_namespace_action(hierarchy, run_id: str) -> Callable[[], None]:
    """Namespace-only reclamation (ancestor runs known by id alone)."""

    def free() -> None:
        hierarchy.delete_namespace(run_id)

    return free


def drop_cache_action(hierarchy, run: IndexRun) -> Callable[[], None]:
    """Local-tier-only reclamation (ancestor-protected shared copies)."""

    def free() -> None:
        hierarchy.drop_from_cache(run.all_block_ids())
        run.drop_decode_cache()

    return free


__all__ = [
    "QueryPin",
    "RunLifecycle",
    "RunListVersion",
    "delete_namespace_action",
    "delete_run_action",
    "drop_cache_action",
]
