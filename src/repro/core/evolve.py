"""The index evolve operation (paper section 5.4).

When the post-groomer moves groomed data blocks into the post-groomed zone,
the index must follow: entries pointing at deprecated groomed blocks are
replaced by entries pointing at the new post-groomed blocks.  Evolve is
decomposed into three sub-operations, each a single atomic modification,
so concurrent lock-free queries always see a valid index:

1. **Build** a post-groomed run for the new blocks and atomically add it to
   the post-groomed run list (the run still records the *groomed* block-id
   range it corresponds to).
2. **Advance the watermark**: atomically raise the maximum groomed block id
   covered by the post-groomed run list.  Groomed runs whose end id is no
   larger than the watermark are now automatically ignored by queries.
3. **Garbage-collect** the obsolete groomed runs from the groomed list.

Between steps the index may contain duplicates (the same record version in
both zones); section 5.4 shows these are harmless because reconciliation
keeps only the newest version per key at query time.  Evolve operations are
applied in strict PSN order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.builder import RunBuilder
from repro.core.epoch import delete_run_action, drop_cache_action
from repro.core.entry import (
    RID,
    RID_BYTES,
    SORT_KEY_TS_BYTES,
    Zone,
    begin_ts_of_sort_key,
)
from repro.core.ids import RunIdAllocator
from repro.core.journal import Checkpoint, MetadataJournal
from repro.core.levels import LevelConfig
from repro.core.merge import merge_blocks
from repro.core.run import IndexRun, Synopsis
from repro.core.runlist import RunList
from repro.faults.crash import crash_point
from repro.storage.hierarchy import StorageHierarchy


class EvolveError(RuntimeError):
    """Out-of-order PSN or structurally invalid evolve request."""


class Watermark:
    """The maximum groomed block id covered by the post-groomed run list.

    Reads and writes are single int-reference assignments -- atomic for
    lock-free readers, mirroring the paper's atomic update of this value.
    """

    def __init__(self) -> None:
        self._value = -1  # no groomed block covered yet

    @property
    def value(self) -> int:
        return self._value

    def advance(self, new_value: int) -> None:
        if new_value < self._value:
            raise EvolveError(
                f"watermark may only advance ({self._value} -> {new_value})"
            )
        self._value = new_value  # atomic publication


class RidSplices(dict):
    """Raw ``~beginTS`` suffix -> the serialized new RID of that version.

    What a streaming evolve splices over its entries' RID suffixes (``None``:
    the version is outside the operation's coverage).  A post-groom
    publishes one filled from its blocks; one over ``new_rid_of(begin_ts)``
    fills itself once per distinct suffix.  One instance can serve the
    evolves of every index of one PSN: they migrate the same versions.
    """

    def __init__(self, new_rid_of: Optional[Callable] = None) -> None:
        super().__init__()
        self._new_rid_of = new_rid_of

    def __missing__(self, suffix: bytes) -> Optional[bytes]:
        if self._new_rid_of is None:
            return None
        rid = self._new_rid_of(begin_ts_of_sort_key(suffix))
        spliced = self[suffix] = None if rid is None else rid.to_bytes()
        return spliced


@dataclass
class EvolveResult:
    """What one evolve operation did.

    ``spliced_blobs``/``skipped_blobs`` are only populated by the
    streaming path: spliced entries migrated as raw byte splices, skipped
    entries fell outside the evolved PSN's coverage (already evolved by an
    earlier operation, or groomed after this one was published).
    """

    psn: int
    new_run_id: str
    new_run_entries: int
    watermark_before: int
    watermark_after: int
    collected_run_ids: Tuple[str, ...]
    spliced_blobs: int = 0
    skipped_blobs: int = 0


class EvolveController:
    """Executes evolve operations in PSN order for one index instance.

    Evolve is maintenance: the streaming path reads every covered groomed
    run end to end exactly once, so those block fetches carry
    ``ReadIntent.MAINTENANCE`` -- they are served from whatever tier holds
    them but are never promoted into the SSD cache and never evict
    query-hot blocks of a purged level.
    """

    def __init__(
        self,
        config: LevelConfig,
        builder: RunBuilder,
        hierarchy: StorageHierarchy,
        allocator: RunIdAllocator,
        run_lists: Dict[Zone, RunList],
        watermark: Watermark,
        journal: Optional[MetadataJournal] = None,
        write_through: Optional[Callable[[int], bool]] = None,
        ancestor_protector: Optional[Callable[[str], bool]] = None,
        reclaimer: Optional[Callable[[str, Callable[[], None]], None]] = None,
        structure_lock: Optional[threading.Lock] = None,
    ) -> None:
        self.config = config
        self.builder = builder
        self.hierarchy = hierarchy
        self.allocator = allocator
        self.run_lists = run_lists
        self.watermark = watermark
        self.journal = journal
        # The optional callbacks are MergeController's (see there).
        self._write_through = write_through or (lambda _: True)
        self._ancestor_protector = ancestor_protector or (lambda _: False)
        self._reclaim = reclaimer or (lambda _run_id, free: free())
        self.indexed_psn = 0  # PSNs start at 1; 0 means "nothing evolved yet"
        # Serializes evolves among themselves AND against merges when the
        # index supplies its shared maintenance structure mutex (an evolve's
        # step 3 unlinks groomed runs a concurrent merge may have selected
        # as victims).  Queries never take this lock.
        self._lock = structure_lock or threading.Lock()

    # -- the full operation ------------------------------------------------------------

    def evolve_streaming(
        self,
        psn: int,
        new_rid_of: Callable[[int], Optional[RID]],
        min_groomed_id: int,
        max_groomed_id: int,
    ) -> EvolveResult:
        """Run all three sub-operations for one post-groom operation.

        ``[min_groomed_id, max_groomed_id]`` is the groomed block-id range
        the post-groom consumed; ``new_rid_of`` is step 1's RID source
        (see :meth:`step1_build_run`).
        """
        with self._lock:
            self._check_psn(psn)
            counts = {"spliced_blobs": 0, "skipped_blobs": 0}
            new_run = self.step1_build_run(
                new_rid_of, min_groomed_id, max_groomed_id, counts
            )
            return self._steps_2_and_3(psn, new_run, max_groomed_id, **counts)

    def _steps_2_and_3(
        self, psn: int, new_run: IndexRun, max_groomed_id: int, **counts: int
    ) -> EvolveResult:
        """Watermark, garbage collection and checkpoint after step 1."""
        crash_point("evolve.post_publish")
        before = self.watermark.value
        self.step2_advance_watermark(max_groomed_id)
        crash_point("evolve.pre_gc")
        collected = self.step3_collect_obsolete()
        self.indexed_psn = psn
        crash_point("evolve.pre_checkpoint")
        self._checkpoint()
        return EvolveResult(
            psn=psn,
            new_run_id=new_run.run_id,
            new_run_entries=new_run.entry_count,
            watermark_before=before,
            watermark_after=self.watermark.value,
            collected_run_ids=tuple(collected),
            **counts,
        )

    def _check_psn(self, psn: int) -> None:
        if psn != self.indexed_psn + 1:
            raise EvolveError(
                f"evolve operations must be applied in PSN order: "
                f"expected {self.indexed_psn + 1}, got {psn}"
            )

    # -- the three atomic sub-operations (public for failure injection) -----------------

    def step1_build_run(
        self,
        new_rid_of: Callable[[int], Optional[RID]],
        min_groomed_id: int,
        max_groomed_id: int,
        counts: Optional[Dict[str, int]] = None,
    ) -> IndexRun:
        """Sub-operation 1: build the post-groomed run and publish it.

        Zero decode: column batches (:func:`merge_blocks`) stream straight
        off the covered groomed runs' data blocks.  A record's key columns
        and ``beginTS`` do not change when it moves to the post-groomed
        zone -- only its RID does -- so the migration is a 13-byte splice
        over the blob's fixed-width RID suffix, a batch at a time; include
        columns are forwarded verbatim and the stream stays in sort order.

        ``new_rid_of(begin_ts)`` maps a version's ``beginTS`` to its
        post-groomed RID, or ``None`` for entries outside this operation's
        coverage (already evolved, or groomed after it was published) --
        those are skipped, and partial coverage reconciles at query time
        exactly like section 5.4's duplicates.  It is asked through a
        :class:`RidSplices`; pass one to share it between the indexes of
        one PSN.  ``beginTS`` values must uniquely identify record versions
        (the groomer's ``cycle | order`` composition guarantees this).  The
        output synopsis is the union of the inputs' synopses -- sound
        because the evolved entries are a key-identical subset.  ``counts``
        receives the ``spliced_blobs`` / ``skipped_blobs`` tallies.
        """
        if counts is None:
            counts = {"spliced_blobs": 0, "skipped_blobs": 0}
        sources = [
            run
            for run in self.run_lists[Zone.GROOMED].snapshot()
            if run.min_groomed_id <= max_groomed_id
            and run.max_groomed_id >= min_groomed_id
        ]
        decode_stats = self.hierarchy.stats.decode
        splices = (
            new_rid_of if isinstance(new_rid_of, RidSplices)
            else RidSplices(new_rid_of)
        )

        def spliced_batches():
            for keys, blobs in merge_blocks(sources):
                rids = [splices[key[-SORT_KEY_TS_BYTES:]] for key in keys]
                if None in rids:  # a serialized RID is never falsy
                    counts["skipped_blobs"] += rids.count(None)
                    keys = list(compress(keys, rids))
                    blobs = list(compress(blobs, rids))
                    rids = list(filter(None, rids))
                counts["spliced_blobs"] += len(rids)
                decode_stats.evolve_blob_splices += len(rids)
                yield keys, [
                    blob[:-RID_BYTES] + rid for blob, rid in zip(blobs, rids)
                ]

        synopsis = (
            Synopsis.union([r.header.synopsis for r in sources]) if sources
            else Synopsis.from_entries(self.builder.definition, [])
        )
        level = self.config.first_post_groomed_level
        run = self.builder.build_from_columns(
            run_id=self.allocator.allocate(Zone.POST_GROOMED),
            batches=spliced_batches(),
            synopsis=synopsis,
            zone=Zone.POST_GROOMED,
            level=level,
            min_groomed_id=min_groomed_id,
            max_groomed_id=max_groomed_id,
            persisted=True,  # post-groomed runs are always durable
            write_through_ssd=self._write_through(level),
        )
        crash_point("evolve.pre_publish")
        self.run_lists[Zone.POST_GROOMED].push_front(run)  # atomic
        return run

    def step2_advance_watermark(self, max_groomed_id: int) -> None:
        """Sub-operation 2: raise the covered-groomed-id watermark."""
        self.watermark.advance(max(self.watermark.value, max_groomed_id))

    def step3_collect_obsolete(self) -> List[str]:
        """Sub-operation 3: GC groomed runs fully under the watermark.

        A groomed run may be *partially* covered when post-groom boundaries
        do not align with run boundaries; such runs stay, and the resulting
        physical duplicates are reconciled away at query time (section 5.4).

        Physical frees go through the reclaimer: the runs were atomically
        unlinked by ``remove_where`` (no *new* query can see them), but a
        query that pinned its snapshot before this evolve may still be
        reading their blocks -- the lifecycle defers the free until no
        pinned version covers the run.  The returned ids are the runs
        *scheduled* for deletion (immediately executed when unpinned).
        """
        watermark_value = self.watermark.value
        groomed = self.run_lists[Zone.GROOMED]
        removed = groomed.remove_where(
            lambda run: run.max_groomed_id <= watermark_value
        )
        collected: List[str] = []
        for run in removed:
            if self._ancestor_protector(run.run_id):
                # Some live non-persisted run still derives from this one;
                # keep the shared copy, just free the local cache.
                self._reclaim(run.run_id, drop_cache_action(self.hierarchy, run))
                continue
            self._reclaim(run.run_id, delete_run_action(self.hierarchy, run))
            collected.append(run.run_id)
        return collected

    # -- durability -----------------------------------------------------------------------

    def _checkpoint(self) -> None:
        if self.journal is not None:
            self.journal.append(
                Checkpoint(
                    indexed_psn=self.indexed_psn,
                    max_covered_groomed_id=self.watermark.value,
                )
            )

    def restore(self, checkpoint: Checkpoint) -> None:
        """Recovery: reinstall persisted PSN/watermark state."""
        with self._lock:
            self.indexed_psn = checkpoint.indexed_psn
            if checkpoint.max_covered_groomed_id > self.watermark.value:
                self.watermark.advance(checkpoint.max_covered_groomed_id)


__all__ = [
    "EvolveController",
    "EvolveError",
    "EvolveResult",
    "RidSplices",
    "Watermark",
]
