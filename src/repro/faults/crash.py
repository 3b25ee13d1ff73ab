"""Named crash points and seeded crash schedules (ISSUE 6 tentpole).

A *crash point* is a named site in production code where a simulated
process may die: ``crash_point("evolve.pre_publish")`` is a no-op unless
a test has installed a :class:`CrashSchedule` that targets that site, in
which case it raises :class:`~repro.faults.errors.SimulatedCrash`.  The
hook is a module-global ``None`` check, so the production cost is one
attribute load per site -- there is no registry lookup and no locking on
the fast path.

Sites are chosen at the boundaries the paper's recovery argument
(section 5.5) must survive: between writing a run's blocks, around the
evolve publish/GC/checkpoint steps, around a merge splice, and at the
daemons' loop heads.  ``CRASH_SITES`` is the authoritative list; the
property suite draws from it.

Schedules count *hits*: ``{"evolve.pre_publish": {2}}`` crashes the
second time that site is reached, letting one seed explore "survive the
first evolve, die mid-second".  Crashing a site disarms that hit (each
ordinal fires at most once), so the post-crash replay of the same logical
operation runs to completion instead of dying in a loop.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set

from repro.faults.errors import SimulatedCrash

# The authoritative site list.  Keep docs/architecture.md's table in sync.
CRASH_SITES = (
    # RunBuilder._write_blocks: before the header block, between data
    # blocks (leaves a decodable header pointing at missing blocks), and
    # after the last block but before the run object is returned.
    "builder.pre_persist",
    "builder.data_block",
    "builder.post_persist",
    # EvolveController.evolve_streaming: after the post-groomed
    # run is built but before it is published into the run list; after
    # publish but before the watermark advances; before groomed-run GC;
    # and before the checkpoint is journaled.
    "evolve.pre_publish",
    "evolve.post_publish",
    "evolve.pre_gc",
    "evolve.pre_checkpoint",
    # Merge: around the run-list splice (new run persisted either way).
    "merge.pre_splice",
    "merge.post_splice",
    # MetadataJournal.append: before the checkpoint block is written.
    "journal.pre_append",
    # Daemon loop heads (wildfire + core maintenance).
    "maintenance.step",
    "groom.enter",
    "groom.pre_index",
    "postgroom.pre_publish",
    "indexer.pre_evolve",
    # Online shard split (ISSUE 8).  ``pre_copy`` fires before anything is
    # published (recovery rolls back to fully-old routing); ``mid_copy``
    # fires between the two successors' run builds; ``pre_publish`` after
    # the copy but before the final split map; ``post_publish`` after the
    # final map but before the source shard is decommissioned.  Everything
    # from the write cutover on recovers by rolling *forward* to fully-new
    # routing -- never a torn map.
    "split.pre_copy",
    "split.mid_copy",
    "split.pre_publish",
    "split.post_publish",
    # Online shard merge (ISSUE 10) -- the split run backwards, with the
    # same semantics: ``pre_copy`` fires before anything is published
    # (recovery rolls back, the slot keeps its split route); everything
    # after the "merging" cutover rolls forward to the fused route.
    "merge.pre_copy",
    "merge.mid_copy",
    "merge.pre_publish",
    "merge.post_publish",
)


class CrashSchedule:
    """Which (site, hit-ordinal) pairs kill the simulated process.

    ``triggers`` maps a site name to the 1-based hit ordinals that crash;
    hit counting is global across the schedule's lifetime (it survives
    the crash itself, so replayed work keeps counting up -- ordinal 3 of
    a site means the third time *ever* that site is reached).
    """

    def __init__(self, triggers: Mapping[str, Iterable[int]]) -> None:
        unknown = sorted(set(triggers) - set(CRASH_SITES))
        if unknown:
            raise ValueError(f"unknown crash site(s): {unknown}")
        self._triggers: Dict[str, Set[int]] = {
            site: set(ordinals) for site, ordinals in triggers.items()
        }
        self._hits: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.fired: List[SimulatedCrash] = []

    def visit(self, site: str) -> None:
        """Record one arrival at ``site``; raise if this hit is targeted."""
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            ordinals = self._triggers.get(site)
            if ordinals is None or hit not in ordinals:
                return
            # Disarm so the post-recovery replay of the same operation
            # passes this site instead of dying forever.
            ordinals.discard(hit)
            crash = SimulatedCrash(site, hit)
            self.fired.append(crash)
        raise crash

    def hits(self, site: str) -> int:
        with self._lock:
            return self._hits.get(site, 0)


_active: Optional[CrashSchedule] = None


def crash_point(site: str) -> None:
    """Production-side hook: dies here iff the active schedule says so.

    Cost when no schedule is installed (i.e. always, outside fault
    tests): one global load and one ``is None`` check.
    """
    schedule = _active
    if schedule is not None:
        schedule.visit(site)


@contextmanager
def install_crash_schedule(schedule: CrashSchedule) -> Iterator[CrashSchedule]:
    """Install ``schedule`` as the process-wide crash schedule.

    Process-wide (not thread-local) on purpose: maintenance daemons run
    on their own threads and must die by the same schedule.  Nested
    installs are rejected -- overlapping schedules would make hit counts
    meaningless.
    """
    global _active
    if _active is not None:
        raise RuntimeError("a crash schedule is already installed")
    _active = schedule
    try:
        yield schedule
    finally:
        _active = None


__all__ = [
    "CRASH_SITES",
    "CrashSchedule",
    "crash_point",
    "install_crash_schedule",
]
