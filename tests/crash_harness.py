"""Crash/recovery harness: drive one index through a hostile universe.

The byte-identity property (ISSUE 6 tentpole) is checked end to end here:

1. :func:`generate_workload` derives a deterministic op sequence from a
   seed -- groomed ingests over an overlapping key space (so keys
   accumulate multiple versions), evolves in PSN order, maintenance
   passes -- plus the ``beginTS -> post-groomed RID`` map the evolves
   use.
2. :class:`CrashRecoveryDriver` applies the ops against an index whose
   shared tier is a :class:`~repro.faults.storage.FaultyTier` and whose
   crash points follow the plan's :class:`CrashSchedule`.  Every
   simulated crash drops the local tiers *and* the in-memory index (a
   brand-new :class:`UmziIndex` is built over the same storage, exactly
   a fresh process), runs recovery, and **catches up**: ops whose
   effects recovery could not restore (torn persists, lost checkpoints)
   are re-applied from the workload -- the stand-in for Wildfire's
   upstream groomed data blocks, which the paper's recovery story
   re-derives the index from.
3. :func:`collect_answers` snapshots query results -- point, batch,
   range, AS-OF -- as raw entry blobs.  The same workload replayed on a
   fault-free twin (the *oracle*) must produce byte-identical answers.

Crash-at-every-site replay safety is what the catch-up loop proves: no
matter where the process died, re-applying the suffix of un-restored ops
converges to the oracle state (duplicate post-groomed runs from replayed
evolves are reconciled away at query time, section 5.4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.definition import IndexDefinition
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.query import MAX_QUERY_TS
from repro.faults.crash import CrashSchedule, install_crash_schedule
from repro.faults.errors import SimulatedCrash
from repro.faults.plan import FaultPlan
from repro.faults.storage import FaultyTier
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats
from repro.storage.shared import SharedStorage
from repro.storage.ssd import SSDTier

# Local tiers big enough that write-through always caches: a torn shared
# write must stay *silent* (the writing process keeps serving from its
# local copy) until a crash wipes the local tiers -- that is the fault
# being modelled, and recovery validates against shared storage only.
_LOCAL_TIER_BYTES = 1 << 30

# A version groomed in gid ``g`` moves to post-groomed block BASE + g.
_POST_GROOMED_BLOCK_BASE = 1_000


# -- workload ------------------------------------------------------------------


@dataclass(frozen=True)
class IngestOp:
    """One groom's index build: a groomed run for ``gid``."""

    gid: int
    keys: Tuple[int, ...]
    first_ts: int  # entry i carries beginTS first_ts + i


@dataclass(frozen=True)
class EvolveOp:
    """One post-groom's index evolve over ``[min_gid, max_gid]``."""

    min_gid: int
    max_gid: int


@dataclass(frozen=True)
class MaintainOp:
    """A maintenance pass (merges + cache)."""


@dataclass
class Workload:
    """Deterministic op sequence plus the evolve RID map."""

    seed: int
    ops: List[object]
    rid_by_ts: Dict[int, RID]
    key_space: int


def generate_workload(
    seed: int,
    gids: int = 8,
    keys_per_gid: int = 12,
    key_space: int = 40,
    evolve_every: int = 3,
    maintain_every: int = 4,
) -> Workload:
    """Derive a workload from ``seed`` alone.

    Keys are sampled from a small space so most keys accumulate several
    versions across groom cycles (the reconciliation-sensitive case);
    every entry gets a globally unique ``beginTS``.  Every ``evolve_every``
    ingests an evolve covers the pending gid range, assigning each
    covered ``beginTS`` its post-groomed RID.  Groomed ids start at 1.
    """
    rng = random.Random(seed ^ 0x5EED)
    ops: List[object] = []
    rid_by_ts: Dict[int, RID] = {}
    next_ts = 1
    pending_min: Optional[int] = None
    for gid in range(1, gids + 1):
        keys = tuple(rng.randrange(key_space) for _ in range(keys_per_gid))
        ops.append(IngestOp(gid=gid, keys=keys, first_ts=next_ts))
        for i in range(len(keys)):
            # Post-groomed RID for this version, used when an evolve
            # covers it: deterministic from (gid, i) alone.
            rid_by_ts[next_ts + i] = RID(
                Zone.POST_GROOMED, _POST_GROOMED_BLOCK_BASE + gid, i
            )
        next_ts += len(keys)
        if pending_min is None:
            pending_min = gid
        if gid % evolve_every == 0:
            ops.append(EvolveOp(min_gid=pending_min, max_gid=gid))
            pending_min = None
        if gid % maintain_every == 0:
            ops.append(MaintainOp())
    if pending_min is not None:
        ops.append(EvolveOp(min_gid=pending_min, max_gid=gids))
    ops.append(MaintainOp())
    return Workload(seed=seed, ops=ops, rid_by_ts=rid_by_ts, key_space=key_space)


def _entry(
    definition: IndexDefinition, key: int, begin_ts: int, rid: RID
) -> IndexEntry:
    """tests/conftest.make_entry's shape, importable from src."""
    eq = tuple(key + i for i in range(len(definition.equality_columns)))
    sort = tuple(key + i for i in range(len(definition.sort_columns)))
    incl = tuple(
        key * 10 + i for i in range(len(definition.included_columns))
    )
    return IndexEntry.create(definition, eq, sort, incl, begin_ts, rid)


def _ingest_entries(
    definition: IndexDefinition, op: IngestOp
) -> List[IndexEntry]:
    return [
        _entry(
            definition, key, op.first_ts + i, RID(Zone.GROOMED, op.gid, i)
        )
        for i, key in enumerate(op.keys)
    ]


# -- answer collection ---------------------------------------------------------

Blob = Optional[Tuple[bytes, bytes]]


def collect_answers(
    index: UmziIndex, workload: Workload, asof_samples: int = 6
) -> Dict[object, object]:
    """Query results over the whole key space as raw ``(sort_key, blob)``
    bytes -- the byte-identity comparand.

    Covers all four query shapes: point lookups per key, one batch over
    the full space, a full range scan per sampled key, and AS-OF point
    lookups at seeded historical timestamps.
    """
    definition = index.definition
    rng = random.Random(workload.seed ^ 0xA50F)
    max_ts = max(workload.rid_by_ts, default=1)

    def blob(entry: Optional[IndexEntry]) -> Blob:
        return None if entry is None else entry.to_blob(definition)

    def key_tuples(key: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return (
            tuple(key + i for i in range(len(definition.equality_columns))),
            tuple(key + i for i in range(len(definition.sort_columns))),
        )

    answers: Dict[object, object] = {}
    keys = []
    for key in range(workload.key_space):
        eq, sort = key_tuples(key)
        answers[("point", key)] = blob(index.lookup(eq, sort))
        keys.append((*eq, *sort))
    answers["batch"] = tuple(
        blob(e) for e in index.batch_lookup(keys, MAX_QUERY_TS)
    )
    for key in sorted(rng.sample(range(workload.key_space), 5)):
        eq, _sort = key_tuples(key)
        answers[("range", key)] = tuple(
            blob(e) for e in index.scan(eq, None, None)
        )
    for _ in range(asof_samples):
        key = rng.randrange(workload.key_space)
        ts = rng.randint(1, max_ts)
        eq, sort = key_tuples(key)
        answers[("asof", key, ts)] = blob(index.lookup(eq, sort, query_ts=ts))
    return answers


# -- the driver ----------------------------------------------------------------


def _default_config(name: str) -> UmziConfig:
    return UmziConfig(
        name=name,
        levels=LevelConfig(
            groomed_levels=3,
            post_groomed_levels=2,
            max_runs_per_level=2,
            size_ratio=2,
        ),
        data_block_bytes=512,  # several blocks per run => torn prefixes
    )


@dataclass
class DriveResult:
    """What one driven universe did."""

    crashes: int = 0
    recoveries: int = 0
    replayed_ingests: int = 0
    replayed_evolves: int = 0
    clamped_checkpoints: int = 0
    answers: Dict[object, object] = field(default_factory=dict)


class CrashRecoveryDriver:
    """Apply a workload under a fault plan, recovering after each crash.

    With ``plan=None`` this is the *oracle*: same workload, plain shared
    storage, no crash schedule -- the ground truth the faulted universe
    must converge to byte-for-byte.
    """

    def __init__(
        self,
        definition: IndexDefinition,
        workload: Workload,
        plan: Optional[FaultPlan] = None,
        config: Optional[UmziConfig] = None,
        name: str = "fx",
    ) -> None:
        self.definition = definition
        self.workload = workload
        self.plan = plan
        self.config = config if config is not None else _default_config(name)
        stats = IOStats()
        run_prefix = f"{self.config.name}-run"
        if plan is not None:
            shared: SharedStorage = FaultyTier(plan, run_prefix, stats=stats)
        else:
            shared = SharedStorage(stats=stats)
        self.hierarchy = StorageHierarchy(
            ssd=SSDTier(capacity_bytes=_LOCAL_TIER_BYTES, stats=stats),
            shared=shared,
            stats=stats,
        )
        self.index = UmziIndex(
            definition, hierarchy=self.hierarchy, config=self.config
        )
        self.result = DriveResult()

    # -- lifecycle ------------------------------------------------------------

    def _fresh_process(self) -> None:
        """Simulate process death + restart: lose local tiers and every
        in-memory structure, then recover from shared storage alone."""
        self.hierarchy.crash_local_tiers()
        self.index = UmziIndex(
            self.definition, hierarchy=self.hierarchy, config=self.config
        )
        state = self.index.recover()
        self.result.recoveries += 1
        if state.clamped_from is not None:
            self.result.clamped_checkpoints += 1

    def recover_again(self):
        """One more crash+recover (idempotence checks); returns the state."""
        self.hierarchy.crash_local_tiers()
        self.index = UmziIndex(
            self.definition, hierarchy=self.hierarchy, config=self.config
        )
        return self.index.recover()

    # -- visibility (what recovery restored) ----------------------------------

    def _intervals(self) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        """(visible groomed intervals, post-groomed intervals) right now."""
        watermark = self.index.watermark.value
        groomed = [
            (r.min_groomed_id, r.max_groomed_id)
            for r in self.index.run_lists[Zone.GROOMED].snapshot()
            if r.max_groomed_id > watermark
        ]
        post = [
            (r.min_groomed_id, r.max_groomed_id)
            for r in self.index.run_lists[Zone.POST_GROOMED].snapshot()
        ]
        return groomed, post

    @staticmethod
    def _chains(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
        chains: List[Tuple[int, int]] = []
        for lo, hi in sorted(intervals):
            if chains and lo <= chains[-1][1] + 1:
                chains[-1] = (chains[-1][0], max(chains[-1][1], hi))
            else:
                chains.append((lo, hi))
        return chains

    def _gid_visible(self, gid: int) -> bool:
        groomed, post = self._intervals()
        return any(lo <= gid <= hi for lo, hi in groomed + post)

    def _range_post_covered(self, min_gid: int, max_gid: int) -> bool:
        _groomed, post = self._intervals()
        return any(
            lo <= min_gid and max_gid <= hi for lo, hi in self._chains(post)
        )

    # -- op application -------------------------------------------------------

    def _new_rid_of(self, op: EvolveOp):
        """``op``'s RID source: the post-groomed RID of every version
        groomed in ``[op.min_gid, op.max_gid]``, ``None`` for the rest."""
        rid_by_ts = self.workload.rid_by_ts
        lo = _POST_GROOMED_BLOCK_BASE + op.min_gid
        hi = _POST_GROOMED_BLOCK_BASE + op.max_gid

        def new_rid_of(begin_ts: int) -> Optional[RID]:
            rid = rid_by_ts[begin_ts]
            return rid if lo <= rid.block_id <= hi else None

        return new_rid_of

    def _apply(self, op: object) -> None:
        if isinstance(op, IngestOp):
            self.index.add_groomed_run(
                _ingest_entries(self.definition, op), op.gid, op.gid
            )
        elif isinstance(op, EvolveOp):
            # PSN = next expected, not a precomputed number: replays after
            # a crash may have consumed PSNs the original sequence did not
            # (e.g. an evolve that published but lost its checkpoint).
            self.index.evolve_streaming(
                self.index.indexed_psn + 1,
                self._new_rid_of(op),
                op.min_gid,
                op.max_gid,
            )
        elif isinstance(op, MaintainOp):
            self.index.run_maintenance()
        else:  # pragma: no cover - workload generator invariant
            raise TypeError(f"unknown op {op!r}")

    def _catch_up(self, applied: int) -> None:
        """Re-establish "every applied op is visible" after a recovery.

        Walks the applied prefix in order and re-applies whatever the
        recovered state does not show: an ingest whose gid no surviving
        run covers is re-built from the workload (the stand-in for
        re-grooming upstream data blocks), an evolve whose gid range the
        post-groomed zone does not fully cover is re-run with the same
        entries.  Replayed evolves may duplicate surviving coverage;
        query-time reconciliation discards the duplicates (section 5.4),
        and the next recovery's overlap resolution deletes them.
        """
        for op in self.workload.ops[:applied]:
            if isinstance(op, IngestOp):
                if not self._gid_visible(op.gid):
                    self._apply(op)
                    self.result.replayed_ingests += 1
            elif isinstance(op, EvolveOp):
                if not self._range_post_covered(op.min_gid, op.max_gid):
                    self._apply(op)
                    self.result.replayed_evolves += 1

    # -- the drive loop -------------------------------------------------------

    def run(self) -> DriveResult:
        ops = self.workload.ops
        schedule = CrashSchedule(self.plan.crash_triggers) if self.plan is not None else None

        def drive() -> None:
            applied = 0
            need_catch_up = False
            while True:
                try:
                    if need_catch_up:
                        self._catch_up(applied)
                        need_catch_up = False
                    if applied == len(ops):
                        return
                    self._apply(ops[applied])
                    applied += 1
                except SimulatedCrash:
                    self.result.crashes += 1
                    self._fresh_process()
                    need_catch_up = True

        if schedule is not None:
            with install_crash_schedule(schedule):
                drive()
        else:
            drive()

        # Final clean restart: surface every torn write that was still
        # being papered over by the local write-through copies, then
        # catch up one last time.  The schedule is uninstalled, so this
        # pass cannot crash (recovery itself contains no crash sites).
        if self.plan is not None:
            self._fresh_process()
            self._catch_up(len(ops))
            self.index.run_maintenance()

        self.result.answers = collect_answers(self.index, self.workload)
        return self.result


def run_oracle(
    definition: IndexDefinition, workload: Workload, name: str = "fx"
) -> DriveResult:
    """Replay the workload fault-free; its answers are the ground truth."""
    return CrashRecoveryDriver(definition, workload, plan=None, name=name).run()


__all__ = [
    "CrashRecoveryDriver",
    "DriveResult",
    "EvolveOp",
    "IngestOp",
    "MaintainOp",
    "Workload",
    "collect_answers",
    "generate_workload",
    "run_oracle",
]
