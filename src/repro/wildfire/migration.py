"""Online shard migration: split (1 -> 2) and merge (2 -> 1) as one protocol.

The cluster-facing entry points are
:meth:`~repro.wildfire.cluster.ShardedTable.split_shard` /
``merge_shards`` (synchronous) and ``begin_split`` / ``begin_merge`` +
``migration_step`` (pumped), with ``recover_migration`` after a crash;
this module owns everything below them.  A migration moves one hash
slot's keys from its *sources* to freshly created *targets* while the
cluster keeps serving, through one phase machine driven by the two-row
:data:`DIRECTIONS` table::

    pre_copy --cutover--> window --copy--> copied --publish--> published --> done

1. **Gate** -- under a qos config a migration refuses to start
   (:class:`SplitAborted` / :class:`MergeAborted`, nothing touched) while
   the scheduler reports backpressure or a source's breaker is open.
   Only consulted before the cutover: past it the only safe direction is
   forward.
2. **Write cutover** -- publish the direction's *window* route
   (``migrating`` / ``merging``) as epoch N+1 and drain epoch N.  Fresh
   writes now land on the targets; reads *double-read* the fresh-write
   holder plus the source that owned the key and keep the newest version
   by raw ``beginTS``.  The targets stay frozen (no maintenance) until
   the final publish.
3. **Copy** -- quiesce every source (it receives no new writes, so one
   quiesce is final), raise every target's hybrid clock to the
   component-wise max of the sources' clocks (every post-cutover
   ``beginTS`` must sort after every pre-cutover one, or newest-wins
   lies), hand the ghost trackers over, adopt the sources' post-groomed
   record blocks verbatim (:func:`adopt_blocks`) and stream every
   index's runs zero-decode into one run per target
   (:class:`ShardCopyStream`).
4. **Final publish** -- publish the direction's *final* route (``split``
   / ``single``) as epoch N+2, drain the window epoch, retire the
   sources (they keep their data for old-epoch pins but never groom
   again) and start the targets' lifecycle.

Crash points ``{kind}.pre_copy`` / ``mid_copy`` / ``pre_publish`` /
``post_publish`` cover the protocol.  A crash before the cutover rolls
*back* (nothing was published); a crash anywhere after it rolls
*forward* by replaying the remaining phases, every one of which is
idempotent (adopted blocks are skipped, a target that already holds its
copied run is not rebuilt).  The routing map is an immutable object
swapped atomically, so no crash can leave a torn map.

The copy works for shards carrying secondary indexes too: it runs one
pass per index, and a split recovers each entry's sharding key
zero-decode from the primary-key suffix every secondary sort key
carries (:func:`index_slicers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.entry import Zone
from repro.core.merge import merge_entry_blob_streams
from repro.core.run import Synopsis
from repro.faults.crash import crash_point
from repro.qos.breaker import BreakerState
from repro.wildfire.engine import WildfireShard
from repro.wildfire.shardmap import (
    ShardingKeySlicer,
    SlotRoute,
    successor_side,
)


class MigrationError(RuntimeError):
    """A migration could not be started, stepped or resumed."""


class SplitError(MigrationError):
    """A split could not be started or resumed."""


class SplitAborted(SplitError):
    """A split backed out cleanly before its write cutover.

    Raised when maintenance backpressure or an open circuit breaker says
    the cluster cannot afford the copy right now.  Nothing has been
    published: routing, data, and clocks are exactly as they were.
    """


class MergeError(MigrationError):
    """A merge could not be started or resumed."""


class MergeAborted(MergeError):
    """A merge backed out cleanly before its write cutover (see
    :class:`SplitAborted`: nothing has been published)."""


@dataclass(frozen=True)
class Direction:
    """One row of the direction table: all a migration's phases need to
    know about which way the slot is moving."""

    kind: str  # also the crash-site prefix: "{kind}.pre_copy", ...
    fan_out: int  # targets created: a split's two successors, a merge's one
    start_route: str  # the slot's SlotRoute state before the cutover
    window_route: str  # ... between the cutover and the final publish
    final_route: str  # ... once the copy is published
    error: type
    aborted: type
    no_slot: str  # message when the named shards own no such slot


DIRECTIONS: Dict[str, Direction] = {
    direction.kind: direction
    for direction in (
        Direction(
            "split", 2, "single", "migrating", "split", SplitError, SplitAborted,
            "shard {0} does not solely own a routable slot",
        ),
        Direction(
            "merge", 1, "split", "merging", "single", MergeError, MergeAborted,
            "shards {0} and {1} are not the two successors of one split slot",
        ),
    )
}

# Gap left between the two successors' post-groomed block id allocators
# at split time.  The left successor stays dense at the source's
# watermark; the right one starts this far above it.  Blocks written
# after the split therefore never collide by id between the two sides,
# which is what lets a later merge adopt both sides' blocks verbatim
# into one catalog.  A shard would need to post-groom over a million
# record blocks between a split and the next split of the same slot
# (impossible: the slot must be merged back to a single route first)
# for the stride to be crossed.
BLOCK_ID_STRIDE = 1 << 20


def adopt_blocks(
    sources: Sequence[WildfireShard], targets: Sequence[WildfireShard]
) -> int:
    """Transfer every source's post-groomed record blocks to every target.

    Verbatim (same ids, same namespaces, same bytes), so the RIDs baked
    into entry blobs stay valid.  Every target receives *every* block:
    record blocks are addressed by RID, and a target's entry subset may
    reference any of them.  Each target after the first has its block
    allocator strided above the adopted watermark (see
    :data:`BLOCK_ID_STRIDE`), so post-split writes on the two sides can
    never mint the same block id -- which in turn makes a merge's union
    of ids collision-free (shared pre-split ids carry byte-identical
    payloads and dedup on adoption).  The endTS overlays union too: an
    RID's endTS is written at most once in its lifetime, so two sources
    can never disagree on a shared RID.  Idempotent; returns blocks
    copied this call.
    """
    copied = 0
    for source in sources:
        block_ids = source.catalog.live_post_groomed_ids()
        overlay = source.catalog.export_end_ts_overlay()
        for target in targets:
            copied += len(
                target.catalog.adopt_post_groomed(
                    source.catalog, block_ids, overlay
                )
            )
    watermark = max(s.catalog.max_post_groomed_id for s in sources) + 1
    for ordinal, target in enumerate(targets[1:], start=1):
        target.catalog.ensure_post_groomed_floor(
            watermark + ordinal * BLOCK_ID_STRIDE
        )
    return copied


def _dest_has_copy(destination: WildfireShard, index_name: str) -> bool:
    shard_index = destination.indexes.get(index_name)
    return bool(shard_index.index.run_lists[Zone.POST_GROOMED].snapshot())


def index_slicers(shard: WildfireShard) -> Dict[str, ShardingKeySlicer]:
    """One zero-decode sharding-key slicer per index, primary included.

    None can fail: the primary's key columns are the primary key, every
    secondary's sort columns end with it (``with_primary_key_suffix``),
    and the schema enforces ``sharding_key ⊆ primary_key``.
    """
    sharding = shard.schema.sharding_key
    return {
        shard_index.name: ShardingKeySlicer(shard_index.index.definition, sharding)
        for shard_index in shard.indexes.all()
    }


class ShardCopyStream:
    """Resumable, budgeted copy of quiesced sources into destinations.

    One instance drives a full migration copy: for each index name (the
    primary first, then every secondary) it streams all sources'
    post-groomed runs as raw ``(sort_key, blob)`` pairs through the same
    K-way blob merge the evolve path uses, buckets each pair with
    ``bucket_of(index_name, sort_key)``, and -- when the pass is
    exhausted -- builds at most one post-groomed run per destination
    via ``RunBuilder.build_from_blobs`` with a union synopsis of the
    pass's source runs, rebuilt at the destination's current
    ``version_seq``.  No :class:`~repro.core.entry.IndexEntry` is ever
    materialized.

    ``step(budget)`` pulls up to ``budget`` pairs (``None`` = all of
    them), so a pump can interleave copy slices with live traffic; the
    pair order, bucket contents, and built runs are identical whatever
    the step sizes, which keeps pumped migrations byte-identical to
    synchronous ones.

    Source snapshots are pinned per pass and the sources are quiesced
    and frozen, so the stream sees an immutable view.  Crash behaviour:
    ``crash_site`` fires immediately before the *last* destination's
    build of the primary pass (for a split that is between the two
    successor builds; for a merge, before the single build).  A crash
    anywhere in the stream is recovered by rebuilding the whole stream:
    nothing is published until a destination's run is built and pushed,
    and already-built destinations are skipped on replay.
    """

    def __init__(
        self,
        sources: Sequence[WildfireShard],
        destinations: Sequence[WildfireShard],
        bucket_of: Callable[[str, bytes], int],
        crash_site: str,
    ) -> None:
        self._sources = tuple(sources)
        self._destinations = tuple(destinations)
        self._bucket_of = bucket_of
        self._crash_site = crash_site
        # Every shard of one table has the same index names; the primary
        # comes first so the historical crash-point ordering survives.
        self._index_names = [
            shard_index.name for shard_index in self._sources[0].indexes.all()
        ]
        self._pass_no = 0
        self._iterator = None
        self._pins: List = []
        self._pass_runs: List = []
        self._buckets: List[List[Tuple[bytes, bytes]]] = []
        self.copied_entries = 0

    @property
    def done(self) -> bool:
        return self._pass_no >= len(self._index_names) and self._iterator is None

    def _begin_pass(self) -> None:
        name = self._index_names[self._pass_no]
        runs: List = []
        for source in self._sources:
            pin = source.indexes.get(name).index.lifecycle.pin()
            self._pins.append(pin)
            runs.extend(pin.version.post_groomed)
        definition = self._sources[0].indexes.get(name).index.definition
        self._pass_runs = runs
        self._buckets = [[] for _ in self._destinations]
        self._iterator = merge_entry_blob_streams(definition, runs)

    def _finish_pass(self) -> None:
        name = self._index_names[self._pass_no]
        synopsis = (
            Synopsis.union([run.header.synopsis for run in self._pass_runs])
            if self._pass_runs
            else None
        )
        last = len(self._destinations) - 1
        for ordinal, destination in enumerate(self._destinations):
            if self._pass_no == 0 and ordinal == last:
                crash_point(self._crash_site)
            pairs = self._buckets[ordinal]
            if not pairs or _dest_has_copy(destination, name):
                continue
            index = destination.indexes.get(name).index
            run = index.builder.build_from_blobs(
                run_id=index.allocator.allocate(Zone.POST_GROOMED),
                blob_pairs=pairs,
                synopsis=synopsis,
                zone=Zone.POST_GROOMED,
                level=index.config.levels.first_post_groomed_level,
                min_groomed_id=-1,
                max_groomed_id=-1,
                persisted=True,
                write_through_ssd=True,
            )
            index.run_lists[Zone.POST_GROOMED].push_front(run)
            self.copied_entries += len(pairs)
        self._release_pins()
        self._pass_runs = []
        self._buckets = []
        self._iterator = None
        self._pass_no += 1

    def _release_pins(self) -> None:
        pins, self._pins = self._pins, []
        for pin in pins:
            pin.release()

    def step(self, budget: Optional[int] = None) -> int:
        """Advance the copy by up to ``budget`` pairs; returns pairs pulled."""
        pulled = 0
        while self._pass_no < len(self._index_names):
            if self._iterator is None:
                self._begin_pass()
            name = self._index_names[self._pass_no]
            for sort_key, blob in self._iterator:
                self._buckets[self._bucket_of(name, sort_key)].append(
                    (sort_key, blob)
                )
                pulled += 1
                if budget is not None and pulled >= budget:
                    return pulled
            self._finish_pass()
        return pulled

    def abort(self) -> None:
        """Drop pins without building anything (crash/teardown path)."""
        self._release_pins()
        self._iterator = None
        self._pass_no = len(self._index_names)


class Migration:
    """One in-flight (or crashed) migration: its state and its phases.

    ``table`` is the owning :class:`~repro.wildfire.cluster.ShardedTable`;
    it holds at most one ``Migration`` at a time and frees the slot once
    ``phase`` reaches ``"done"`` (landed) or ``"aborted"`` (gate refusal
    or pre-cutover roll-back).  A simulated crash leaves the phase where
    it was, for :meth:`recover`.
    """

    def __init__(self, table, kind: str, slot: int, sources: Tuple[int, ...]) -> None:
        self.table = table
        self.direction = DIRECTIONS[kind]
        self.slot = slot
        self.sources = sources
        self.targets: Tuple[int, ...] = ()
        self.phase = "pre_copy"
        self.window_epoch = -1
        self.final_epoch = -1
        self.copied_blocks = 0
        self.copied_entries = 0
        self.quiesce_grooms = 0
        self.stream: Optional[ShardCopyStream] = None

    @classmethod
    def begin(cls, table, kind: str, shard_ids: Tuple[int, ...]) -> "Migration":
        """Validate a request against the current map; nothing is touched."""
        direction = DIRECTIONS[kind]
        live = table.live_shard_ids()
        for shard_id in shard_ids:
            if shard_id not in live:
                raise direction.error(f"shard {shard_id} is not live")
        for slot, route in enumerate(table.maps.current.slots):
            holders = route.scatter_shards()
            if route.state == direction.start_route and set(holders) == set(shard_ids):
                return cls(table, kind, slot, holders)
        raise direction.error(direction.no_slot.format(*shard_ids))

    @property
    def finished(self) -> bool:
        """Landed (``done``) or backed out before the cutover (``aborted``)."""
        return self.phase in ("done", "aborted")

    def summary(self) -> Dict[str, object]:
        direction = self.direction
        targets = self.targets or (-1,) * direction.fan_out
        ends: Dict[str, object] = (
            {"source": self.sources[0], "successors": targets}
            if direction.kind == "split"
            else {"sources": self.sources, "target": targets[0]}
        )
        return {
            **ends,
            "phase": direction.window_route if self.phase == "window" else self.phase,
            f"{direction.window_route}_epoch": self.window_epoch,
            "final_epoch": self.final_epoch,
            "copied_blocks": self.copied_blocks,
            "copied_entries": self.copied_entries,
            "quiesce_grooms": self.quiesce_grooms,
        }

    def _progress(self) -> Dict[str, object]:
        return {"epoch": self.table.maps.epoch, **self.summary()}

    def _route(self, state: str) -> SlotRoute:
        """The slot's route in ``state``: one shard on the un-split side
        (a split's source, a merge's target), two on the other."""
        one, two = (
            (self.sources, self.targets)
            if self.direction.kind == "split"
            else (self.targets, self.sources)
        )
        if state == "single":
            return SlotRoute("single", primary=one[0])
        return SlotRoute(state, primary=one[0], left=two[0], right=two[1])

    # -- phases --------------------------------------------------------------

    def _refusal(self) -> Optional[str]:
        kind = self.direction.kind
        scheduler = self.table.scheduler
        if scheduler is not None and not scheduler.allow_maintenance():
            return f"maintenance backpressure: {kind} refused before cutover"
        for shard_id in self.sources:
            breaker = self.table.breaker(shard_id)
            if breaker is not None and breaker.state() is BreakerState.OPEN:
                return f"shard {shard_id} breaker is open; {kind} refused"
        return None

    def _gate(self) -> None:
        """Backpressure gate: refuse to even start under duress.

        Only consulted before the write cutover -- past that point the
        only safe direction is forward, whatever the breakers say.
        """
        refusal = self._refusal()
        if refusal is not None:
            self.phase = "aborted"
            raise self.direction.aborted(refusal)

    def cutover(self) -> None:
        """Phase ``pre_copy`` -> ``window``: the write cutover."""
        self._gate()
        crash_point(f"{self.direction.kind}.pre_copy")
        if not self.targets:
            self.targets = tuple(
                self.table._new_shard() for _ in range(self.direction.fan_out)
            )
        maps = self.table.maps
        current = maps.current
        window = current.with_slot(
            self.slot,
            self._route(self.direction.window_route),
            epoch=current.epoch + 1,
        )
        # From this swap on, new rows for the slot land on the targets
        # and every read double-reads.
        old = maps.publish(window)
        self.window_epoch = window.epoch
        self.phase = "window"
        # No query pinned to the pre-cutover map may still be routing
        # writes to a source once we start draining it.
        maps.drain(old.epoch)

    def start(self) -> Dict[str, object]:
        """A pumped migration's first call: cut over, then return."""
        self.cutover()
        return self._progress()

    def _prepare(self) -> None:
        """Quiesce, hand the clock forward, adopt blocks, open the stream.

        Idempotent: every sub-step tolerates replay, and the stream is
        only (re)built when none is open -- a pump calls this once per
        step, a crash recovery rebuilds from scratch.
        """
        if self.stream is not None:
            return
        shards = self.table.shards
        sources = [shards[shard_id] for shard_id in self.sources]
        targets = [shards[shard_id] for shard_id in self.targets]
        for source in sources:
            # A source stops receiving writes at the cutover: its daemon
            # threads (if any) retire now, and one synchronous quiesce
            # empties its live and groomed zones for good.
            source.stop_daemons()
            self.quiesce_grooms += source.quiesce()["grooms"]
            for target in targets:
                target.clock.ensure_at_least(*source.clock.state())
        for target in targets:
            # Ghosted secondary entries travel with the copy, so
            # index-only stays disqualified where a source had ghosts;
            # disagreeing memos collapse to "unknown" (conservative).
            target.indexes.adopt_ghost_state([source.indexes for source in sources])
        self.copied_blocks += adopt_blocks(sources, targets)
        if len(targets) == 1:
            # Sources hold disjoint key sets, so the K-way blob merge
            # over their run stacks is a pure interleave.
            def bucket_of(_name: str, _sort_key: bytes) -> int:
                return 0
        else:
            slicers = index_slicers(sources[0])

            def bucket_of(name: str, sort_key: bytes) -> int:
                return successor_side(slicers[name].hash_of_sort_key(sort_key))

        self.stream = ShardCopyStream(
            sources, targets, bucket_of, f"{self.direction.kind}.mid_copy"
        )

    def _finish_copy(self) -> None:
        self.copied_entries += self.stream.copied_entries
        self.stream = None
        self.phase = "copied"

    def run(self) -> Dict[str, object]:
        """Advance the phase machine to completion (resumable)."""
        kind = self.direction.kind
        maps = self.table.maps
        if self.phase == "pre_copy":
            self.cutover()
        if self.phase == "window":
            self._prepare()
            self.stream.step(budget=None)
            self._finish_copy()
        if self.phase == "copied":
            crash_point(f"{kind}.pre_publish")
            final = maps.current.with_slot(
                self.slot,
                self._route(self.direction.final_route),
                epoch=self.window_epoch + 1,
            )
            maps.publish(final)
            self.final_epoch = final.epoch
            self.phase = "published"
            maps.drain(self.window_epoch)
        if self.phase == "published":
            crash_point(f"{kind}.post_publish")
            for shard_id in self.sources:
                self.table._retire_shard(shard_id)
            for shard_id in self.targets:
                self.table._start_shard_daemons(shard_id)
            self.phase = "done"
        return {"resumed": True, **self._progress()}

    def step(self, budget: int) -> Dict[str, object]:
        """Copy up to ``budget`` pairs; finish as soon as the stream drains."""
        pulled = 0
        if self.phase == "pre_copy":
            self.cutover()
        elif self.phase == "window":
            self._prepare()
            pulled = self.stream.step(budget)
            if self.stream.done:
                self._finish_copy()
        result = self._progress() if self.phase == "window" else self.run()
        result["pulled"] = pulled
        return result

    def recover(self) -> Dict[str, object]:
        """Roll back (before the cutover) or forward (anywhere after)."""
        if self.stream is not None:
            # A partial pump (or a crash mid-stream) left pinned
            # snapshots behind; drop them and replay the idempotent
            # copy from the top.
            self.stream.abort()
            self.stream = None
        if self.phase == "pre_copy":
            self.phase = "aborted"
            return {
                "resumed": True,
                "outcome": "rolled_back",
                "epoch": self.table.maps.epoch,
            }
        result = self.run()
        result["outcome"] = "rolled_forward"
        return result


__all__ = [
    "BLOCK_ID_STRIDE",
    "DIRECTIONS",
    "MergeAborted",
    "MergeError",
    "Migration",
    "MigrationError",
    "ShardCopyStream",
    "SplitAborted",
    "SplitError",
    "adopt_blocks",
    "index_slicers",
]
