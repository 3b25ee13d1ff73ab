"""Routing epochs for online shard split (ISSUE 8).

A :class:`ShardMap` is an immutable routing table: hash slot -> the
shard(s) serving that slot.  The slot count is fixed at table creation
(``fnv1a64(sharding key) % len(slots)`` never changes, so no key ever
re-hashes); what a split changes is the *route* of one slot:

* ``single``    -- one shard owns the slot (the pre-split state);
* ``migrating`` -- the split's write cutover has happened: writes go to
  the two successors (chosen by a mixed bit of the routing hash, see
  :func:`successor_side`), reads *double-read*
  the responsible successor plus the old primary and keep the newest
  version per key (raw ``beginTS`` comparison);
* ``split``     -- the copy is published: successors serve alone, the
  old primary is retired;
* ``merging``   -- the *reverse* migration (ISSUE 10): a merge's write
  cutover has happened.  ``primary`` is the new fused target shard that
  owns all fresh writes; ``left``/``right`` are the two old successors
  that still hold the authoritative pre-merge data, so reads
  double-read the target plus the responsible old successor until the
  interleaved copy is published back to ``single``.

Maps are published versionset-style through a :class:`ShardMapRegistry`:
every query pins the current map for its whole lifetime (exactly one
Ref and one Unref on the cluster ledger's
:class:`~repro.storage.metrics.EpochStats` -- 2 refcount operations per
query, same invariant as the run-lifecycle versionset), and a publish is
a single atomic reference swap of an immutable object, so routing can
never be observed torn: an in-flight query answers entirely from the
pre-split or entirely from the post-split view.

The module also houses the zero-decode sharding-key slicer: during a
split, streamed ``(sort_key, blob)`` pairs are partitioned between the
two successors by hashing the sharding columns' encoded slices straight
out of the sort key -- no :class:`~repro.core.entry.IndexEntry` is ever
decoded on the copy path.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.core.definition import ColumnType, IndexDefinition
from repro.core.encoding import fnv1a64
from repro.storage.metrics import EpochStats

_MASK64 = (1 << 64) - 1


def successor_side(key_hash: int) -> int:
    """0 for the left successor, 1 for the right.

    Slot selection uses the hash modulo the slot count (the low bits),
    so the successor decision must come from a bit that is independent of
    those *and* well distributed.  No raw bit of the routing hash is safe
    to use directly: FNV-1a diffuses upward poorly on short inputs, to
    the point that bits 24..33 are constant across all small integer
    keys, which would send every key of a slot to the same successor.  A
    64-bit finalizer (Murmur3's ``fmix64``) avalanches every input bit
    before the top bit is taken.
    """
    h = key_hash & _MASK64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    h ^= h >> 33
    return h >> 63

_HASH_COLUMN_BYTES = 8
_FIXED_WIDTH_TYPES = (ColumnType.INT64, ColumnType.FLOAT64)

# Wall seconds a migration's publish barrier waits for an epoch's pins.
DRAIN_TIMEOUT_S = 30.0


class ShardMapError(RuntimeError):
    """Structural misuse of a shard map or its registry."""


@dataclass(frozen=True)
class SlotRoute:
    """Where one hash slot's keys live.

    ``primary`` is the owning shard (the old primary during a split, the
    new fused target during a merge); ``left``/``right`` are the split
    successors (``-1`` while single).
    """

    state: str  # "single" | "migrating" | "split" | "merging"
    primary: int
    left: int = -1
    right: int = -1

    def __post_init__(self) -> None:
        if self.state not in ("single", "migrating", "split", "merging"):
            raise ShardMapError(f"unknown slot state {self.state!r}")
        if self.state != "single" and (self.left < 0 or self.right < 0):
            raise ShardMapError(f"{self.state} route needs both successors")

    def successor_of(self, key_hash: int) -> int:
        return self.right if successor_side(key_hash) else self.left

    def write_shard(self, key_hash: int) -> int:
        """Where a new row for ``key_hash`` must be ingested."""
        if self.state in ("single", "merging"):
            # A merge's cutover points all fresh writes at the fused
            # target (the route's primary) from the merging epoch on.
            return self.primary
        # Write cutover happens at the migrating publish: successors own
        # all new writes from the first post-cutover epoch on.
        return self.successor_of(key_hash)

    def read_shards(self, key_hash: int) -> Tuple[int, ...]:
        """Shards a point query must consult, fresh-writes holder first.

        During a migration window (split *or* merge) the shard owning
        fresh writes (successor while splitting, fused target while
        merging) *and* the shard holding the authoritative pre-cutover
        data are both read; the caller keeps the newest version per key
        by raw ``beginTS``.
        """
        if self.state == "single":
            return (self.primary,)
        if self.state == "migrating":
            return (self.successor_of(key_hash), self.primary)
        if self.state == "merging":
            return (self.primary, self.successor_of(key_hash))
        return (self.successor_of(key_hash),)

    def scatter_shards(self) -> Tuple[int, ...]:
        """Every shard that may hold any of this slot's keys."""
        if self.state == "single":
            return (self.primary,)
        if self.state == "migrating":
            return (self.left, self.right, self.primary)
        if self.state == "merging":
            return (self.primary, self.left, self.right)
        return (self.left, self.right)

    def fresh_write_shards(self) -> Tuple[int, ...]:
        """Shards holding freshly cut-over writes of an open migration.

        A split's two successors during its ``migrating`` window, a
        merge's fused target during its ``merging`` window.  Until the
        final publish they are *frozen* (no maintenance: grooming would
        assign ``beginTS`` from a clock not yet handed forward) and must
        answer authoritatively or not at all (a snapshot-pinned answer
        could silently miss fresh writes).
        """
        if self.state == "migrating":
            return (self.left, self.right)
        if self.state == "merging":
            return (self.primary,)
        return ()


@dataclass(frozen=True)
class ShardMap:
    """One immutable routing epoch."""

    epoch: int
    slots: Tuple[SlotRoute, ...]

    def route_of(self, key_hash: int) -> SlotRoute:
        return self.slots[key_hash % len(self.slots)]

    def write_shard(self, key_hash: int) -> int:
        return self.route_of(key_hash).write_shard(key_hash)

    def scatter_shards(self) -> Tuple[int, ...]:
        """Union of every slot's possible holders, first-seen order."""
        seen: Dict[int, None] = {}
        for route in self.slots:
            for shard_id in route.scatter_shards():
                seen.setdefault(shard_id, None)
        return tuple(seen)

    def fresh_write_shards(self) -> Set[int]:
        """Every slot's :meth:`SlotRoute.fresh_write_shards`."""
        return {
            shard_id
            for route in self.slots
            for shard_id in route.fresh_write_shards()
        }

    def with_slot(self, slot: int, route: SlotRoute, epoch: int) -> "ShardMap":
        slots = list(self.slots)
        slots[slot] = route
        return ShardMap(epoch=epoch, slots=tuple(slots))

    @staticmethod
    def initial(num_shards: int) -> "ShardMap":
        return ShardMap(
            epoch=0,
            slots=tuple(SlotRoute("single", i) for i in range(num_shards)),
        )


class ShardMapRegistry:
    """Versionset-style publication of immutable shard maps.

    Mirrors :class:`~repro.core.epoch.RunLifecycle`'s version set at the
    routing layer: the current map is a single reference, queries
    refcount whole epochs (one Ref + one Unref each, charged to the
    supplied :class:`~repro.storage.metrics.EpochStats`), and a
    superseded epoch is reclaimed when its last pin exits.  ``drain``
    lets a migration wait until no in-flight query can still be
    answering from a pre-publish view.  ``current`` is swapped under the
    plain lock and read without it; pin and unpin take that lock and
    notify the drain condition built on it only while a drainer waits.
    """

    def __init__(
        self, initial: ShardMap, stats: Optional[EpochStats] = None
    ) -> None:
        self._stats = stats if stats is not None else EpochStats()
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._drainers = 0
        self.current = initial
        self._refs: Dict[int, int] = {initial.epoch: 0}
        self._stats.versions_published += 1

    def pin(self) -> ShardMap:
        """Ref the current map; its holder hands ``epoch`` to :meth:`unpin`
        exactly once, in a ``finally``."""
        with self._lock:
            shard_map = self.current
            self._refs[shard_map.epoch] += 1
            self._stats.pins_entered += 1
            self._stats.version_refs += 1
        return shard_map

    def unpin(self, epoch: int) -> None:
        with self._lock:
            self._refs[epoch] -= 1
            self._stats.pins_exited += 1
            self._stats.version_unrefs += 1
            if self._refs[epoch] == 0 and epoch != self.current.epoch:
                del self._refs[epoch]
                self._stats.versions_reclaimed += 1
            if self._drainers:
                self._drained.notify_all()

    def publish(self, new_map: ShardMap) -> ShardMap:
        """Atomically swap in a newer epoch; returns the superseded map."""
        with self._lock:
            old = self.current
            if new_map.epoch <= old.epoch:
                raise ShardMapError(
                    f"epoch must advance: {new_map.epoch} <= {old.epoch}"
                )
            self.current = new_map
            self._refs.setdefault(new_map.epoch, 0)
            self._stats.versions_published += 1
            if self._refs.get(old.epoch, 0) == 0:
                self._refs.pop(old.epoch, None)
                self._stats.versions_reclaimed += 1
            return old

    def drain(self, epoch: int) -> None:
        """Block until no pin on ``epoch`` remains (publish barrier), or
        refuse after :data:`DRAIN_TIMEOUT_S`.

        Registered under the lock from the check through the wait, so the
        unpin that empties ``epoch`` cannot miss this drainer.
        """
        timeout_s = DRAIN_TIMEOUT_S
        deadline = time.monotonic() + timeout_s
        with self._drained:
            while self._refs.get(epoch, 0) > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardMapError(
                        f"epoch {epoch} failed to drain within {timeout_s}s "
                        f"({self._refs.get(epoch, 0)} pins)"
                    )
                self._drainers += 1
                self._drained.wait(timeout=remaining)
                self._drainers -= 1


class ShardingKeySlicer:
    """Hash the sharding key straight off a raw sort key (zero-decode).

    The sort key is ``[hash column (8B)] + encoded key columns +
    ~beginTS``; each key column's encoding is self-delimiting (fixed 8
    bytes for INT64/FLOAT64, escaped-and-terminated for STRING/BYTES), so
    the sharding columns' encoded slices can be located and concatenated
    without decoding a single value.  The concatenation equals the
    sharding values' column encodings joined, so
    ``fnv1a64`` of it is exactly the routing hash the ingest path uses.
    """

    def __init__(
        self,
        definition: IndexDefinition,
        sharding_columns: Sequence[str],
    ) -> None:
        self._definition = definition
        key_names = [spec.name for spec in definition.key_columns]
        positions = []
        for name in sharding_columns:
            if name not in key_names:
                raise ShardMapError(
                    f"sharding column {name!r} is not an index key column; "
                    "online split requires the sharding key to be part of "
                    f"the index key {key_names}"
                )
            positions.append(key_names.index(name))
        self._positions = tuple(positions)

    def hash_of_sort_key(self, sort_key: bytes) -> int:
        slices = self._column_slices(sort_key)
        payload = b"".join(
            sort_key[slices[p][0] : slices[p][1]] for p in self._positions
        )
        return fnv1a64(payload)

    def _column_slices(self, sort_key: bytes) -> Tuple[Tuple[int, int], ...]:
        offset = _HASH_COLUMN_BYTES if self._definition.has_hash_column else 0
        slices = []
        for spec in self._definition.key_columns:
            start = offset
            if spec.ctype in _FIXED_WIDTH_TYPES:
                offset += 8
            else:
                # STRING/BYTES: 0x00 is escaped as 0x00 0xFF; the value
                # ends at the unescaped 0x00 0x00 terminator.
                i = offset
                while True:
                    i = sort_key.index(0, i)
                    if sort_key[i + 1] == 0xFF:
                        i += 2
                        continue
                    offset = i + 2
                    break
            slices.append((start, offset))
        return tuple(slices)


__all__ = [
    "ShardMap",
    "ShardMapError",
    "ShardMapRegistry",
    "ShardingKeySlicer",
    "SlotRoute",
    "successor_side",
]
