"""Primary + secondary index management for one shard.

The paper's future work (section 10): "we plan to extend Umzi to build and
maintain secondary indexes in HTAP systems."  This module implements that
extension: a shard owns one *primary* Umzi index (key columns = the
table's primary key) and any number of *secondary* Umzi indexes (key
columns over arbitrary table columns).

All indexes share the shard's lifecycle: every groom builds one run per
index over the new groomed block, and every post-groom is followed by one
evolve per index.  Secondary indexes are multi-version exactly like the
primary -- a secondary entry carries the version's ``beginTS`` and RID, so
snapshot reads and time travel work through them too.  An entry for a row's
old secondary key has no endTS, so it stays visible after the row moves: a
secondary is read only by a typed query, whose every plan -- index-only or
fetch-back -- vouches for each hit from ``ghosted``.

Such entries end by the validation strategy (Luo & Carey, PVLDB 2019;
DELI, Tang et al., CCGrid 2015): a groom notes each key a row left
(``stale``); once the row's newest version is at or below the retention
horizon, merges drop those entries (``ShardIndex.dead_keys``); once no run
can hold one, ``ShardIndex.repair`` forgets the ghost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, compress
from operator import gt, itemgetter, ne
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.core.definition import COLUMN_ENCODERS
from repro.core.encoding import columns_of, encode_ts_desc_column
from repro.core.entry import encode_rid_column, entry_blob_columns, user_key_of
from repro.core.index import UmziConfig, UmziIndex
from repro.core.run import ColumnRange, Synopsis
from repro.storage.hierarchy import StorageHierarchy
from repro.wildfire.columnar import Columns, DataBlock, encode_batch
from repro.wildfire.schema import IndexSpec, SchemaError, TableSchema

PRIMARY_INDEX_NAME = "primary"


@dataclass
class ShardIndex:
    """One named index attached to a shard."""

    name: str
    spec: IndexSpec
    positions: Tuple[Tuple[int, ...], ...]  # IndexSpec.positions(schema)
    index: UmziIndex = field(init=False)  # merges read ``dead_keys``
    # Primary keys whose secondary *key* columns changed between versions
    # (the older entry stays visible under its old key, having no endTS),
    # each mapped to its newest version's beginTS in every index, or
    # ``None`` while unknown (a groom publishing or cut short, a key
    # adopted at split or merge): every secondary plan vouches for its
    # hits by it.  Always empty for the primary.  A one-column pk is its value.
    ghosted: Dict[object, Optional[int]] = field(default_factory=dict, init=False)
    # Each key a ghosted pk left, encoded as a user key -> the pk.
    stale: Dict[bytes, object] = field(default_factory=dict, init=False)
    # Run id -> the horizon of the merge that built it, in memory only (a
    # recovered run counts as unrepaired); and the last forgetting bound.
    repaired: Dict[str, int] = field(default_factory=dict, init=False)
    forgotten_to: int = field(default=-1, init=False)
    # Equality value -> encoded hash, across grooms (``entry.hash_column``);
    # touched only under the groom lock.
    hash_memo: Dict[object, bytes] = field(default_factory=dict, init=False)

    def dead_keys(self, horizon: int) -> Collection[bytes]:
        """The stale keys of the ghosts whose newest version is at or below
        ``horizon``: no snapshot at or after it reads their entries."""
        if not self.stale:
            return ()
        return {key for key, pk in self.stale.items()
                if (newest := self.ghosted.get(pk)) is not None and newest <= horizon}

    def repair(self, merges: Sequence, horizon: int) -> None:
        """Mark the runs ``merges`` built at ``horizon``, then forget each
        ghost no run of this index can hold a stale entry of: every live run
        was built by a merge at a horizon at or after the ghost's newest
        version or holds only newer ones, and no query pins a run merged
        away.  A query vouches by the map it read before its scan, so the
        forgetting builds a new map and reaches later queries alone."""
        if not (self.ghosted and horizon):  # no mark could reach a ghost, now or later
            self.repaired = {}
            return
        runs = self.index.all_runs()
        ids = {run.run_id for run in runs}
        marks = self.repaired | {merge.output_run_id: horizon for merge in merges}
        self.repaired = {run_id: marks[run_id] for run_id in ids & marks.keys()}
        if not ids.issuperset(self.index.lifecycle.pinned_run_ids()):
            return
        bound = min([max(self.repaired.get(run.run_id, -1), run.header.min_begin_ts - 1)
                     for run in runs if run.entry_count], default=-1)
        if bound <= self.forgotten_to:  # a newest version only grows, from above it
            return
        self.forgotten_to = bound
        self.ghosted = {pk: newest for pk, newest in self.ghosted.items()
                        if newest is None or newest > bound}
        self.stale = {key: pk for key, pk in self.stale.items() if pk in self.ghosted}


class ShardIndexes:
    """The set of indexes a shard maintains in lockstep."""

    def __init__(
        self,
        schema: TableSchema,
        primary_spec: IndexSpec,
        hierarchy: StorageHierarchy,
        umzi_config: UmziConfig,
        secondary_specs: Optional[Dict[str, IndexSpec]] = None,
    ) -> None:
        self.schema = schema
        primary_spec.validate_primary(schema)
        self.primary = self._attach(PRIMARY_INDEX_NAME, primary_spec, hierarchy, umzi_config)
        self.secondaries: Dict[str, ShardIndex] = {}
        # The smart planner's compiled plans by Query.shape, shared by a
        # table's shards (``add_secondary`` gives this shard its own).
        self.plan_templates: Dict[Tuple, Tuple] = {}
        self._pk_positions = schema.positions(schema.primary_key)
        # Ghost tracking: per secondary, each pk's last groomed key, cut to
        # its columns outside the pk (which alone can move; one: its value).
        self._key_memo: Dict[str, Dict[object, object]] = {}
        for name, spec in (secondary_specs or {}).items():
            self.add_secondary(name, spec, hierarchy, umzi_config)

    def _attach(self, name: str, spec: IndexSpec, hierarchy: StorageHierarchy,
                umzi_config: UmziConfig) -> ShardIndex:
        config = replace(umzi_config, name=f"{self.schema.name}-{name}")
        attached = ShardIndex(name, spec, spec.positions(self.schema))
        attached.index = UmziIndex(spec.build_definition(self.schema), hierarchy, config,
                                   dead_keys=attached.dead_keys)
        return attached

    def add_secondary(self, name: str, spec: IndexSpec, hierarchy: StorageHierarchy,
                      umzi_config: UmziConfig) -> ShardIndex:
        """Register a secondary index (before any data is ingested).

        Building secondary indexes over pre-existing data would require a
        backfill scan, which the engine does not implement; registration is
        therefore restricted to empty shards (enforced by the caller).
        """
        if name == PRIMARY_INDEX_NAME or name in self.secondaries:
            raise SchemaError(f"index name {name!r} already in use")
        # Suffix the primary key so every (secondary key, primary key) pair
        # is unique -- reconciliation must collapse versions, not distinct
        # records that happen to share a secondary value.
        spec = spec.with_primary_key_suffix(self.schema)
        attached = self._attach(name, spec, hierarchy, umzi_config)
        self.secondaries[name] = attached
        self._key_memo[name] = {}
        self.plan_templates = {}
        return attached

    # -- iteration ---------------------------------------------------------------

    def all(self) -> List[ShardIndex]:
        return [self.primary] + list(self.secondaries.values())

    def get(self, name: str) -> ShardIndex:
        if name == PRIMARY_INDEX_NAME:
            return self.primary
        if name in self.secondaries:
            return self.secondaries[name]
        raise KeyError(f"no index named {name!r}")

    def names(self) -> List[str]:
        return [si.name for si in self.all()]

    # -- lifecycle fan-out ---------------------------------------------------------

    def build_groomed_runs(self, block: DataBlock, raw: Optional[Sequence] = None,
                           encoded: Optional[Columns] = None) -> Dict[str, str]:
        """One index run per index over one newly groomed block.

        Column at a time: ``raw`` and ``encoded`` are the groomer's batch
        columns and its one encode of them (a lone block is transposed from
        its rows); ``~beginTS``, RIDs, key column ranges and beginTS bounds
        are made once per groom; each index joins its columns into sort-key
        and blob columns (an equality value is hashed once per shard,
        ``hash_memo``) and hands them to the run builder in sorted order.  No
        entry is built and nothing re-validated (the door validated the batch);
        the run is byte-identical to ``IndexEntry.create(...)`` +
        ``RunBuilder.build`` (tests/core/test_groom_kernel.py).
        """
        rows = block.rows
        if raw is None:
            raw = columns_of(rows, range(len(self.schema.columns)))
            encoded = encode_batch(self.schema, raw)
        ts_desc = encode_ts_desc_column(block.begin_ts)
        rids = encode_rid_column(block.zone, block.block_id, len(rows))
        run_ids: Dict[str, str] = {}
        # Mark ghosts *before* publishing the runs that contain them: a
        # read racing this groom may already see a new entry, and the old
        # entry it supersedes must not answer for itself meanwhile.  Their
        # beginTS is recorded only once every index holds them.
        newest = self._track_ghosts(raw, block.begin_ts) if rows else {}
        keyed = {p for si in self.all() for p in chain(*si.positions[:2])}
        ranges = {p: ColumnRange(min(raw[p]), max(raw[p])) for p in keyed} if rows else {}
        bounds = (min(block.begin_ts), max(block.begin_ts)) if rows else None
        for shard_index in self.all():
            equality, sort, included = shard_index.positions
            # Peak memory holds one index's columns, not every index's.
            sort_keys, blobs = entry_blob_columns(
                shard_index.index.definition, [encoded[p] for p in equality],
                [encoded[p] for p in sort], [encoded[p] for p in included],
                ts_desc, rids, [raw[p] for p in equality], shard_index.hash_memo,
            )
            if shard_index.name in newest and newest[shard_index.name][1]:
                self._revive(shard_index, sort_keys, newest[shard_index.name][1])
            order = sorted(range(len(sort_keys)), key=sort_keys.__getitem__)
            run = shard_index.index.add_groomed_columns(
                list(map(sort_keys.__getitem__, order)),
                list(map(blobs.__getitem__, order)),
                Synopsis(tuple(map(ranges.get, equality + sort))),
                block.block_id, block.block_id, bounds,
            )
            run_ids[shard_index.name] = run.run_id
        for name, (begin_ts, _last) in newest.items():
            self.secondaries[name].ghosted.update(begin_ts)
        return run_ids

    def _track_ghosts(self, raw: Sequence[Sequence], begin_ts: Sequence[int]):
        """Map the primary keys among the rows (``raw``: values column-major,
        versions ``begin_ts``) whose secondary key ever moved -- ghosted, or
        not every version, the memo's and the batch's, carries its last key
        -- to ``None`` and note the keys they left; per secondary, return
        ``{pk: newest beginTS}`` and the rows of those pks with their last key."""
        pk_positions = self._pk_positions
        pks = [raw[p] for p in pk_positions]
        pks = pks[0] if len(pks) == 1 else list(zip(*pks))
        newest = dict(zip(pks, begin_ts))  # each key's last version
        pending = {}
        for name, shard_index in self.secondaries.items():
            memo, ghosted = self._key_memo[name], shard_index.ghosted
            equality, sort, _included = shard_index.positions
            keys = [raw[p] for p in equality + sort if p not in pk_positions]
            keys = keys[0] if len(keys) == 1 else list(zip(*keys))
            last = dict(zip(pks, keys))
            moving = list(map(ne, keys, map(last.__getitem__, pks)))  # not the last key
            left = list(compress(last, map(ne, map(memo.get, last, last.values()),
                                           last.values())))
            stale = [*zip(compress(keys, moving), compress(pks, moving)),
                     *zip(map(memo.__getitem__, left), left)]
            moved = dict.fromkeys(chain(
                map(itemgetter(1), stale), compress(last, map(ghosted.__contains__, last)),
            ))
            ghosted.update(moved)
            memo.update(last)
            # Only a key noted stale before may be some row's last one again.
            back = list(map(gt, map(moved.__contains__, pks), moving)) if shard_index.stale else ()
            if stale:
                self._note_stale(shard_index, stale)
            pending[name] = (dict(zip(moved, map(newest.__getitem__, moved))), back)
        return pending

    def _note_stale(self, shard_index, pairs: Sequence[Tuple]) -> None:
        """Note ``(key cut to its columns outside the pk, pk)`` pairs as
        stale keys of ``shard_index``: user keys joined by the groom's own
        builder, beginTS and RID left empty, with the hashes its memo holds
        (read, not written: the memo stays the groom's)."""
        equality, sort, _included = shard_index.positions
        pk_positions = self._pk_positions
        cuts, pks = zip(*pairs)
        outside = [p for p in equality + sort if p not in pk_positions]
        values = dict(zip(outside, [cuts] if len(outside) == 1 else zip(*cuts)))
        values.update(zip(pk_positions, [pks] if len(pk_positions) == 1 else zip(*pks)))
        encoded = {p: COLUMN_ENCODERS[self.schema.columns[p].ctype](column)
                   for p, column in values.items()}
        empty, hashed = [b""] * len(pks), [values[p] for p in equality]
        known = shard_index.hash_memo
        memo = {v: known[v] for v in known.keys() & set(
            hashed[0] if len(hashed) == 1 else zip(*hashed))}
        user_keys, _blobs = entry_blob_columns(
            shard_index.index.definition, [encoded[p] for p in equality],
            [encoded[p] for p in sort], (), empty, empty, hashed, memo,
        )
        shard_index.stale.update(zip(user_keys, pks))

    @staticmethod
    def _revive(shard_index: ShardIndex, sort_keys: List[bytes], back: Sequence[bool]) -> None:
        """Un-note the stale keys the rows ``back`` marks (a moved pk's last
        row) moved back to: live again, read off the groom's sort keys."""
        stale = shard_index.stale
        for user_key in stale.keys() & set(map(user_key_of, compress(sort_keys, back))):
            del stale[user_key]

    def pending_ghosts(self) -> Dict[str, int]:
        """Per-index count of ghosted keys (tools, tests): gates no plan."""
        return {si.name: len(si.ghosted) for si in self.all()}

    def adopt_ghost_state(self, sources: Sequence["ShardIndexes"]) -> None:
        """Inherit ghost tracking from shards whose entries were copied in.

        Called at split (one source per successor) and merge (both
        successors into the fused target).  The sources' ghosted and stale
        keys are unioned, plus every key whose memos disagree (both noted
        stale; a groom here tells the last): none counts twice, a replayed
        adoption adds nothing, and a split successor also inherits the other
        half's keys.  A key a source ghosted has no record until groomed here.
        """
        for name, shard_index in self.secondaries.items():
            memo, ghosted, left = self._key_memo[name], shard_index.ghosted, []
            for source in sources:
                shard_index.stale.update(source.secondaries[name].stale)
                ghosted.update(dict.fromkeys(source.secondaries[name].ghosted))
                for pk, key in source._key_memo.get(name, {}).items():
                    if memo.setdefault(pk, key) != key:
                        left += [(key, pk), (memo[pk], pk)]
                        ghosted[pk] = None
                    elif pk in ghosted:
                        ghosted[pk] = None
            if left:
                self._note_stale(shard_index, left)

    def min_indexed_psn(self) -> int:
        """The slowest index's progress gates groomed-block deletion."""
        return min(si.index.indexed_psn for si in self.all())


__all__ = ["PRIMARY_INDEX_NAME", "ShardIndex", "ShardIndexes"]
