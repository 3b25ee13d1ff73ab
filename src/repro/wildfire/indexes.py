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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, compress
from operator import ne
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.encoding import columns_of, encode_ts_desc_column
from repro.core.entry import encode_rid_column, entry_blob_columns
from repro.core.index import UmziConfig, UmziIndex
from repro.core.run import ColumnRange, Synopsis
from repro.storage.hierarchy import StorageHierarchy
from repro.wildfire.columnar import Columns, DataBlock, encode_columns
from repro.wildfire.schema import IndexSpec, SchemaError, TableSchema

PRIMARY_INDEX_NAME = "primary"


@dataclass
class ShardIndex:
    """One named index attached to a shard."""

    name: str
    spec: IndexSpec
    index: UmziIndex
    positions: Tuple[Tuple[int, ...], ...]  # IndexSpec.positions(schema)
    # Primary keys whose secondary *key* columns changed between versions
    # (the older entry stays visible under its old key, having no endTS),
    # each mapped to its newest version's beginTS in every index, or
    # ``None`` while unknown (a groom publishing or cut short, a key
    # adopted at split or merge): every secondary plan vouches for its
    # hits by it.  Always empty for the primary.  A one-column pk is its value.
    ghosted: Dict[object, Optional[int]] = field(default_factory=dict, init=False)
    # Equality value -> encoded hash, across grooms (``entry.hash_column``);
    # touched only under the groom lock.
    hash_memo: Dict[object, bytes] = field(default_factory=dict, init=False)


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
        index = UmziIndex(spec.build_definition(self.schema), hierarchy, config)
        return ShardIndex(name, spec, index, spec.positions(self.schema))

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

    def build_groomed_runs(
        self, block: DataBlock, encoded: Optional[Columns] = None
    ) -> Dict[str, str]:
        """One index run per index over one newly groomed block.

        Column at a time: every user column is encoded once for all
        indexes (``encoded``: the groomer's encode, which also wrote the
        block), ``~beginTS`` and the RID once per record; each index joins
        its columns into sort-key and blob columns (an equality value is
        hashed once per shard, ``hash_memo``) and hands them to the run
        builder in the order of a sorted permutation.  No entry is built
        and nothing re-validated (rows were checked at ``upsert``); the run
        is byte-identical to ``IndexEntry.create(...)`` + ``RunBuilder.build``
        (tests/core/test_groom_kernel.py).
        """
        rows = block.rows
        if encoded is None:
            encoded = encode_columns(self.schema, rows)
        raw = columns_of(rows, range(len(self.schema.columns)))
        ts_desc = encode_ts_desc_column(block.begin_ts)
        rids = encode_rid_column(block.zone, block.block_id, len(rows))
        run_ids: Dict[str, str] = {}
        # Mark ghosts *before* publishing the runs that contain them: a
        # read racing this groom may already see a new entry, and the old
        # entry it supersedes must not answer for itself meanwhile.  Their
        # beginTS is recorded only once every index holds them.
        newest = self._track_ghosts(raw, block.begin_ts) if rows else ()
        for shard_index in self.all():
            equality, sort, included = shard_index.positions
            # Peak memory holds one index's columns, not every index's.
            sort_keys, blobs = entry_blob_columns(
                shard_index.index.definition, [encoded[p] for p in equality],
                [encoded[p] for p in sort], [encoded[p] for p in included],
                ts_desc, rids, [raw[p] for p in equality], shard_index.hash_memo,
            )
            order = sorted(range(len(sort_keys)), key=sort_keys.__getitem__)
            synopsis = Synopsis(tuple(
                ColumnRange(min(raw[p]), max(raw[p])) if rows else None
                for p in equality + sort
            ))
            run = shard_index.index.add_groomed_columns(
                list(map(sort_keys.__getitem__, order)),
                list(map(blobs.__getitem__, order)),
                synopsis, block.block_id, block.block_id,
            )
            run_ids[shard_index.name] = run.run_id
        for ghosted, begin_ts in newest:
            ghosted.update(begin_ts)
        return run_ids

    def _track_ghosts(self, raw: Sequence[Sequence], begin_ts: Sequence[int]):
        """Map the primary keys among the rows (``raw``: values column-major,
        versions ``begin_ts``) whose secondary key ever moved -- ghosted, or
        not every version, the memo's and the batch's, carries its last key
        -- to ``None``; return ``(ghosted, {pk: newest beginTS})`` pairs."""
        pk_positions = self._pk_positions
        pks = [raw[p] for p in pk_positions]
        pks = pks[0] if len(pks) == 1 else list(zip(*pks))
        newest = dict(zip(pks, begin_ts))  # each key's last version
        pending = []
        for name, shard_index in self.secondaries.items():
            memo, ghosted = self._key_memo[name], shard_index.ghosted
            equality, sort, _included = shard_index.positions
            keys = [raw[p] for p in equality + sort if p not in pk_positions]
            keys = keys[0] if len(keys) == 1 else list(zip(*keys))
            last = dict(zip(pks, keys))
            moved = dict.fromkeys(chain(
                compress(pks, map(ne, keys, map(last.__getitem__, pks))),
                compress(last, map(ne, map(memo.get, last, last.values()),
                                   last.values())),
                compress(last, map(ghosted.__contains__, last)),
            ))
            ghosted.update(moved)
            memo.update(last)
            pending.append((ghosted, dict(zip(moved, map(newest.__getitem__, moved)))))
        return pending

    def pending_ghosts(self) -> Dict[str, int]:
        """Per-index count of ghosted keys (tools, tests): gates no plan."""
        return {si.name: len(si.ghosted) for si in self.all()}

    def adopt_ghost_state(self, sources: Sequence["ShardIndexes"]) -> None:
        """Inherit ghost tracking from shards whose entries were copied in.

        Called at split (one source per successor) and merge (both
        successors into the fused target).  The sources' ghosted keys are
        unioned, plus every key whose memos disagree across sources: a key
        ghosted anywhere keeps its stale entry in the copy, none counts
        twice and a replayed adoption adds nothing.  A split successor
        also inherits the other half's keys, which it holds no hit of.  A
        key a source ghosted has no record until groomed here.
        """
        for name, shard_index in self.secondaries.items():
            memo, ghosted = self._key_memo[name], shard_index.ghosted
            for source in sources:
                ghosted.update(dict.fromkeys(source.secondaries[name].ghosted))
                for pk, key in source._key_memo.get(name, {}).items():
                    if memo.setdefault(pk, key) != key or pk in ghosted:
                        ghosted[pk] = None

    def min_indexed_psn(self) -> int:
        """The slowest index's progress gates groomed-block deletion."""
        return min(si.index.indexed_psn for si in self.all())


__all__ = ["PRIMARY_INDEX_NAME", "ShardIndex", "ShardIndexes"]
