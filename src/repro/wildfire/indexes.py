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
snapshot reads and time travel work through them too.  Secondary keys are
not unique: a secondary lookup is a range scan over the secondary key
returning every matching (primary) row's newest visible version.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.encoding import encode_ts_desc_column
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
    # Entries whose secondary *key* columns were superseded by a newer
    # version of the same row (ISSUE 10).  Such an entry stays visible
    # forever under its old key -- secondary entries carry no endTS and
    # reconciliation only collapses versions sharing the full entry key --
    # so only a record re-check can filter it.  Any nonzero count
    # disqualifies this index from index-only plans.  Always 0 for the
    # primary (a primary-key change is a different row, not a version).
    ghost_entries: int = 0


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
        self.primary = self._attach(
            PRIMARY_INDEX_NAME, primary_spec, hierarchy, umzi_config
        )
        self.secondaries: Dict[str, ShardIndex] = {}
        # The smart planner's compiled plans by Query.shape: a function of
        # the schema and this set of indexes (``add_secondary`` clears them).
        self.plan_templates: Dict[Tuple, Tuple] = {}
        self._pk_positions = schema.positions(schema.primary_key)
        # Ghost tracking (ISSUE 10): per secondary, the last groomed
        # secondary-key tuple of every primary key.  ``None`` marks a key
        # whose last value is unknown (merge of diverged successors) and
        # compares unequal to everything, so the next update of that row
        # is conservatively counted as a ghost.
        self._key_memo: Dict[str, Dict[Tuple, Optional[Tuple]]] = {}
        for name, spec in (secondary_specs or {}).items():
            self.add_secondary(name, spec, hierarchy, umzi_config)

    def _attach(
        self,
        name: str,
        spec: IndexSpec,
        hierarchy: StorageHierarchy,
        umzi_config: UmziConfig,
    ) -> ShardIndex:
        config = replace(
            umzi_config, name=f"{self.schema.name}-{name}"
        )
        index = UmziIndex(spec.build_definition(self.schema), hierarchy, config)
        return ShardIndex(
            name=name, spec=spec, index=index,
            positions=spec.positions(self.schema),
        )

    def add_secondary(
        self,
        name: str,
        spec: IndexSpec,
        hierarchy: StorageHierarchy,
        umzi_config: UmziConfig,
    ) -> ShardIndex:
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
        self.plan_templates.clear()
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
        block), ``~beginTS`` and the RID are packed once per record, and
        each index joins its own columns into ``(sort_key, blob)`` pairs,
        sorts them and hands them to the blob builder.  No
        :class:`IndexEntry` is built and nothing is re-validated -- rows
        were checked at ``upsert``.  The persisted run is byte-identical
        to ``IndexEntry.create(...)`` + ``RunBuilder.build``
        (tests/core/test_groom_kernel.py).
        """
        records = block.records
        rows = [record.values for record in records]
        if encoded is None:
            encoded = encode_columns(self.schema, rows)
        raw = list(zip(*rows))
        ts_desc = encode_ts_desc_column([record.begin_ts for record in records])
        rids = encode_rid_column(block.zone, block.block_id, len(records))
        run_ids: Dict[str, str] = {}
        # Count ghosts *before* publishing the runs that contain them: a
        # planner racing this groom may cache a synopsis at the new
        # version sequence, and it must already see the ghost count that
        # disqualifies index-only for the new entries.
        if self.secondaries and rows:
            self._track_ghosts(raw)
        for shard_index in self.all():
            equality, sort, included = shard_index.positions
            # The per-index column lists die with each iteration, so peak
            # memory holds one index's pairs, not every index's.
            pairs = entry_blob_columns(
                shard_index.index.definition,
                [encoded[p] for p in equality],
                [encoded[p] for p in sort],
                [encoded[p] for p in included],
                ts_desc,
                rids,
            )
            pairs.sort(key=itemgetter(0))
            synopsis = Synopsis(tuple(
                ColumnRange(min(raw[p]), max(raw[p])) if rows else None
                for p in equality + sort
            ))
            run = shard_index.index.add_groomed_blobs(
                pairs,
                synopsis,
                min_groomed_id=block.block_id,
                max_groomed_id=block.block_id,
            )
            run_ids[shard_index.name] = run.run_id
        return run_ids

    def _track_ghosts(self, raw: Sequence[Tuple]) -> None:
        """Count secondary entries ghosted by these newly groomed rows.

        ``raw`` holds the rows' values column-major.  A new version whose
        secondary-key columns differ from the row's previous version
        leaves the previous entry visible forever under its old key; the
        comparison is a pure tuple equality over the row values.
        """
        pks = list(zip(*[raw[p] for p in self._pk_positions]))
        for name, shard_index in self.secondaries.items():
            memo = self._key_memo[name]
            equality, sort, _included = shard_index.positions
            for pk, key in zip(pks, zip(*[raw[p] for p in equality + sort])):
                if memo.get(pk, key) != key:
                    shard_index.ghost_entries += 1
                memo[pk] = key

    def pending_ghosts(self) -> Dict[str, int]:
        """Per-index ghost counts (tools, tests)."""
        return {si.name: si.ghost_entries for si in self.all()}

    def adopt_ghost_state(self, sources: Sequence["ShardIndexes"]) -> None:
        """Inherit ghost tracking from shards whose entries were copied in.

        Called at split (one source per successor) and merge (both
        successors into the fused target).  Counts add up -- an
        over-count on a split successor that physically received only
        half the ghosts merely keeps index-only disabled, never serves a
        stale answer.  Memo entries that disagree across sources (the
        row was rewritten on one side during the split window) collapse
        to ``None``, which compares unequal to any future key and so
        counts the next update as a ghost -- conservative, never wrong.
        """
        for name, shard_index in self.secondaries.items():
            memo = self._key_memo[name]
            for source in sources:
                shard_index.ghost_entries += source.secondaries[
                    name
                ].ghost_entries
                for pk, key in source._key_memo.get(name, {}).items():
                    if pk in memo and memo[pk] != key:
                        memo[pk] = None
                    else:
                        memo[pk] = key

    def min_indexed_psn(self) -> int:
        """The slowest index's progress gates groomed-block deletion."""
        return min(si.index.indexed_psn for si in self.all())

    def run_maintenance(self) -> int:
        merges = 0
        for shard_index in self.all():
            merges += len(shard_index.index.run_maintenance())
        return merges


__all__ = ["PRIMARY_INDEX_NAME", "ShardIndex", "ShardIndexes"]
