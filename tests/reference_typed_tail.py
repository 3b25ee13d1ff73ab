"""The typed path's per-row tail as it was before residuals ran on entries.

Until entry residuals read each ``IndexEntry``'s own field,
``WildfireShard._execute_plan`` built one flat row per index winner --
``equality + sort + include + (beginTS, RID)`` -- filtered those rows by
each residual's flat ``offset``, and read the survivors' records as full
:class:`Record` objects (endTS overlay applied, prevRID built) through the
batched catalog fetch, which now returns ``(values, beginTS)`` pairs.
Both live on here, out of ``src/``, as the oracle the leaner tail is
compared against (``tests/properties/test_typed_tail_oracle.py``): same
``(pk, beginTS, row)`` tags per shard, full-row and projected, at the
latest snapshot and AS-OF.  Its secondary plans, index-only ones
included, send every ghosted winner through the primary and answer the
rest from their entries (index-only) or by their own RIDs.

``install`` swaps the old tail in for one shard's ``_execute_plan`` (an
instance attribute, as the tracer replaces boundaries); ``uninstall``
drops it.
"""

from types import MethodType
from typing import List, Tuple

from repro.core.entry import RID, ZONES
from repro.wildfire.engine import _within
from repro.wildfire.record import Record


def reference_fetch_records(catalog, rids) -> List[Record]:
    """The batched record fetch that built a full :class:`Record` per RID."""
    records = []
    for rid in rids:
        key, offset = rid[:2], rid[2]
        block = catalog._decoded.get(key) or catalog.get_block(*key)
        prev = block.prev_rids[offset]
        ended = catalog._end_ts.get(key, {})
        records.append(Record(
            block.rows[offset], block.begin_ts[offset],
            ended.get(offset, block.end_ts[offset]),
            prev and RID(ZONES[prev[0]], prev[1], prev[2]),
        ))
    return records


def reference_execute_plan(shard, plan, ts: int) -> List[Tuple]:
    """``WildfireShard._execute_plan`` with a row built for every entry,
    the residuals run on the rows, and a :class:`Record` per fetch."""
    shard_index = shard.indexes.get(plan.index_name)
    index = shard_index.index
    attribute = shard.hierarchy.attribute_reads
    attributed = attribute(f"index:{plan.index_name}")
    answered = []
    try:
        if plan.mode == "point":
            hit = index.lookup(plan.equality_values, plan.sort_values, ts)
            entries = [] if hit is None else [hit]
        else:
            entries = index.scan(
                plan.equality_values, plan.sort_lower, plan.sort_upper, ts
            )
        if plan.index_only or plan.fetch_back or plan.entry_residuals:
            rows = [
                entry.equality_values + entry.sort_values
                + entry.include_values + (entry.begin_ts, entry.rid)
                for entry in entries
            ]
            for p in plan.entry_residuals:
                rows = _within(
                    rows, [row[p.offset] for row in rows], p.low, p.high
                )
            entry_pk, ghost_key = plan.entry_pk, plan.ghost_key
            stale = shard_index.ghosted.keys() & set(map(ghost_key, rows))
            clean = [row for row in rows if ghost_key(row) not in stale]
            if plan.index_only:
                answered = [
                    (entry_pk(row), row[-2], plan.entry_row(row))
                    for row in clean
                ]
                if not stale:
                    return answered
                rids = []
            else:
                rids = [row[-1] for row in clean]
            if stale:
                rids += shard._fetch_back_rids(entry_pk, [
                    row for row in rows if ghost_key(row) in stale
                ], clean, ts)
        else:
            rids = [entry.rid for entry in entries]
        attribute("records")
        records = reference_fetch_records(shard.catalog, rids)
    finally:
        attribute(attributed)
    for p in plan.record_checks:
        records = _within(
            records, [record.values[p.position] for record in records],
            p.low, p.high,
        )
    record_pk, record_row = plan.record_pk, plan.record_row
    if record_row is None:
        return answered + [
            (record_pk(record.values), record.begin_ts, record.values)
            for record in records
        ]
    return answered + [
        (record_pk(record.values), record.begin_ts, record_row(record.values))
        for record in records
    ]


def install(shard) -> None:
    shard._execute_plan = MethodType(reference_execute_plan, shard)


def uninstall(shard) -> None:
    del shard._execute_plan
