"""The secondary plans that resolve every hit through the primary, kept as
the oracle of the ones that resolve only the ghosted hits a shard cannot
vouch for.

Until ghost tracking recorded *which* primary keys a secondary ghosted,
``WildfireShard._execute_plan`` sent every winner of a fetch-back plan
through ``_fetch_back_rids``: the deduplicated primary keys became one
batched primary point lookup, whose hits' RIDs became the one record
fetch.  It lives on here, out of ``src/``, as the reference the shortcut
is compared against (``tests/properties/test_fetch_back_oracle.py``):
same rows, full-row and projected, at the latest snapshot and AS-OF.
A secondary index-only plan is resolved the same way here -- every
winner through the primary, every predicate re-checked on the record,
the row projected from it -- so the index-only shortcut (vouched hits
answered from their entries) is held to it too.  Its records are read
as full :class:`Record` objects, as they were then
(``tests/reference_typed_tail.py``).

``install`` swaps it in for one shard's ``_execute_plan`` (an instance
attribute, as the tracer replaces boundaries); ``uninstall`` drops it.
``unvouched_keys`` recomputes, off a secondary's entries, which primary
keys the shortcut must still hand the primary, and ``newest_begin_ts_in``
reads the version a ghosted key's record must name off the primary and
the secondary themselves.
"""

from types import MethodType
from typing import List, Tuple

from repro.core.query import MAX_QUERY_TS
from repro.wildfire.engine import _within
from repro.wildfire.indexes import PRIMARY_INDEX_NAME

from tests.reference_typed_tail import reference_fetch_records


def unvouched_keys(shard, plan, ts: int) -> List[Tuple]:
    """The primary keys (sorted, as ``entry_pk`` gives them) a secondary
    plan -- fetch-back or index-only -- at ``ts`` must resolve through the
    primary.

    A winner needs no primary when its key is not ghosted (a clean hit is
    its row's newest version), when its beginTS is the key's recorded
    newest, or when that recorded version is at or below both ``ts`` and
    the published snapshot: every index the read searched then holds it,
    so it answers as its own hit.  Every other ghosted winner does: no
    record (a key adopted at split or merge, a groom still publishing or
    cut short), or a newest version past the read (AS-OF).
    """
    if plan.index_name == PRIMARY_INDEX_NAME:
        return []
    ghosted = shard.indexes.get(plan.index_name).ghosted
    horizon = min(ts, shard.clock.snapshot_ts)
    entries = shard.indexes.get(plan.index_name).index.scan(
        plan.equality_values, plan.sort_lower, plan.sort_upper, ts
    )
    rows = [
        entry.equality_values + entry.sort_values + entry.include_values
        + (entry.begin_ts,)
        for entry in entries
    ]
    for p in plan.entry_residuals:
        rows = _within(rows, [row[p.offset] for row in rows], p.low, p.high)
    keys = set()
    for row in rows:
        pk = plan.ghost_key(row)
        if pk not in ghosted or ghosted[pk] == row[-1]:
            continue
        if ghosted[pk] is None or ghosted[pk] > horizon:
            keys.add(plan.entry_pk(row))
    return sorted(keys)


def newest_begin_ts_in(shard, shard_index, pk) -> Tuple[int, int]:
    """The beginTS of the newest version of ``pk`` (as ``ghosted`` keys
    it: a one-column key by its value) in the primary, and of the
    secondary ``shard_index``'s entry under that version's key."""
    if len(shard.schema.primary_key) == 1:
        pk = (pk,)
    key = shard._primary_key_of_pk(pk)
    newest = shard.index.batch_lookup([key], MAX_QUERY_TS)[0]
    values = shard.catalog.fetch_record(newest.rid).values
    equality, sort, _included = shard_index.positions
    entry = shard_index.index.lookup(
        [values[p] for p in equality], [values[p] for p in sort]
    )
    return newest.begin_ts, None if entry is None else entry.begin_ts


def reference_fetch_back_rids(shard, entry_pk, rows: List[Tuple], ts: int) -> List:
    """Every hit's primary key, deduplicated, through one batched lookup."""
    keys = list(map(
        shard._primary_key_of_pk, sorted(set(map(entry_pk, rows)))
    ))
    shard.hierarchy.attribute_reads(f"index:{PRIMARY_INDEX_NAME}")
    return [
        hit.rid for hit in shard.index.batch_lookup(keys, ts)
        if hit is not None
    ]


def reference_execute_plan(shard, plan, ts: int) -> List[Tuple]:
    """``WildfireShard._execute_plan`` with every secondary winner fetched
    back, an index-only plan's included."""
    index = shard.indexes.get(plan.index_name).index
    attribute = shard.hierarchy.attribute_reads
    attributed = attribute(f"index:{plan.index_name}")
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
            if plan.index_name != PRIMARY_INDEX_NAME:
                rids = reference_fetch_back_rids(shard, plan.entry_pk, rows, ts)
            elif plan.index_only:
                return [
                    (plan.entry_pk(row), row[-2], plan.entry_row(row))
                    for row in rows
                ]
            else:
                rids = [row[-1] for row in rows]
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
        return [
            (record_pk(record.values), record.begin_ts, record.values)
            for record in records
        ]
    return [
        (record_pk(record.values), record.begin_ts, record_row(record.values))
        for record in records
    ]


def install(shard) -> None:
    shard._execute_plan = MethodType(reference_execute_plan, shard)


def uninstall(shard) -> None:
    del shard._execute_plan
