"""The fetch-back that resolves every secondary hit, kept as the oracle of
the one that resolves only ghosted keys.

Until ghost tracking recorded *which* primary keys a secondary ghosted,
``WildfireShard._execute_plan`` sent every winner of a fetch-back plan
through ``_fetch_back_rids``: the deduplicated primary keys became one
batched primary point lookup, whose hits' RIDs became the one record
fetch.  It lives on here, out of ``src/``, as the reference the shortcut
is compared against (``tests/properties/test_fetch_back_oracle.py``):
same rows, full-row and projected, at the latest snapshot and AS-OF.
Its records are read as full :class:`Record` objects, as they were then
(``tests/reference_typed_tail.py``).

``install`` swaps it in for one shard's ``_execute_plan`` (an instance
attribute, as the tracer replaces boundaries); ``uninstall`` drops it.
"""

from types import MethodType
from typing import List, Tuple

from repro.wildfire.engine import _within
from repro.wildfire.indexes import PRIMARY_INDEX_NAME

from tests.reference_typed_tail import reference_fetch_records


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
    """``WildfireShard._execute_plan`` with every winner fetched back."""
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
            if plan.index_only:
                return shard._project_entries(plan, rows)
            if plan.fetch_back:
                rids = reference_fetch_back_rids(shard, plan.entry_pk, rows, ts)
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
