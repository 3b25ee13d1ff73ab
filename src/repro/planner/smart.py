"""The cost-based planner (ISSUE 9, layer 2).

Candidate paths: the primary point/scan, each secondary's prefix scan
with RID fetch-back against the primary, and **index-only** variants
when the index's entry columns (key + included) cover the projection
and every residual predicate is entry-checkable.  Costs come entirely
from :class:`~repro.planner.stats.AccessPathSynopsis` -- run counts,
Bloom availability, entry counts, and the distinct-prefix estimate --
so planning reads no blocks and decodes no entries.

The constants are relative weights, not nanoseconds: a run probe is a
few block reads of binary search, a Bloom-gated probe mostly skips
runs, an entry scanned in bulk is cheap, and a record fetch is the
expensive step the paper's included columns exist to avoid (section
4.1: included columns "enable index-only plans").  Ties break
deterministically: primary first, then index name.

**Index-only staleness** (fixed in ISSUE 10): secondary entries carry
no endTS, so an index-only answer is exact only when the row's
*secondary key columns* are stable across versions (included columns
may change freely -- versions of one row share the full entry key and
reconcile newest-wins).  Shards track ghosted entries at groom time
(:meth:`ShardIndexes._track_ghosts`) and surface the count through the
synopsis; any nonzero ``pending_ghosts`` disqualifies that secondary
from index-only plans.  Fetch-back plans re-check every predicate on
the fetched record and are always exact.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.definition import ColumnType
from repro.planner.plan import (
    AccessPlan,
    Bounds,
    CandidateShape,
    PlanError,
    Query,
    bind_values,
    candidate_shape,
    plan_prototype,
)
from repro.planner.stats import AccessPathSynopsis, SynopsisCatalog

RUN_PROBE_COST = 2.0  # binary-search a run (header + a couple of blocks)
BLOOM_PROBE_COST = 0.5  # point probe when every run is Bloom-gated
ENTRY_SCAN_COST = 0.05  # one entry streamed through a range scan
RECORD_FETCH_COST = 4.0  # resolve a RID through the block catalog
FETCH_BACK_PROBE_COST = 2.0  # one primary point lookup per secondary hit
# Compiled shapes kept per shard.  They depend on nothing that changes
# with data, so they are never invalidated; the bound only stops a client
# that invents shapes from growing the dict.
TEMPLATE_LIMIT = 256

# What a query shape compiles to: per usable index, in index order, its
# CandidateShape and the plan prototypes of its variants (fetching
# records, then index-only when the entry columns cover the query).
Template = Tuple[Tuple[CandidateShape, Tuple[AccessPlan, ...]], ...]


def _range_fraction(
    shape: CandidateShape, bounds: Bounds, synopsis: AccessPathSynopsis
) -> float:
    """Estimated selectivity of the consumed range predicate (1.0 if none)."""
    if shape.range_source is None:
        return 1.0
    low, high = bounds[shape.range_source]
    position = shape.bound_prefix
    if (
        position < len(synopsis.key_types)
        and synopsis.key_types[position] is ColumnType.INT64
        and synopsis.key_ranges[position] is not None
    ):
        column_range = synopsis.key_ranges[position]
        domain_low = int(column_range.min_value)
        domain_high = int(column_range.max_value)
        low = domain_low if low is None else max(int(low), domain_low)
        high = domain_high if high is None else min(int(high), domain_high)
        if high < low:
            return 0.0
        return min(1.0, (high - low + 1) / (domain_high - domain_low + 1))
    return 0.5  # non-integer or unknown domain: the classic fallback


def _estimate_rows(
    shape: CandidateShape, bounds: Bounds, synopsis: AccessPathSynopsis
) -> float:
    cap = max(1, synopsis.entry_count)
    prefix = min(shape.bound_prefix, len(synopsis.distinct_prefix) - 1)
    rows = cap / synopsis.distinct_prefix[prefix]
    return rows * _range_fraction(shape, bounds, synopsis)


def _cost(
    shape: CandidateShape,
    synopsis: AccessPathSynopsis,
    rows_est: float,
    index_only: bool,
) -> float:
    if shape.mode == "point" and synopsis.all_runs_bloomed():
        probe = synopsis.run_count * BLOOM_PROBE_COST
    else:
        probe = synopsis.run_count * RUN_PROBE_COST
    scan = rows_est * ENTRY_SCAN_COST
    if index_only:
        fetch = 0.0
    elif shape.is_primary:
        fetch = rows_est * RECORD_FETCH_COST
    else:
        fetch = rows_est * (FETCH_BACK_PROBE_COST + RECORD_FETCH_COST)
    return probe + scan + fetch


def _compile(query: Query, schema, indexes) -> Template:
    """Every index that can serve ``query.shape``, with its plan prototypes."""
    names = list(indexes.names())
    if query.index_hint is not None:
        if query.index_hint not in names:
            raise PlanError(f"index_hint names unknown index "
                            f"{query.index_hint!r} (have {names})")
        names = [query.index_hint]
    template = []
    for name in names:
        shard_index = indexes.get(name)
        shape = candidate_shape(
            query, schema, shard_index, is_primary=name == "primary"
        )
        if shape is None:
            continue
        coverable = shape.covers_projection and not shape.record_residuals
        template.append((shape, tuple(
            plan_prototype(
                shape, query, schema, shard_index,
                planner="smart", index_only=index_only,
            )
            for index_only in ((False, True) if coverable else (False,))
        )))
    if not template:
        raise PlanError(
            "no index can serve the query: every index leaves some "
            "equality column unbound "
            f"(predicates: {list(query.predicate_columns())})"
        )
    return tuple(template)


def plan_smart(
    query: Query, schema, indexes, catalog: SynopsisCatalog
) -> AccessPlan:
    """Compile ``query`` to the cheapest candidate access path.

    The query's shape is compiled once per shard
    (``indexes.plan_templates``); a call binds its values, costs the
    candidates against the current synopses and binds the winner.
    """
    templates = indexes.plan_templates
    template = templates.get(query.shape)
    if template is None:
        template = _compile(query, schema, indexes)
        if len(templates) >= TEMPLATE_LIMIT:
            templates.clear()
        templates[query.shape] = template
    equalities, bounds = bind_values(schema, query)
    scored = []
    best = None
    for shape, prototypes in template:
        synopsis = catalog.synopsis(shape.index_name)
        rows_est = _estimate_rows(shape, bounds, synopsis)
        for prototype in prototypes:
            index_only = prototype.index_only
            # ISSUE 10 bugfix: a secondary holding ghost entries (a key
            # column changed across versions, leaving the old entry
            # visible under its old key) cannot serve index-only answers
            # -- only the fetch-back's record re-check filters ghosts.
            if index_only and not shape.is_primary and synopsis.pending_ghosts:
                continue
            cost = _cost(shape, synopsis, rows_est, index_only)
            scored.append(
                (shape.index_name, shape.mode, index_only, cost, rows_est)
            )
            # Ties break deterministically: primary first, then index
            # name, then the index-only variant.
            rank = (cost, not shape.is_primary, shape.index_name, not index_only)
            if best is None or rank < best[0]:
                best = (rank, prototype, rows_est)
    rank, prototype, rows_est = best
    return prototype.bind(
        equalities, bounds,
        cost=rank[0], rows_est=rows_est, scored=tuple(scored),
    )


__all__ = [
    "BLOOM_PROBE_COST",
    "ENTRY_SCAN_COST",
    "FETCH_BACK_PROBE_COST",
    "RECORD_FETCH_COST",
    "RUN_PROBE_COST",
    "plan_smart",
]
