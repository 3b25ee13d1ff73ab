"""The cost-based planner (ISSUE 9, layer 2).

Candidate paths: the primary point/scan, each secondary's prefix scan
with RID fetch-back against the primary, and **index-only** variants
when the index's entry columns (key + included) cover the projection
and every residual predicate is entry-checkable.  Costs come entirely
from :class:`~repro.planner.stats.AccessPathSynopsis` -- run counts,
entry counts, and the distinct-prefix estimate -- so planning reads no
blocks and decodes no entries.

The constants are relative weights, not nanoseconds: a run probe is a
few block reads of binary search, an entry scanned in bulk is cheap,
and a record fetch is the expensive step the paper's included columns
exist to avoid (section 4.1: included columns "enable index-only
plans").  Ties break deterministically: primary first, then index name.

**Stale secondary entries** are the executor's business, not the
planner's: secondary entries carry no endTS, so a row whose *secondary
key columns* changed leaves its old entry visible under the old key
(included columns may change freely -- versions of one row share the
full entry key and reconcile newest-wins).  Shards record those keys at
groom time with their newest version (``ShardIndex.ghosted``), and every
secondary plan, index-only or fetch-back, vouches for its hits from that
record: a hit at a clean key or at its key's newest version answers for
itself, an older one is dropped, and a doubtful one is answered by the
primary with every predicate re-checked on the record.  So a covering
secondary stays index-only after a key moves.

**Compile once per table, derive per shard and publication, bind once
per query.**  What follows from a query's *shape* is compiled once per
table (``ShardIndexes.plan_templates``, shared by its shards); what
follows from a shard's synopses -- each candidate's cost terms, the
winner when no estimate reads a bound, the key ranges the cluster prunes
its scatter by -- is derived once per :meth:`SynopsisCatalog.stamp` and
kept until a publication moves it; what follows from
the values is bound once per query and picked candidate, in the
:class:`Binding` every shard the query reaches is handed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.definition import ColumnType
from repro.planner.plan import (
    AccessPlan,
    Binding,
    Bounds,
    CandidateShape,
    PlanError,
    Query,
    candidate_shape,
    plan_prototype,
)
from repro.planner.stats import AccessPathSynopsis, SynopsisCatalog

RUN_PROBE_COST = 2.0  # binary-search a run (header + a couple of blocks)
ENTRY_SCAN_COST = 0.05  # one entry streamed through a range scan
RECORD_FETCH_COST = 4.0  # resolve a RID through the block catalog
FETCH_BACK_PROBE_COST = 2.0  # one primary point lookup per secondary hit
# Templates kept per table.  What they compile depends on nothing that
# changes with data, so they are never invalidated; the bound only stops a
# client that invents shapes from growing the dict.
TEMPLATE_LIMIT = 256

# One costed candidate: shape, row estimate before the range fraction, the
# INT64 domain ``(low, high)`` the fraction is taken over (None: a constant,
# already folded in), variants as ``(prototype, probe cost, cost per row)``.
Costed = Tuple[
    CandidateShape, float, Optional[Tuple[int, int]],
    Tuple[Tuple[AccessPlan, float, float], ...],
]
# The winning prototype, its cost and row estimate, ``AccessPlan.scored``.
Ranked = Tuple[AccessPlan, float, float, Tuple]


class _Derived:
    """What one :meth:`SynopsisCatalog.stamp` says about a shape on one
    shard: ``prune``, the shard's key ranges on the columns the shape
    binds (see :func:`cannot_match`); ``costed``, once planned, the
    compiled candidates, their cost terms and the winner when no term
    reads a bound -- one tuple, so a concurrent query sees old or new."""

    __slots__ = ("stamp", "prune", "costed")

    def __init__(self, stamp: List, prune: Optional[List]) -> None:
        self.stamp = stamp
        self.prune = prune  # None: the shard holds no rows
        self.costed: Optional[Tuple] = None


def _derived(query: Query, indexes, catalog: SynopsisCatalog) -> _Derived:
    """The shape's derived half on this shard, current with its synopses."""
    kept = catalog.derived
    stamp = catalog.stamp()
    derived = kept.get(query.shape)
    if derived is None or derived.stamp != stamp:
        if derived is None and len(kept) >= TEMPLATE_LIMIT:
            kept.clear()
        derived = kept[query.shape] = _Derived(
            stamp, _prune_terms(query.shape, indexes, catalog)
        )
    return derived


def _compile(query: Query, schema, indexes) -> Tuple:
    """Every index that can serve ``query.shape``, with its plan prototypes."""
    names = list(indexes.names())
    if query.index_hint is not None:
        if query.index_hint not in names:
            raise PlanError(f"index_hint names unknown index "
                            f"{query.index_hint!r} (have {names})")
        names = [query.index_hint]
    candidates = []
    for name in names:
        shard_index = indexes.get(name)
        shape = candidate_shape(
            query, schema, shard_index, is_primary=name == "primary"
        )
        if shape is None:
            continue
        coverable = shape.covers_projection and not shape.record_residuals
        candidates.append((shape, tuple(
            plan_prototype(
                shape, query, schema, shard_index,
                planner="smart", index_only=index_only,
            )
            for index_only in ((False, True) if coverable else (False,))
        )))
    if not candidates:
        raise PlanError(
            "no index can serve the query: every index leaves some "
            "equality column unbound "
            f"(predicates: {list(query.predicate_columns())})"
        )
    return tuple(candidates)


def _cost_terms(
    shape: CandidateShape,
    prototypes: Sequence[AccessPlan],
    synopsis: AccessPathSynopsis,
) -> Costed:
    """One candidate's share of the cost model, from its index's synopsis."""
    prefix = min(shape.bound_prefix, len(synopsis.distinct_prefix) - 1)
    rows = max(1, synopsis.entry_count) / synopsis.distinct_prefix[prefix]
    domain = None
    if shape.range_source is not None:
        # Selectivity of the consumed range predicate: a share of the
        # column's observed INT64 span, else the classic fallback.
        position = shape.bound_prefix
        if (
            position < len(synopsis.key_types)
            and synopsis.key_types[position] is ColumnType.INT64
            and synopsis.key_ranges[position] is not None
        ):
            column_range = synopsis.key_ranges[position]
            domain = (int(column_range.min_value), int(column_range.max_value))
        else:
            rows = rows * 0.5
    probe = synopsis.run_count * RUN_PROBE_COST
    variants = []
    for prototype in prototypes:
        if prototype.index_only:
            per_row = 0.0
        elif shape.is_primary:
            per_row = RECORD_FETCH_COST
        else:
            per_row = FETCH_BACK_PROBE_COST + RECORD_FETCH_COST
        variants.append((prototype, probe, per_row))
    return shape, rows, domain, tuple(variants)


def _rank(costed: Sequence[Costed], bounds: Bounds) -> Ranked:
    """Cost every candidate and keep the cheapest."""
    scored = []
    best = None
    for shape, rows_est, domain, variants in costed:
        if domain is not None:
            domain_low, domain_high = domain
            low, high = bounds[shape.range_source]
            low = domain_low if low is None else max(int(low), domain_low)
            high = domain_high if high is None else min(int(high), domain_high)
            rows_est = rows_est * (
                0.0 if high < low
                else min(1.0, (high - low + 1) / (domain_high - domain_low + 1))
            )
        for prototype, probe, per_row in variants:
            index_only = prototype.index_only
            cost = probe + rows_est * ENTRY_SCAN_COST + rows_est * per_row
            scored.append(
                (shape.index_name, shape.mode, index_only, cost, rows_est)
            )
            # Ties break deterministically: primary first, then index
            # name, then the index-only variant.
            rank = (cost, not shape.is_primary, shape.index_name, not index_only)
            if best is None or rank < best[0]:
                best = (rank, prototype, rows_est)
    rank, prototype, rows_est = best
    return prototype, rank[0], rows_est, tuple(scored)


def plan_smart(
    query: Query,
    schema,
    indexes,
    catalog: SynopsisCatalog,
    binding: Binding,
) -> AccessPlan:
    """Compile ``query`` to the cheapest candidate access path.

    ``binding`` is the query's one :class:`Binding`: the caller
    type-checks a query once (a cluster for all its shards), and what its
    values bind to is worked out once per query and candidate, not once
    a shard.
    """
    derived = binding.derived.get(catalog) or _derived(query, indexes, catalog)
    templates = indexes.plan_templates  # one table's shards share it
    candidates = templates.get(query.shape)
    if candidates is None:
        if len(templates) >= TEMPLATE_LIMIT:
            templates.clear()
        candidates = templates[query.shape] = _compile(query, schema, indexes)
    held = derived.costed
    if held is None or held[0] is not candidates:
        costed = tuple(
            _cost_terms(shape, prototypes, catalog.synopsis(shape.index_name))
            for shape, prototypes in candidates
        )
        held = derived.costed = (
            candidates, costed,
            # Ranked once when no estimate reads a bound.
            None if any(domain for _, _, domain, _ in costed)
            else _rank(costed, ()),
        )
    _, costed, ranked = held
    prototype, cost, rows_est, scored = (
        ranked or _rank(costed, binding.values[1])
    )
    return prototype.bind(binding, cost=cost, rows_est=rows_est, scored=scored)


def _prune_terms(shape: Tuple, indexes, catalog: SynopsisCatalog) -> Optional[List]:
    """The shard's observed range of every key column the shape binds, per
    index, as ``(is_range, source, column_range)`` -- ``source`` indexing
    the query's equalities or ranges; None when the shard holds no rows."""
    eq_names, range_names = shape[0], shape[1]
    terms = []
    for shard_index in indexes.all():
        synopsis = catalog.synopsis(shard_index.name)
        if synopsis.entry_count == 0:
            if shard_index.name == "primary":
                # No groomed records at all: typed plans (which execute
                # over index runs) cannot produce a row from this shard.
                return None
            continue
        for spec, column_range in zip(
            shard_index.index.definition.key_columns, synopsis.key_ranges
        ):
            if column_range is None:
                continue
            if spec.name in eq_names:
                terms.append((False, eq_names.index(spec.name), column_range))
            elif spec.name in range_names:
                terms.append((True, range_names.index(spec.name), column_range))
    return terms


def cannot_match(
    query: Query, indexes, catalog: SynopsisCatalog, binding: Binding
) -> bool:
    """Do the shard's synopses prove ``query`` returns no row from it?

    Every row version a typed query can return has an entry in every index
    of its shard (built from the same records in the same publication), so
    a bound disjoint from the observed key range of its column in *any*
    index rules the shard out -- as does a primary index without an entry.
    What the synopses were read into is kept in ``binding`` for the
    shard's planner: one stamp read per shard and query.
    """
    derived = binding.derived[catalog] = _derived(query, indexes, catalog)
    terms = derived.prune
    if terms is None:
        return True
    equalities, bounds = binding.values
    for is_range, source, column_range in terms:
        if is_range:
            if not column_range.overlaps_range(*bounds[source]):
                return True
        elif not column_range.overlaps_point(equalities[source]):
            return True
    return False


__all__ = [
    "ENTRY_SCAN_COST",
    "FETCH_BACK_PROBE_COST",
    "RECORD_FETCH_COST",
    "RUN_PROBE_COST",
    "cannot_match",
    "plan_smart",
]
