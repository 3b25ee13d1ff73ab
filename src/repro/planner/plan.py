"""Typed queries and executable access plans (ISSUE 9, layer 2).

A :class:`Query` describes *what* is wanted -- per-column equality and
range predicates plus a projection -- without naming an index or an
access mode; the planners (:mod:`repro.planner.baseline`,
:mod:`repro.planner.smart`) compile it into an :class:`AccessPlan`
describing *how*: which index, point vs scan, which predicates bind the
key prefix, which remain as entry-level residuals (checkable on index
entries without fetching a record) or record-level residuals (forcing a
record fetch), whether the answer is index-only, and whether secondary
hits must be resolved against the primary by RID (the fetch-back path).

Compilation has two halves.  What follows from the query's *shape*
(:attr:`Query.shape`) is worked out once per index -- :func:`candidate_shape`
and :func:`plan_prototype`: consumed columns, residuals, the getters the
executor runs -- and kept per shape and table by the smart planner; a
query binds its validated values once for every shard it reaches
(:class:`Binding`, :meth:`AccessPlan.bind`).

Only typed queries are planned.  The shard's point wrappers
(``point_query``/``index_lookup``) already name their index and key, so
they call ``UmziIndex.lookup`` themselves and build neither a
:class:`Query` nor an :class:`AccessPlan`; a range read is a typed query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.encoding import EncodingError, KeyValue
from repro.core.query import RangeScanQuery, compute_scan_bounds

Bounds = Tuple[Tuple[Optional[KeyValue], Optional[KeyValue]], ...]


class PlanError(ValueError):
    """The query cannot be planned (unbound key columns, bad hint...)."""


class Predicate(NamedTuple):
    """One residual predicate, pre-resolved for the executor.

    ``offset`` locates the column inside an index entry's concatenated
    ``equality + sort + include`` values (:func:`entry_offset`), for
    entry-level checks (:func:`entry_slot` resolves it once per plan);
    ``position`` is the column's table-schema position for record-level
    re-checks.  A compiled predicate has no values: they are bound from
    the query's equalities or ranges at ``source``, an equality into both
    ``low`` and ``high`` (the executor checks ranges: ``_within``).
    """

    column: str
    kind: str  # "eq" | "range"
    low: Optional[KeyValue] = None
    high: Optional[KeyValue] = None
    offset: Optional[int] = None
    position: Optional[int] = None
    source: int = 0


@dataclass(frozen=True)
class Query:
    """A typed query over one table: predicates + projection.

    ``equalities`` and ``ranges`` (both inclusive) name columns; a column
    may appear in at most one of them.  ``projection=None`` means the
    full row.  ``index_hint`` restricts the smart planner's candidates to
    that index.
    """

    equalities: Tuple[Tuple[str, KeyValue], ...] = ()
    ranges: Tuple[Tuple[str, Optional[KeyValue], Optional[KeyValue]], ...] = ()
    projection: Optional[Tuple[str, ...]] = None
    query_ts: Optional[int] = None
    index_hint: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "equalities", tuple(
            (str(c), v) for c, v in self.equalities
        ))
        object.__setattr__(self, "ranges", tuple(
            (str(c), lo, hi) for c, lo, hi in self.ranges
        ))
        if self.projection is not None:
            object.__setattr__(self, "projection", tuple(self.projection))
        named = [c for c, _ in self.equalities] + [c for c, _, _ in self.ranges]
        if len(set(named)) != len(named):
            raise PlanError(f"column bound more than once: {sorted(named)}")

    def predicate_columns(self) -> Tuple[str, ...]:
        return self.shape[0] + self.shape[1]

    @cached_property
    def shape(self) -> Tuple:
        """Everything but the values: equality columns, range columns,
        projection, hint.  Queries of one shape compile to the same plans
        and differ only in what is bound into them."""
        return (
            tuple([c for c, _ in self.equalities]),
            tuple([c for c, _, _ in self.ranges]),
            self.projection,
            self.index_hint,
        )


class Binding:
    """One typed query's values, bound once for every shard it reaches.

    ``values``: the equality values and ``(low, high)`` range bounds, each
    through :meth:`ColumnSpec.validate` (``upsert``'s check: an int bound
    on a FLOAT64 column becomes the float the index stores; ``None``, an
    open bound, passes); a mistyped value is a :class:`PlanError`.
    ``plans``: what the values bind into each prototype a shard picked
    (:meth:`AccessPlan.bind`) -- a table's shards share prototypes, so each
    (index, variant) is bound once per query.  ``derived``: each shard's
    synopsis-derived state by catalog, from its scatter prune to its
    planner.  A binding lives in the query call, and nowhere else.
    """

    __slots__ = ("values", "plans", "derived")

    def __init__(self, schema, query: Query) -> None:
        spec_of = {name: schema.columns[schema.position(name)]
                   for name in query.predicate_columns()}
        try:
            self.values: Tuple[Tuple[KeyValue, ...], Bounds] = (tuple([
                spec_of[name].validate(value) for name, value in query.equalities
            ]), tuple([
                (low if low is None else spec_of[name].validate(low),
                 high if high is None else spec_of[name].validate(high))
                for name, low, high in query.ranges
            ]))
        except EncodingError as exc:
            raise PlanError(f"query predicate: {exc}") from exc
        self.plans: Dict[int, Tuple] = {}
        self.derived: Dict[object, object] = {}


def tuple_getter(positions: Sequence[int]) -> Callable[[Tuple], Tuple]:
    """``values -> tuple(values[p] for p in positions)`` for a *tuple* of
    values, compiled: no Python frame per call (one position is the
    1-tuple slice)."""
    if len(positions) == 1:
        (only,) = positions
        return itemgetter(slice(only, only + 1))
    if not positions:
        return itemgetter(slice(0, 0))
    return itemgetter(*positions)


@dataclass(frozen=True)
class AccessPlan:
    """An executable access path, ready for the shard executor.

    ``equality_values``/``sort_values``/``sort_lower``/``sort_upper`` are
    positional arguments for ``UmziIndex.lookup``/``scan`` on
    ``index_name``.  ``entry_residuals`` filter entries before any record
    work, each on the ``IndexEntry`` field and position its ``entry_slots``
    twin names; ``record_checks`` are re-applied to every fetched record
    (for fetch-back plans they are *all* the query's predicates, which is
    what makes secondary answers byte-identical to the primary path even
    when a stale secondary entry surfaces a since-changed row).  ``entry_pk``
    / ``entry_row`` extract the primary key and (index-only) the output
    row from an entry's concatenated ``equality + sort + include`` values,
    ``record_pk`` / ``record_row`` from a record's values (``record_row``
    is ``None`` for the full row, which needs no copy), ``ghost_key`` the
    primary key as ``ShardIndex.ghosted`` keys it (one column: its value).
    """

    index_name: str
    mode: str
    planner: str
    equality_values: Tuple[KeyValue, ...] = ()
    sort_values: Tuple[KeyValue, ...] = ()
    sort_lower: Optional[Tuple[KeyValue, ...]] = None
    sort_upper: Optional[Tuple[KeyValue, ...]] = None
    index_only: bool = False
    fetch_back: bool = False
    entry_residuals: Tuple[Predicate, ...] = ()
    record_checks: Tuple[Predicate, ...] = ()
    projection: Tuple[str, ...] = ()
    cost: float = 0.0
    rows_est: float = 0.0
    bound_prefix: int = 0
    range_column: Optional[str] = None
    # Every costed candidate, in evaluation order, as
    # (index, mode, index_only, cost, rows_est).
    scored: Tuple[Tuple[str, str, bool, float, float], ...] = ()
    # The compiled half (planner-built plans): the shape the plan serves,
    # and the getters.
    shape: Optional["CandidateShape"] = field(
        default=None, repr=False, compare=False
    )
    entry_slots: Tuple = field(default=(), repr=False, compare=False)
    entry_pk: Optional[Callable] = field(default=None, repr=False, compare=False)
    ghost_key: Optional[Callable] = field(default=None, repr=False, compare=False)
    entry_row: Optional[Callable] = field(default=None, repr=False, compare=False)
    record_pk: Optional[Callable] = field(default=None, repr=False, compare=False)
    record_row: Optional[Callable] = field(default=None, repr=False, compare=False)
    # The index definition a scan's bounds are encoded by (every shard of
    # a table has an equal one), and the bounds, bound once per query.
    definition: object = field(default=None, repr=False, compare=False)
    scan_bounds: Optional[Tuple] = field(default=None, repr=False, compare=False)

    def bind(self, binding: Binding, **costed) -> "AccessPlan":
        """This (prototype) plan with one query's values bound into it: a
        copy sharing every compiled field, without the ``__init__``.  What
        the values bind to -- key arguments, residuals and a scan's
        encoded bounds -- is worked out once per query and prototype and
        kept in ``binding`` (with the prototype, so its id stays its own)."""
        held = binding.plans.get(id(self))
        if held is None:
            equalities, bounds = binding.values
            bound = self.shape.key_values(equalities, bounds)
            if self.mode == "scan":
                bound["scan_bounds"] = compute_scan_bounds(self.definition, RangeScanQuery(
                    bound["equality_values"], bound["sort_lower"], bound["sort_upper"]
                ))
            for name in ("entry_residuals", "record_checks"):
                if getattr(self, name):
                    bound[name] = bind_predicates(getattr(self, name), equalities, bounds)
            held = binding.plans[id(self)] = (self, bound)
        plan = object.__new__(AccessPlan)
        plan.__dict__.update(self.__dict__, **held[1], **costed)
        return plan

    @property
    def considered(self) -> Tuple[Dict[str, object], ...]:
        """The costed candidates as ``explain()`` prints them."""
        names = ("index", "mode", "index_only", "cost", "rows_est")
        return tuple(
            dict(zip(names, (*row[:3], round(row[3], 4), round(row[4], 4))))
            for row in self.scored
        )

    def explain(self) -> Dict[str, object]:
        """Render the plan for tests, golden files, and the dev helper."""
        return {
            "planner": self.planner,
            "index": self.index_name,
            "mode": self.mode,
            "index_only": self.index_only,
            "fetch_back": self.fetch_back,
            "bound_prefix": self.bound_prefix,
            "range_column": self.range_column,
            "entry_residuals": [p.column for p in self.entry_residuals],
            "record_checks": [p.column for p in self.record_checks],
            "rows_est": round(self.rows_est, 4),
            "cost": round(self.cost, 4),
            "candidates": list(self.considered),
        }


# ---------------------------------------------------------------------------
# entry-column resolution
# ---------------------------------------------------------------------------


def entry_offset(spec, column: str) -> Optional[int]:
    """Where ``column`` sits in the ``equality + sort + include`` values of
    an entry of an index with ``spec``, or None.

    Secondary specs are stored primary-key-suffixed (see
    ``ShardIndexes.add_secondary``), so every primary-key column of the
    table resolves on every index -- the invariant the fetch-back path
    and entry tagging rely on.
    """
    columns = spec.equality_columns + spec.sort_columns + spec.included_columns
    return columns.index(column) if column in columns else None


def entry_slot(spec, offset: int) -> Tuple[int, int]:
    """Flat entry ``offset`` as ``(field, position)`` in an ``IndexEntry``,
    whose fields 1-3 are its equality, sort and include values."""
    equality, sort = len(spec.equality_columns), len(spec.sort_columns)
    if offset < equality:
        return 1, offset
    if offset < equality + sort:
        return 2, offset - equality
    return 3, offset - equality - sort


# ---------------------------------------------------------------------------
# candidate construction (shared by baseline and smart)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateShape:
    """How one index can serve one query *shape*, before costing or values.

    ``equality_sources`` / ``prefix_sources`` index the query's
    equalities (the index's equality columns, and the equality-bound
    prefix of its sort columns); ``range_source`` indexes its ranges (the
    one range predicate the sort columns consume, if any).  The residual
    predicates are compiled, not bound.
    """

    index_name: str
    is_primary: bool
    mode: str  # "point" | "scan"
    equality_sources: Tuple[int, ...]
    prefix_sources: Tuple[int, ...]
    range_source: Optional[int]
    range_column: Optional[str]
    bound_prefix: int
    entry_residuals: Tuple[Predicate, ...]
    record_residuals: Tuple[Predicate, ...]
    covers_projection: bool

    def key_values(
        self, equalities: Sequence[KeyValue], bounds: Bounds
    ) -> Dict[str, object]:
        """The ``UmziIndex.lookup``/``scan`` arguments of one call's values."""
        prefix = tuple([equalities[i] for i in self.prefix_sources])
        sort_lower = sort_upper = None if self.mode == "point" else prefix or None
        if self.range_source is not None:
            low, high = bounds[self.range_source]
            if low is not None:
                sort_lower = prefix + (low,)
            if high is not None:
                sort_upper = prefix + (high,)
        return {
            "equality_values": tuple(
                [equalities[i] for i in self.equality_sources]
            ),
            "sort_values": prefix if self.mode == "point" else (),
            "sort_lower": sort_lower,
            "sort_upper": sort_upper,
        }


def bind_predicates(
    compiled: Sequence[Predicate], equalities: Sequence[KeyValue], bounds: Bounds
) -> Tuple[Predicate, ...]:
    bound = []
    for p in compiled:
        if p.kind == "eq":
            low = high = equalities[p.source]
        else:
            low, high = bounds[p.source]
        bound.append(Predicate(
            p.column, p.kind, low, high, p.offset, p.position
        ))
    return tuple(bound)


def _compile_predicates(
    shape: Tuple, schema, spec, columns: Sequence[str]
) -> Tuple[Predicate, ...]:
    eq_names, range_names = shape[0], shape[1]
    compiled = []
    for column in columns:
        if column in eq_names:
            kind, source = "eq", eq_names.index(column)
        elif column in range_names:
            kind, source = "range", range_names.index(column)
        else:
            raise PlanError(f"column {column!r} is not bound by the query")
        compiled.append(Predicate(
            column, kind, offset=entry_offset(spec, column),
            position=schema.position(column), source=source,
        ))
    return tuple(compiled)


def candidate_shape(
    query: Query, schema, shard_index, is_primary: bool
) -> Optional[CandidateShape]:
    """Shape one index as a candidate path for ``query.shape``, or None.

    An index is usable when every equality column is equality-bound;
    sort columns then consume an equality prefix plus at most one range
    predicate (``compute_scan_bounds`` makes a bound-prefix upper bound
    inclusive of all extensions, so prefix bounds need no padding).
    Unconsumed predicates become entry-level residuals when the column
    lives in the entry (key or included columns) and record-level
    residuals otherwise.  Nothing here reads the query's values.
    """
    spec = shard_index.spec
    eq_names, range_names, projection, _hint = shape = query.shape
    predicate_columns = query.predicate_columns()
    for column in predicate_columns:
        schema.position(column)  # raises SchemaError on unknown columns
    if not set(spec.equality_columns) <= set(eq_names):
        return None
    used = set(spec.equality_columns)
    prefix_sources: List[int] = []
    range_source: Optional[int] = None
    for column in spec.sort_columns:
        if column in eq_names:
            prefix_sources.append(eq_names.index(column))
            used.add(column)
            continue
        if column in range_names:
            range_source = range_names.index(column)
            used.add(column)
        break
    residuals = _compile_predicates(
        shape, schema, spec, [c for c in predicate_columns if c not in used]
    )
    is_point = (
        range_source is None and len(prefix_sources) == len(spec.sort_columns)
    )
    return CandidateShape(
        index_name=shard_index.name,
        is_primary=is_primary,
        mode="point" if is_point else "scan",
        equality_sources=tuple(
            eq_names.index(column) for column in spec.equality_columns
        ),
        prefix_sources=tuple(prefix_sources),
        range_source=range_source,
        range_column=None if range_source is None else range_names[range_source],
        bound_prefix=len(spec.equality_columns) + len(prefix_sources),
        entry_residuals=tuple(p for p in residuals if p.offset is not None),
        record_residuals=tuple(p for p in residuals if p.offset is None),
        covers_projection=all(
            entry_offset(spec, c) is not None
            for c in (schema.column_names if projection is None else projection)
        ),
    )


def plan_prototype(
    shape: CandidateShape, query: Query, schema, shard_index,
    *, planner: str, index_only: bool,
) -> AccessPlan:
    """The value-free half of an AccessPlan: :meth:`AccessPlan.bind` it."""
    spec = shard_index.spec
    projection = (
        query.projection if query.projection is not None
        else schema.column_names
    )
    pk_offsets = [entry_offset(spec, column) for column in schema.primary_key]
    if None in pk_offsets:
        raise PlanError(
            f"index {shape.index_name!r} cannot recover the primary key"
        )
    fetch_back = (not shape.is_primary) and not index_only
    if not shape.is_primary:
        # Re-check EVERY predicate on a record the primary answers for: a
        # secondary entry has no endTS, so a since-changed row can surface
        # under its old key; the record re-check drops it, keeping
        # secondary answers byte-identical to the primary path.
        record_checks = _compile_predicates(
            query.shape, schema, spec, query.predicate_columns()
        )
    elif index_only:
        record_checks = ()
    else:
        record_checks = shape.record_residuals
    projection_positions = schema.positions(projection)
    full_row = projection_positions == tuple(range(len(schema.columns)))
    return AccessPlan(
        index_name=shape.index_name,
        mode=shape.mode,
        planner=planner,
        index_only=index_only,
        fetch_back=fetch_back,
        entry_residuals=shape.entry_residuals,
        entry_slots=tuple([
            entry_slot(spec, p.offset) for p in shape.entry_residuals
        ]),
        record_checks=record_checks,
        projection=projection,
        bound_prefix=shape.bound_prefix,
        range_column=shape.range_column,
        shape=shape,
        definition=shard_index.index.definition,
        entry_pk=tuple_getter(pk_offsets),
        ghost_key=itemgetter(*pk_offsets),  # one offset: the value itself
        entry_row=tuple_getter([
            entry_offset(spec, column)
            for column in (projection if index_only else ())
        ]),
        record_pk=tuple_getter(schema.positions(schema.primary_key)),
        record_row=None if full_row else tuple_getter(projection_positions),
    )


__all__ = [
    "AccessPlan",
    "Binding",
    "CandidateShape",
    "PlanError",
    "Predicate",
    "Query",
    "bind_predicates",
    "candidate_shape",
    "entry_offset",
    "plan_prototype",
    "tuple_getter",
]
