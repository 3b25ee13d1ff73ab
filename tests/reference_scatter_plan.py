"""The per-shard planning a typed scatter did before it carried one binding,
kept as the oracle of the binding.

Until a typed query handed its shards one :class:`~repro.planner.plan.Binding`,
every shard planned it on its own: it type-checked the query's values,
compiled the shape into templates of its own, costed the candidates on its
synopses, copied the winner with the values bound into its key arguments
and residual predicates, and its index scan encoded the range's bounds
again.  :func:`reference_plan` does all of that for one shard, sharing
nothing with another shard or an earlier call, and :func:`reference_tagged`
runs that plan through the shard's executor -- whose scan, handed no
bounds, encodes its own.  ``tests/properties/test_scatter_binding_oracle.py``
compares every contacted shard's plan and ``(pk, beginTS, row)`` tags with
these.
"""

from typing import List, Tuple

from repro.core.encoding import EncodingError
from repro.planner.plan import AccessPlan, PlanError, bind_predicates
from repro.planner.smart import _compile, _cost_terms, _rank


def reference_bind_values(schema, query) -> Tuple[Tuple, Tuple]:
    """The query's equality values and ``(low, high)`` range bounds, each
    through ``ColumnSpec.validate`` (the per-shard ``bind_values``)."""
    spec_of = {
        name: schema.columns[schema.position(name)]
        for name in query.predicate_columns()
    }
    try:
        return tuple(
            spec_of[name].validate(value) for name, value in query.equalities
        ), tuple(
            (low if low is None else spec_of[name].validate(low),
             high if high is None else spec_of[name].validate(high))
            for name, low, high in query.ranges
        )
    except EncodingError as exc:
        raise PlanError(f"query predicate: {exc}") from exc


def reference_bind(prototype: AccessPlan, equalities, bounds, **costed) -> AccessPlan:
    """A copy of ``prototype`` with one call's values bound into it, and no
    encoded bounds: the scan encodes them."""
    plan = object.__new__(AccessPlan)
    plan.__dict__.update(
        prototype.__dict__,
        **prototype.shape.key_values(equalities, bounds),
        **costed,
    )
    plan.__dict__["entry_residuals"] = bind_predicates(
        prototype.entry_residuals, equalities, bounds
    )
    plan.__dict__["record_checks"] = bind_predicates(
        prototype.record_checks, equalities, bounds
    )
    plan.__dict__["scan_bounds"] = None
    return plan


def reference_plan(shard, query) -> AccessPlan:
    """The smart planner's choice for ``query`` on ``shard``, planned by the
    shard alone: a fresh compile, its own synopses, its own values."""
    equalities, bounds = reference_bind_values(shard.schema, query)
    costed = [
        _cost_terms(shape, prototypes, shard.synopses.synopsis(shape.index_name))
        for shape, prototypes in _compile(query, shard.schema, shard.indexes)
    ]
    prototype, cost, rows_est, scored = _rank(costed, bounds)
    return reference_bind(
        prototype, equalities, bounds, cost=cost, rows_est=rows_est, scored=scored
    )


def reference_tagged(shard, query) -> List[Tuple]:
    """``shard``'s ``(pk, beginTS, row)`` tags for ``query``, sorted."""
    ts = query.query_ts if query.query_ts is not None else shard.clock.snapshot_ts
    return sorted(shard._execute_plan(reference_plan(shard, query), ts))
