"""The baseline planner: always the primary index (ISSUE 9, layer 2).

Pre-planner behaviour, preserved as the ablation arm (DevilsDatabase's
``planner/baseline.py`` role): every query runs against the primary
index, every answer fetches records, and no plan is ever index-only.
Predicates that bind the primary key prefix are used for the
point/scan bounds (exactly what a caller hand-picking
``UmziIndex.lookup``/``scan`` would have done); everything else is
re-checked on the fetched records.  No statistics are consulted.
"""

from __future__ import annotations

from dataclasses import replace

from repro.planner.plan import (
    AccessPlan,
    Binding,
    PlanError,
    Query,
    candidate_shape,
    plan_prototype,
)


def plan_baseline(query: Query, schema, indexes, binding: Binding) -> AccessPlan:
    """Compile ``query`` against the primary index only, with the values
    of its ``binding``."""
    primary = indexes.get("primary")
    shape = candidate_shape(query, schema, primary, is_primary=True)
    if shape is None:
        raise PlanError(
            "baseline planner requires every primary equality column to be "
            f"bound; primary equality columns: "
            f"{list(primary.spec.equality_columns)}"
        )
    # Baseline never trusts entry columns: every residual -- entry-level
    # or not -- is re-checked on the fetched record, and the entry-level
    # prefilter is dropped so the executor does exactly the legacy work.
    shape = replace(
        shape,
        entry_residuals=(),
        record_residuals=shape.entry_residuals + shape.record_residuals,
    )
    return plan_prototype(
        shape, query, schema, primary, planner="baseline", index_only=False
    ).bind(binding)


__all__ = ["plan_baseline"]
