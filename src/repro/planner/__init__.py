"""Cost-based access-path planning over a shard's indexes (ISSUE 9).

The paper's Umzi design maintains multiple LSM-style indexes per table
(section 10 names secondary-index maintenance as the extension point);
this package decides *which* index answers a typed :class:`Query` and
*how* -- primary point/batch/range, secondary prefix scan with RID
fetch-back against the primary, or an **index-only** answer served
entirely from a covering index's entry columns.

Layers (mirroring DevilsDatabase's ``planner/baseline.py`` vs
``planner/smart.py`` split, per ROADMAP):

* :mod:`repro.planner.stats` -- :class:`AccessPathSynopsis` per index,
  assembled from run headers without a single entry decode and kept
  fresh across evolve/merge via the versionset publication sequence;
* :mod:`repro.planner.plan` -- the typed :class:`Query` and the
  executable :class:`AccessPlan` (every plan renders an ``explain()``
  dict); only typed queries are planned -- the shard's point wrappers
  (``point_query``/``index_lookup``) call the index themselves, and a
  range read is a typed query;
* :mod:`repro.planner.baseline` -- always the primary index, never
  index-only: today's behaviour, kept as the ablation arm;
* :mod:`repro.planner.smart` -- the cost model over all candidate
  paths (benchmarks/bench_access_path.py counter-asserts its savings).
"""

from repro.planner.baseline import plan_baseline
from repro.planner.plan import (
    AccessPlan,
    PlanError,
    Predicate,
    Query,
)
from repro.planner.smart import plan_smart
from repro.planner.stats import AccessPathSynopsis, SynopsisCatalog

__all__ = [
    "AccessPathSynopsis",
    "AccessPlan",
    "PlanError",
    "Predicate",
    "Query",
    "SynopsisCatalog",
    "plan_baseline",
    "plan_smart",
]
