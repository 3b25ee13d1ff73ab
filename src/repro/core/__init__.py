"""Umzi -- the unified multi-zone LSM index (the paper's contribution).

Public API
----------

:class:`~repro.core.definition.IndexDefinition`
    Declares equality columns, sort columns and included columns
    (paper section 4.1).
:class:`~repro.core.index.UmziIndex`
    The index facade: run ingestion, merge, evolve, caching, recovery and
    the three reads of section 7 -- :meth:`UmziIndex.scan`,
    :meth:`UmziIndex.lookup` and :meth:`UmziIndex.batch_lookup` -- over
    the multi-zone run lists.
:class:`~repro.core.query.RangeScanQuery` / :class:`~repro.core.query.PointLookup`
    Plain query records (one scan's bounds, one lookup's key and
    snapshot); ``index.executor.scan(*query)`` / ``index.lookup(*lookup)``
    run them.

Everything else (run formats, run lists, merge policy, cache manager) is
importable for tests, benchmarks and power users but is not needed for
ordinary use -- see ``examples/quickstart.py``.
"""

from repro.core.definition import ColumnSpec, ColumnType, IndexDefinition
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.epoch import RunLifecycle, RunListVersion
from repro.core.index import UmziIndex, UmziConfig
from repro.core.levels import LevelConfig
from repro.core.query import PointLookup, RangeScanQuery, ReconcileStrategy
from repro.core.run import IndexRun
from repro.core.stats import IndexStats

__all__ = [
    "ColumnSpec",
    "ColumnType",
    "IndexDefinition",
    "IndexEntry",
    "IndexRun",
    "IndexStats",
    "LevelConfig",
    "PointLookup",
    "RangeScanQuery",
    "ReconcileStrategy",
    "RID",
    "RunLifecycle",
    "RunListVersion",
    "UmziConfig",
    "UmziIndex",
    "Zone",
]
