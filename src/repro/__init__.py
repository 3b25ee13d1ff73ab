"""Reproduction of *Umzi: Unified Multi-Zone Indexing for Large-Scale HTAP*
(Luo et al., EDBT 2019).

Packages
--------
``repro.core``
    The Umzi index itself: multi-zone LSM run lists, hybrid merge policy,
    evolve operation, multi-tier cache management, lock-free queries.
``repro.storage``
    The simulated storage hierarchy (memory / SSD / shared storage).
``repro.wildfire``
    A single-shard simulation of the Wildfire HTAP engine Umzi lives in:
    live zone, groomer, post-groomer, indexer daemon, MVCC snapshots.
``repro.baselines``
    Comparators: classic fixed-RID LSM index, per-zone separate indexes,
    a sorted in-memory index.
``repro.workloads``
    Synthetic generators from the paper's evaluation (sequential/random
    keys, the IoT update-rate model).
"""

from repro.core import (
    ColumnSpec,
    ColumnType,
    IndexDefinition,
    IndexEntry,
    PointLookup,
    RangeScanQuery,
    ReconcileStrategy,
    RID,
    UmziConfig,
    UmziIndex,
    Zone,
)
from repro.storage import StorageHierarchy

__version__ = "1.0.0"

__all__ = [
    "ColumnSpec",
    "ColumnType",
    "IndexDefinition",
    "IndexEntry",
    "PointLookup",
    "RangeScanQuery",
    "ReconcileStrategy",
    "RID",
    "StorageHierarchy",
    "UmziConfig",
    "UmziIndex",
    "Zone",
    "__version__",
]
