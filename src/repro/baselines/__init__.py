"""Baseline index structures Umzi is compared against.

The paper motivates Umzi against two families (sections 1, 3, 9):

* classic LSM indexes that assume **fixed RIDs** (LevelDB/RocksDB-style, or
  WiscKey-style key->RID maps) -- :class:`~repro.baselines.lsm.ClassicLSMIndex`.
  They break when data evolves between zones and RIDs change;
* **separate per-zone indexes** with a query-side union (MemSQL-style) --
  :class:`~repro.baselines.separate.SeparateZoneIndexes`.  They expose a
  divided view: queries must reconcile duplicates/missing rows themselves
  and pay for searching both structures.

:class:`~repro.baselines.btree.SortedArrayIndex` is an in-memory,
fully-sorted multi-version index that doubles as the brute-force oracle in
property-based tests.
"""

from repro.baselines.btree import SortedArrayIndex
from repro.baselines.lsm import ClassicLSMIndex
from repro.baselines.separate import SeparateZoneIndexes

__all__ = [
    "ClassicLSMIndex",
    "SeparateZoneIndexes",
    "SortedArrayIndex",
]
