"""Query batch generators (paper section 8.3).

"We further consider two kinds of key distribution in index queries:
sequential and random.  As the name suggests, sequential and random
queries use sequentially and randomly generated keys in a batch."
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.core.query import PointLookup, RangeScanQuery, MAX_QUERY_TS
from repro.workloads.generator import KeyMapper


class QueryBatchGenerator:
    """Builds lookup / scan batches over a known key population."""

    def __init__(
        self,
        mapper: KeyMapper,
        key_population: int,
        seed: int = 23,
    ) -> None:
        if key_population < 1:
            raise ValueError("key_population must be >= 1")
        self.mapper = mapper
        self.key_population = key_population
        self._rng = random.Random(seed)

    # -- lookup batches ----------------------------------------------------------------

    def sequential_batch(
        self, batch_size: int, query_ts: int = MAX_QUERY_TS
    ) -> List[PointLookup]:
        """A contiguous window of keys starting at a random position."""
        start = self._rng.randrange(max(1, self.key_population - batch_size + 1))
        return [
            self._lookup(start + i, query_ts)
            for i in range(min(batch_size, self.key_population))
        ]

    def random_batch(
        self, batch_size: int, query_ts: int = MAX_QUERY_TS
    ) -> List[PointLookup]:
        """Uniformly random keys from the population."""
        return [
            self._lookup(self._rng.randrange(self.key_population), query_ts)
            for _ in range(batch_size)
        ]

    def batch_from_keys(
        self, keys: Sequence[int], query_ts: int = MAX_QUERY_TS
    ) -> List[PointLookup]:
        return [self._lookup(k, query_ts) for k in keys]

    def _lookup(self, k: int, query_ts: int) -> PointLookup:
        eq, sort = self.mapper.key_columns(k)
        return PointLookup(eq, sort, query_ts)

    # -- scan batches ---------------------------------------------------------------------

    def sequential_scan(
        self, scan_range: int, query_ts: int = MAX_QUERY_TS
    ) -> RangeScanQuery:
        """A range starting right after the previous sequential position."""
        start = self._rng.randrange(max(1, self.key_population - scan_range + 1))
        return self._scan(start, scan_range, query_ts)

    def random_scan(
        self, scan_range: int, query_ts: int = MAX_QUERY_TS
    ) -> RangeScanQuery:
        start = self._rng.randrange(max(1, self.key_population))
        return self._scan(start, scan_range, query_ts)

    def _scan(self, start: int, scan_range: int, query_ts: int) -> RangeScanQuery:
        definition = self.mapper.definition
        if not definition.sort_columns:
            raise ValueError("range scans need at least one sort column")
        eq, sort_low = self.mapper.key_columns(start)
        # Scan over the first sort column; spread>1 maps a key window onto
        # one equality group, plain mapping scans within eq=start's group.
        low = sort_low[:1]
        high = (low[0] + scan_range - 1,)
        return RangeScanQuery(
            equality_values=eq,
            sort_lower=low,
            sort_upper=high,
            query_ts=query_ts,
        )


__all__ = ["QueryBatchGenerator"]
