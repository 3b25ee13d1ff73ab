"""Key and update-workload generators (paper sections 8.1, 8.4).

Keys are abstract integers ``k`` produced sequentially (time-correlated,
so runs cover disjoint ranges and synopses prune well) or randomly
(uniform, so every run overlaps every query).  A :class:`KeyMapper`
projects ``k`` onto a concrete index definition's equality / sort /
included columns -- the paper's generator likewise emits "keys with
include columns" rather than full records.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.definition import IndexDefinition
from repro.core.encoding import KeyValue


class KeyMode(str, enum.Enum):
    SEQUENTIAL = "sequential"
    RANDOM = "random"


class KeyGenerator:
    """Deterministic source of abstract integer keys."""

    def __init__(
        self,
        mode: KeyMode = KeyMode.SEQUENTIAL,
        seed: int = 7,
        key_space: int = 1 << 40,
    ) -> None:
        self.mode = mode
        self.key_space = key_space
        self._rng = random.Random(seed)
        self._next_sequential = 0

    def next_key(self) -> int:
        if self.mode is KeyMode.SEQUENTIAL:
            key = self._next_sequential
            self._next_sequential += 1
            return key
        return self._rng.randrange(self.key_space)

    def next_batch(self, count: int) -> List[int]:
        return [self.next_key() for _ in range(count)]


@dataclass(frozen=True)
class KeyMapper:
    """Projects an abstract key onto one index definition's columns.

    Every equality and sort column receives a value derived from ``k`` so
    the full composite key is unique per ``k`` regardless of definition
    shape; included columns carry a deterministic payload.  ``spread``
    controls how an equality column groups keys (e.g. device id = k //
    spread gives ``spread`` messages per device).
    """

    definition: IndexDefinition
    spread: int = 1

    def equality_values(self, k: int) -> Tuple[KeyValue, ...]:
        n = len(self.definition.equality_columns)
        if n == 0:
            return ()
        if len(self.definition.sort_columns) > 0:
            # eq columns group keys; the sort column disambiguates.
            base = k // self.spread if self.spread > 1 else k
        else:
            base = k
        # Multiple equality columns split the key value deterministically.
        return tuple(base + i for i in range(n))

    def sort_values(self, k: int) -> Tuple[KeyValue, ...]:
        n = len(self.definition.sort_columns)
        if n == 0:
            return ()
        first = k % self.spread if self.spread > 1 else k
        return (first,) + tuple(k + i for i in range(1, n))

    def include_values(self, k: int) -> Tuple[KeyValue, ...]:
        return tuple(
            k * 10 + i for i in range(len(self.definition.included_columns))
        )

    def key_columns(self, k: int) -> Tuple[Tuple[KeyValue, ...], Tuple[KeyValue, ...]]:
        return self.equality_values(k), self.sort_values(k)


class IoTUpdateWorkload:
    """The section 8.4 update model, per groom cycle.

    "The ingested data for the latest groom cycle updates p% of data from
    the last groom cycle, and 0.1 x p% of data from the last 50 cycles,
    and 0.01 x p% of data in the last 100 cycles"; the remainder of the
    cycle's budget is fresh keys.
    """

    def __init__(
        self,
        records_per_cycle: int,
        update_percent: float = 10.0,
        seed: int = 11,
    ) -> None:
        if records_per_cycle < 1:
            raise ValueError("records_per_cycle must be >= 1")
        if not 0.0 <= update_percent <= 100.0:
            raise ValueError("update_percent must be within [0, 100]")
        self.records_per_cycle = records_per_cycle
        self.update_percent = update_percent
        self._rng = random.Random(seed)
        self._history: List[List[int]] = []  # keys ingested per cycle
        self._next_fresh = 0

    def next_cycle(self) -> List[int]:
        """Keys (fresh + updates) for the next groom cycle."""
        budget = self.records_per_cycle
        p = self.update_percent / 100.0
        updates: List[int] = []
        if self._history:
            updates.extend(
                self._sample(self._history[-1:], int(round(budget * p)))
            )
            updates.extend(
                self._sample(self._history[-50:], int(round(budget * p * 0.1)))
            )
            updates.extend(
                self._sample(self._history[-100:], int(round(budget * p * 0.01)))
            )
            updates = updates[:budget]
        fresh_count = budget - len(updates)
        fresh = list(
            range(self._next_fresh, self._next_fresh + fresh_count)
        )
        self._next_fresh += fresh_count
        cycle_keys = fresh + updates
        self._rng.shuffle(cycle_keys)
        self._history.append(cycle_keys)
        return cycle_keys

    def _sample(self, cycles: Sequence[List[int]], count: int) -> List[int]:
        pool = [key for cycle in cycles for key in cycle]
        if not pool or count <= 0:
            return []
        return [self._rng.choice(pool) for _ in range(count)]

    @property
    def keys_ingested(self) -> int:
        return sum(len(cycle) for cycle in self._history)


__all__ = ["IoTUpdateWorkload", "KeyGenerator", "KeyMapper", "KeyMode"]
