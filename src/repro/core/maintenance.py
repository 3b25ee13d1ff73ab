"""Index maintenance: merges and cache upkeep (paper section 5.1).

"To minimize contentions caused by concurrent index maintenance operations,
each level is assigned a dedicated index maintenance thread."  The
reproduction deviates: :meth:`MaintenanceService.step` runs one index's
pending merges and cache pass synchronously
(:meth:`repro.core.index.UmziIndex.run_maintenance`), and the shard's one
lifecycle driver (:meth:`repro.wildfire.engine.WildfireShard.tick`,
looped by one daemon thread per shard) calls it after groom, post-groom
and evolve.  Merges and evolves of one index serialize on its
maintenance mutex whichever thread runs them, so a thread per level
could not run two of them at once.

Maintenance never blocks queries: all list mutations inside the
controllers are single atomic pointer publications.
"""

from __future__ import annotations

from typing import List

from repro.core.merge import MergeResult
from repro.faults.crash import crash_point


class MaintenanceService:
    """Runs one index's pending merges and cache maintenance on demand."""

    def __init__(self, index) -> None:
        self.index = index

    def step(self) -> List[MergeResult]:
        """Run all pending maintenance now."""
        crash_point("maintenance.step")
        return self.index.run_maintenance()


__all__ = ["MaintenanceService"]
