"""Index statistics for monitoring, tests, and benchmark reporting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.entry import Zone


@dataclass(frozen=True)
class LevelStats:
    """Run census of one level."""

    level: int
    zone: Zone
    run_count: int
    entry_count: int
    size_bytes: int
    persisted: bool


@dataclass(frozen=True)
class IndexStats:
    """Point-in-time snapshot of one Umzi index instance."""

    definition: str
    levels: Tuple[LevelStats, ...]
    groomed_run_count: int
    post_groomed_run_count: int
    total_entries: int
    max_covered_groomed_id: int
    indexed_psn: int
    current_cached_level: int
    cached_run_fraction: float

    @property
    def total_runs(self) -> int:
        return self.groomed_run_count + self.post_groomed_run_count

    def format_table(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"{self.definition}",
            f"runs: groomed={self.groomed_run_count} "
            f"post-groomed={self.post_groomed_run_count} "
            f"entries={self.total_entries}",
            f"watermark={self.max_covered_groomed_id} "
            f"indexed_psn={self.indexed_psn} "
            f"cached_level={self.current_cached_level} "
            f"cached_fraction={self.cached_run_fraction:.2f}",
            f"{'level':>6} {'zone':>14} {'runs':>6} {'entries':>10} {'bytes':>12}",
        ]
        for level in self.levels:
            lines.append(
                f"{level.level:>6} {level.zone.name:>14} {level.run_count:>6} "
                f"{level.entry_count:>10} {level.size_bytes:>12}"
            )
        return "\n".join(lines)


__all__ = ["IndexStats", "LevelStats"]
