"""Level/zone configuration (paper sections 4.3, 5.3, 6.1).

Levels are numbered globally: ``0 .. groomed_levels-1`` form the groomed
zone, the next ``post_groomed_levels`` form the post-groomed zone (the
paper's Figure 3 uses levels 0-5 groomed, 6-9 post-groomed).  The merge
policy is the hybrid of section 5.3, parameterized by ``K`` (max runs per
level) and ``T`` (size ratio between adjacent levels).

Certain *lower groomed levels* may be configured non-persisted (section
6.1): their runs live only in local memory (optionally spilled to SSD) and
never hit shared storage.  Level 0 **must** be persisted -- the paper
requires it so recovery never has to rebuild runs from groomed data blocks
-- and this module enforces that invariant at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.core.entry import Zone


class LevelConfigError(ValueError):
    """Invalid level configuration."""


@dataclass(frozen=True)
class LevelConfig:
    """Static shape of the multi-run structure.

    Parameters
    ----------
    groomed_levels:
        Number of levels assigned to the groomed zone (>= 1).
    post_groomed_levels:
        Number of levels assigned to the post-groomed zone (>= 1).
    max_runs_per_level:
        ``K`` -- when a level accumulates K inactive runs they are merged
        together with the next level's active run.
    size_ratio:
        ``T`` -- an active run at level L is full (becomes inactive) once it
        is T times larger than an inactive run at level L-1.
    non_persisted_levels:
        Groomed levels whose runs skip shared storage.  May not include
        level 0 and may not include post-groomed levels (evolve output must
        be durable -- groomed blocks get deleted afterwards).
    spill_non_persisted_to_ssd:
        Whether non-persisted runs also spill to the SSD tier.
    """

    groomed_levels: int = 4
    post_groomed_levels: int = 3
    max_runs_per_level: int = 4
    size_ratio: int = 4
    non_persisted_levels: FrozenSet[int] = frozenset()
    spill_non_persisted_to_ssd: bool = False

    def __post_init__(self) -> None:
        if self.groomed_levels < 1:
            raise LevelConfigError("need at least one groomed level")
        if self.post_groomed_levels < 1:
            raise LevelConfigError("need at least one post-groomed level")
        if self.max_runs_per_level < 1:
            raise LevelConfigError("max_runs_per_level (K) must be >= 1")
        if self.size_ratio < 2:
            raise LevelConfigError("size_ratio (T) must be >= 2")
        if 0 in self.non_persisted_levels:
            raise LevelConfigError(
                "level 0 must be persisted (paper section 6.1: recovery must "
                "never rebuild runs from groomed data blocks)"
            )
        for level in self.non_persisted_levels:
            if not 0 <= level < self.groomed_levels:
                raise LevelConfigError(
                    f"non-persisted level {level} is not a groomed level; "
                    "post-groomed runs must be durable because groomed "
                    "blocks are deleted after post-grooming"
                )

    # -- zone geometry -----------------------------------------------------------

    @property
    def total_levels(self) -> int:
        return self.groomed_levels + self.post_groomed_levels

    @property
    def first_post_groomed_level(self) -> int:
        return self.groomed_levels

    def zone_of(self, level: int) -> Zone:
        if not 0 <= level < self.total_levels:
            raise LevelConfigError(f"level {level} outside 0..{self.total_levels - 1}")
        return Zone.GROOMED if level < self.groomed_levels else Zone.POST_GROOMED

    def levels_of(self, zone: Zone) -> Tuple[int, ...]:
        if zone is Zone.GROOMED:
            return tuple(range(self.groomed_levels))
        if zone is Zone.POST_GROOMED:
            return tuple(range(self.groomed_levels, self.total_levels))
        raise LevelConfigError(f"zone {zone} has no index levels")

    def last_level_of(self, zone: Zone) -> int:
        return self.levels_of(zone)[-1]

    def is_persisted(self, level: int) -> bool:
        return level not in self.non_persisted_levels

    def next_persisted_level_at_or_above(self, level: int) -> int:
        """First persisted level >= ``level`` (always exists: the last
        groomed level is persisted or the search crosses into post-groomed,
        which is always persisted)."""
        candidate = level
        while candidate < self.total_levels and not self.is_persisted(candidate):
            candidate += 1
        return candidate


__all__ = ["LevelConfig", "LevelConfigError"]
