"""Tests for level/zone configuration (paper sections 4.3, 6.1)."""

import pytest

from repro.core.entry import Zone
from repro.core.levels import LevelConfig, LevelConfigError


class TestZoneGeometry:
    def test_paper_figure_3_layout(self):
        # "levels 0 to 5 are configured as the groomed zone, while levels
        # 6 to 9 are configured as the post-groomed zone"
        config = LevelConfig(groomed_levels=6, post_groomed_levels=4)
        assert config.total_levels == 10
        assert config.first_post_groomed_level == 6
        for level in range(6):
            assert config.zone_of(level) is Zone.GROOMED
        for level in range(6, 10):
            assert config.zone_of(level) is Zone.POST_GROOMED

    def test_levels_of_zone(self):
        config = LevelConfig(groomed_levels=3, post_groomed_levels=2)
        assert config.levels_of(Zone.GROOMED) == (0, 1, 2)
        assert config.levels_of(Zone.POST_GROOMED) == (3, 4)
        assert config.last_level_of(Zone.GROOMED) == 2
        assert config.last_level_of(Zone.POST_GROOMED) == 4

    def test_live_zone_has_no_levels(self):
        config = LevelConfig()
        with pytest.raises(LevelConfigError):
            config.levels_of(Zone.LIVE)

    def test_out_of_range_level(self):
        config = LevelConfig(groomed_levels=2, post_groomed_levels=2)
        with pytest.raises(LevelConfigError):
            config.zone_of(4)
        with pytest.raises(LevelConfigError):
            config.zone_of(-1)


class TestValidation:
    def test_minimums(self):
        with pytest.raises(LevelConfigError):
            LevelConfig(groomed_levels=0)
        with pytest.raises(LevelConfigError):
            LevelConfig(post_groomed_levels=0)
        with pytest.raises(LevelConfigError):
            LevelConfig(max_runs_per_level=0)
        with pytest.raises(LevelConfigError):
            LevelConfig(size_ratio=1)

    def test_level_zero_must_be_persisted(self):
        # Paper section 6.1: "Umzi requires level 0 must be persisted".
        with pytest.raises(LevelConfigError):
            LevelConfig(non_persisted_levels=frozenset({0}))

    def test_post_groomed_levels_must_be_persisted(self):
        with pytest.raises(LevelConfigError):
            LevelConfig(
                groomed_levels=2, post_groomed_levels=2,
                non_persisted_levels=frozenset({2}),
            )

    def test_valid_non_persisted_middle_levels(self):
        config = LevelConfig(
            groomed_levels=4, post_groomed_levels=2,
            non_persisted_levels=frozenset({1, 2}),
        )
        assert not config.is_persisted(1)
        assert not config.is_persisted(2)
        assert config.is_persisted(0)
        assert config.is_persisted(3)
