"""Tests for the divided-view baseline: anomalies Umzi's unified view avoids."""

from repro.baselines.separate import EvolutionOrder, SeparateZoneIndexes
from repro.core.definition import i1_definition
from repro.core.entry import RID, Zone
from repro.core.entry import IndexEntry

from tests.conftest import make_entries, make_entry

DEF = i1_definition()


def key_bytes(k):
    return make_entry(DEF, k, 1).key_bytes(DEF)


def groomed_entries(keys, ts_start=1):
    return make_entries(DEF, keys, ts_start, Zone.GROOMED, 0)


def post_groomed_entries(keys, ts_start=1):
    return make_entries(DEF, keys, ts_start, Zone.POST_GROOMED, 100)


class TestSteadyState:
    def test_lookup_reconciles_both_sides(self):
        divided = SeparateZoneIndexes(DEF)
        divided.add_groomed(groomed_entries(range(5)))
        divided.evolve(groomed_entries(range(5)), post_groomed_entries(range(5)))
        hit = divided.lookup(key_bytes(3))
        assert hit is not None
        assert hit.rid.zone is Zone.POST_GROOMED

    def test_newer_groomed_version_beats_post_groomed(self):
        divided = SeparateZoneIndexes(DEF)
        divided.evolve([], post_groomed_entries([1], ts_start=10))
        divided.add_groomed(groomed_entries([1], ts_start=20))
        assert divided.lookup(key_bytes(1)).begin_ts == 20

    def test_scan_dedupes_across_sides(self):
        divided = SeparateZoneIndexes(DEF)
        divided.add_groomed(groomed_entries(range(5)))
        divided.begin_evolution(
            groomed_entries(range(5)), post_groomed_entries(range(5))
        )
        hits = divided.scan(b"", b"", 1 << 40)
        assert len(hits) == 5  # careful client dedupes


class TestDuplicateAnomaly:
    def test_naive_union_duplicates_mid_evolution(self):
        divided = SeparateZoneIndexes(
            DEF, evolution_order=EvolutionOrder.ADD_THEN_REMOVE
        )
        divided.add_groomed(groomed_entries(range(5)))
        divided.begin_evolution(
            groomed_entries(range(5)), post_groomed_entries(range(5))
        )
        assert divided._mid_evolution
        naive = divided.scan_naive_union(b"", b"")
        assert len(naive) == 10  # every row twice!
        divided.finish_evolution(
            groomed_entries(range(5)), post_groomed_entries(range(5))
        )
        assert len(divided.scan_naive_union(b"", b"")) == 5


class TestMissingDataAnomaly:
    def test_naive_union_loses_rows_mid_evolution(self):
        divided = SeparateZoneIndexes(
            DEF, evolution_order=EvolutionOrder.REMOVE_THEN_ADD
        )
        divided.add_groomed(groomed_entries(range(5)))
        divided.begin_evolution(
            groomed_entries(range(5)), post_groomed_entries(range(5))
        )
        naive = divided.scan_naive_union(b"", b"")
        assert naive == []  # rows temporarily vanished!
        divided.finish_evolution(
            groomed_entries(range(5)), post_groomed_entries(range(5))
        )
        assert len(divided.scan_naive_union(b"", b"")) == 5

    def test_even_careful_lookup_misses_mid_window(self):
        divided = SeparateZoneIndexes(
            DEF, evolution_order=EvolutionOrder.REMOVE_THEN_ADD
        )
        divided.add_groomed(groomed_entries([7]))
        divided.begin_evolution(groomed_entries([7]), post_groomed_entries([7]))
        # No amount of client-side reconciliation can recover the row.
        assert divided.lookup(key_bytes(7)) is None


class TestQueryCost:
    def test_divided_view_searches_both_structures(self):
        """Even a hit on the groomed side must also probe the post-groomed
        side (a newer version could live there) -- the structural 2x the
        ablation bench quantifies."""
        divided = SeparateZoneIndexes(DEF)
        divided.add_groomed(groomed_entries([1], ts_start=5))
        divided.evolve([], post_groomed_entries([1], ts_start=50))
        hit = divided.lookup(key_bytes(1))
        assert hit.begin_ts == 50  # answer only correct because both probed
