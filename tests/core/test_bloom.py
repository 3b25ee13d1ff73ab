"""Tests for the Bloom filter extension."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bloom import BloomFilter
from repro.core.definition import i1_definition
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig

from tests.conftest import make_entries, key_of

DEF = i1_definition()


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter.for_capacity(100, 0.01)
        keys = [f"key-{i}".encode() for i in range(100)]
        bloom.add_all(keys)
        assert all(bloom.might_contain(k) for k in keys)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=64))
    def test_no_false_negatives_property(self, keys):
        bloom = BloomFilter.for_capacity(len(keys), 0.01)
        bloom.add_all(keys)
        assert all(bloom.might_contain(k) for k in keys)

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter.for_capacity(1_000, 0.01)
        bloom.add_all(f"in-{i}".encode() for i in range(1_000))
        false_positives = sum(
            1 for i in range(10_000) if bloom.might_contain(f"out-{i}".encode())
        )
        assert false_positives / 10_000 < 0.05  # generous cap over 1% target

    def test_roundtrip(self):
        bloom = BloomFilter.for_capacity(50, 0.02)
        bloom.add_all(f"k{i}".encode() for i in range(50))
        decoded = BloomFilter.from_bytes(bloom.to_bytes())
        assert all(decoded.might_contain(f"k{i}".encode()) for i in range(50))
        assert decoded.num_bits == bloom.num_bits
        assert decoded.num_hashes == bloom.num_hashes

    def test_bad_blob_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"NOPE")

    def test_fill_ratio_reasonable_at_capacity(self):
        bloom = BloomFilter.for_capacity(500, 0.01)
        bloom.add_all(f"k{i}".encode() for i in range(500))
        set_bits = sum(bin(b).count("1") for b in bloom._bits)
        assert 0.3 < set_bits / bloom.num_bits < 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(64, num_hashes=0)
        with pytest.raises(ValueError):
            BloomFilter.for_capacity(10, 1.5)


class TestBloomInIndex:
    def build(self, bloom_fpr):
        levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                             max_runs_per_level=4, size_ratio=2)
        index = UmziIndex(DEF, config=UmziConfig(
            name=f"bl-{bloom_fpr}", levels=levels, bloom_fpr=bloom_fpr,
        ))
        for gid in range(4):
            keys = range(gid * 25, (gid + 1) * 25)
            index.add_groomed_run(
                make_entries(DEF, keys, gid * 25 + 1), gid, gid
            )
        return index

    def test_runs_carry_filters_when_enabled(self):
        index = self.build(bloom_fpr=0.01)
        assert all(
            run.header.bloom_blob is not None for run in index.all_runs()
        )

    def test_no_filters_by_default(self):
        index = self.build(bloom_fpr=None)
        assert all(run.header.bloom_blob is None for run in index.all_runs())

    def test_answers_identical_with_and_without(self):
        with_bloom = self.build(bloom_fpr=0.01)
        without = self.build(bloom_fpr=None)
        for k in range(0, 120, 7):  # includes misses (k >= 100)
            eq, sort = key_of(DEF, k)
            a = with_bloom.lookup(eq, sort)
            b = without.lookup(eq, sort)
            if b is None:
                assert a is None
            else:
                assert a is not None and a.begin_ts == b.begin_ts

    def test_filters_survive_merge_and_recovery(self):
        index = self.build(bloom_fpr=0.01)
        index.run_maintenance()
        index.hierarchy.crash_local_tiers()
        index.recover()
        assert all(
            run.header.bloom_blob is not None for run in index.all_runs()
        )
        eq, sort = key_of(DEF, 33)
        assert index.lookup(eq, sort) is not None

    def test_bloom_prunes_miss_probes(self):
        """For keys that exist in no run, bloom filters should eliminate
        nearly all block reads."""
        index = self.build(bloom_fpr=0.001)
        # Warm header decode, then count data-block I/O for pure misses.
        before = index.hierarchy.stats.tier("ssd").reads
        for k in range(1_000, 1_050):
            eq, sort = key_of(DEF, k)
            assert index.lookup(eq, sort) is None
        after = index.hierarchy.stats.tier("ssd").reads
        assert after - before <= 5  # a few false positives at most
