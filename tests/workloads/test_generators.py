"""Tests for workload generators and query batch builders."""

import pytest

from repro.core.definition import i1_definition, i2_definition, i3_definition
from repro.workloads.generator import (
    IoTUpdateWorkload,
    KeyGenerator,
    KeyMapper,
    KeyMode,
)
from repro.workloads.queries import QueryBatchGenerator


class TestKeyGenerator:
    def test_sequential(self):
        gen = KeyGenerator(KeyMode.SEQUENTIAL)
        assert gen.next_batch(5) == [0, 1, 2, 3, 4]

    def test_random_deterministic_by_seed(self):
        a = KeyGenerator(KeyMode.RANDOM, seed=9).next_batch(10)
        b = KeyGenerator(KeyMode.RANDOM, seed=9).next_batch(10)
        assert a == b

    def test_random_within_key_space(self):
        gen = KeyGenerator(KeyMode.RANDOM, key_space=100)
        assert all(0 <= k < 100 for k in gen.next_batch(50))


class TestKeyMapper:
    def test_i1_unique_composite_keys(self):
        mapper = KeyMapper(i1_definition())
        keys = {mapper.key_columns(k) for k in range(100)}
        assert len(keys) == 100

    def test_i2_two_equality_values(self):
        mapper = KeyMapper(i2_definition())
        eq, sort = mapper.key_columns(7)
        assert len(eq) == 2 and sort == ()

    def test_i3_hash_only(self):
        mapper = KeyMapper(i3_definition())
        eq, sort = mapper.key_columns(7)
        assert len(eq) == 1 and sort == ()

    def test_spread_groups_keys_per_device(self):
        mapper = KeyMapper(i1_definition(), spread=10)
        eq0, sort0 = mapper.key_columns(0)
        eq9, sort9 = mapper.key_columns(9)
        eq10, _ = mapper.key_columns(10)
        assert eq0 == eq9          # same device
        assert eq0 != eq10         # next device
        assert sort0 != sort9      # distinct messages

    def test_include_values_arity(self):
        mapper = KeyMapper(i1_definition())
        assert len(mapper.include_values(5)) == 1


class TestIoTUpdateWorkload:
    def test_first_cycle_all_fresh(self):
        wl = IoTUpdateWorkload(records_per_cycle=100, update_percent=10)
        cycle = wl.next_cycle()
        assert len(cycle) == 100
        assert len(set(cycle)) == 100

    def test_budget_respected_every_cycle(self):
        wl = IoTUpdateWorkload(records_per_cycle=50, update_percent=40)
        for _ in range(20):
            assert len(wl.next_cycle()) == 50

    def test_zero_percent_never_updates(self):
        wl = IoTUpdateWorkload(records_per_cycle=20, update_percent=0)
        seen = set()
        for _ in range(10):
            cycle = set(wl.next_cycle())
            assert not (cycle & seen)
            seen |= cycle

    def test_hundred_percent_mostly_updates(self):
        wl = IoTUpdateWorkload(records_per_cycle=100, update_percent=100, seed=3)
        wl.next_cycle()
        second = wl.next_cycle()
        updates = [k for k in second if k < 100]
        assert len(updates) >= 90  # ~p% + 0.1p% + 0.01p% of budget

    def test_update_rate_roughly_p(self):
        wl = IoTUpdateWorkload(records_per_cycle=1000, update_percent=10, seed=5)
        wl.next_cycle()
        fresh_before = wl.keys_ingested
        second = wl.next_cycle()
        updates = sum(1 for k in second if k < 1000)
        assert 90 <= updates <= 130  # 10% + 1% + 0.1% of 1000, sampled

    def test_validation(self):
        with pytest.raises(ValueError):
            IoTUpdateWorkload(records_per_cycle=0)
        with pytest.raises(ValueError):
            IoTUpdateWorkload(records_per_cycle=10, update_percent=101)


class TestQueryBatchGenerator:
    def gen(self, definition=None, population=1000):
        mapper = KeyMapper(definition or i1_definition())
        return QueryBatchGenerator(mapper, key_population=population)

    def test_sequential_batch_contiguous(self):
        batches = self.gen().sequential_batch(10)
        sorts = [lk.sort_values[0] for lk in batches]
        assert sorts == list(range(sorts[0], sorts[0] + 10))

    def test_random_batch_within_population(self):
        batches = self.gen(population=50).random_batch(100)
        assert all(0 <= lk.sort_values[0] < 50 for lk in batches)

    def test_scan_bounds(self):
        scan = self.gen().sequential_scan(100)
        assert scan.sort_upper[0] - scan.sort_lower[0] == 99

    def test_scan_requires_sort_column(self):
        with pytest.raises(ValueError):
            self.gen(i3_definition()).sequential_scan(10)

    def test_determinism_by_seed(self):
        mapper = KeyMapper(i1_definition())
        a = QueryBatchGenerator(mapper, 100, seed=1).random_batch(5)
        b = QueryBatchGenerator(mapper, 100, seed=1).random_batch(5)
        assert a == b
