"""v2 data-block format: raw accessors, block-index narrowing, v1 compat.

The property suite (tests/properties/test_zero_decode_keys.py) covers
random shapes; these tests pin the concrete behaviours: search over a run
whose blocks were rewritten to the legacy v1 format answers identically to
the v2 run (through the decode fallback), probes stay zero-decode on v2,
and the block-index fences bracket the true binary-search target.
"""

import pytest

from repro.core.builder import RunBuilder
from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.search import UNBOUNDED, lookup_key_in_run, search_run
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import downgrade_blocks_to_v1, make_entries
from tests.reference_scan import batch_lookup_in_run
from tests.reference_search import key_position_bounds, sort_key_at

DEF = i1_definition()


def build_run(keys, block_bytes=256, bloom_fpr=None):
    hierarchy = StorageHierarchy()
    builder = RunBuilder(DEF, hierarchy, data_block_bytes=block_bytes, bloom_fpr=bloom_fpr)
    entries = make_entries(DEF, keys)
    run = builder.build("r", entries, Zone.GROOMED, 0, 0, 0)
    return run, hierarchy, entries


def key_bytes_of(k):
    from repro.core.encoding import encode_composite, encode_uint64

    eq, sort = (k,), (k,)
    return encode_uint64(DEF.hash_of(eq)) + encode_composite(eq) + encode_composite(sort)


class TestV1RunCompat:
    def test_lookups_identical_after_downgrade(self):
        keys = list(range(0, 120, 2))
        run, hierarchy, _ = build_run(keys)
        v2_answers = [
            lookup_key_in_run(run, key_bytes_of(k), 1 << 40, DEF.hash_of((k,)))
            for k in range(-2, 124)
        ]
        downgrade_blocks_to_v1(run)
        assert all(v.version == 1 for v in run._views.values()) or not run._views
        v1_answers = [
            lookup_key_in_run(run, key_bytes_of(k), 1 << 40, DEF.hash_of((k,)))
            for k in range(-2, 124)
        ]
        assert v1_answers == v2_answers
        assert sum(1 for a in v2_answers if a is not None) == len(keys)

    def test_scan_identical_after_downgrade(self):
        keys = list(range(50))
        run, hierarchy, _ = build_run(keys)
        lower, upper = b"", b""
        v2_scan = list(search_run(run, lower, upper, 1 << 40))
        downgrade_blocks_to_v1(run)
        v1_scan = list(search_run(run, lower, upper, 1 << 40))
        assert v1_scan == v2_scan
        assert len(v2_scan) == len(keys)


class TestZeroDecodeAccounting:
    def test_point_lookup_decodes_only_the_emitted_entry(self):
        run, hierarchy, _ = build_run(list(range(200)), block_bytes=512)
        stats = hierarchy.stats.decode
        # Warm the block cache so only probe-side effects are measured.
        hit_key = key_bytes_of(123)
        lookup_key_in_run(run, hit_key, 1 << 40, DEF.hash_of((123,)))
        before = stats.snapshot()
        hit = lookup_key_in_run(run, hit_key, 1 << 40, DEF.hash_of((123,)))
        delta = stats.diff(before)
        assert hit is not None
        # The emitted entry was already decode-cached by the warmup, so the
        # steady-state probe decodes nothing at all.
        assert delta.entry_decodes == 0
        assert delta.raw_key_probes > 0

    def test_miss_decodes_nothing(self):
        run, hierarchy, _ = build_run(list(range(0, 200, 2)), block_bytes=512)
        stats = hierarchy.stats.decode
        miss_key = key_bytes_of(131)
        lookup_key_in_run(run, miss_key, 1 << 40, DEF.hash_of((131,)))
        before = stats.snapshot()
        assert lookup_key_in_run(run, miss_key, 1 << 40, DEF.hash_of((131,))) is None
        assert stats.diff(before).entry_decodes == 0

    def test_bloom_miss_skips_block_fetches(self):
        run, hierarchy, _ = build_run(list(range(0, 100, 2)), bloom_fpr=0.001)
        run.drop_decode_cache()
        before_reads = hierarchy.stats.tier("ssd").reads
        # Scan for a definitely-absent key: the bloom filter answers from
        # the header alone.
        misses = [
            lookup_key_in_run(run, key_bytes_of(k), 1 << 40, DEF.hash_of((k,)))
            for k in range(1001, 1101, 2)
        ]
        assert misses == [None] * len(misses)
        assert hierarchy.stats.tier("ssd").reads == before_reads

    def test_batch_cursor_keeps_bucket_fence(self):
        # Regression: a bucket entirely behind the monotone cursor used to
        # widen the search to (floor, entry_count); now the key is resolved
        # as absent without any probe.  Correctness check: present keys
        # still resolve identically to individual lookups.
        keys = list(range(0, 400, 4))
        run, _, _ = build_run(keys, block_bytes=512)
        probe = sorted(
            ((key_bytes_of(k), DEF.hash_of((k,))) for k in range(0, 400, 3)),
            key=lambda pair: pair[0],
        )
        results = batch_lookup_in_run(run, probe, 1 << 40)
        for (kb, h), got in zip(probe, results):
            assert got == lookup_key_in_run(run, kb, 1 << 40, h)


class TestBlockIndexNarrowing:
    def test_fences_bracket_first_geq(self):
        keys = list(range(300))
        run, _, _ = build_run(keys, block_bytes=512)
        for k in (0, 1, 150, 298, 299):
            target = key_bytes_of(k)
            lo, hi = key_position_bounds(run, target)
            true_first_geq = next(
                (
                    i
                    for i in range(run.entry_count)
                    if sort_key_at(run, i) >= target
                ),
                run.entry_count,
            )
            assert lo <= true_first_geq <= hi
            # ... and the kernel, which clamps its search onto them, starts
            # exactly there.
            assert list(search_run(run, target, UNBOUNDED, 1 << 40)) == [
                run.entry_at(i) for i in range(true_first_geq, run.entry_count)
            ]
