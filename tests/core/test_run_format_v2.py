"""The data-block format: raw accessors and block-index narrowing.

The property suite (tests/properties/test_zero_decode_keys.py) covers
random shapes; these tests pin the concrete behaviours: probes stay
zero-decode, the block-index fences bracket the true binary-search
target, and a payload in any layout but ``UMB2`` is refused by the view
and by every kernel reading through it.
"""

import pytest

from repro.core.builder import RunBuilder
from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.run import DataBlockView
from repro.core.search import UNBOUNDED, ts_floor
from repro.storage.block import Block
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import (
    encode_composite, encode_data_block, entry_at, lookup_run, make_entries,
    scan_run, v1_layout_payload,
)
from tests.reference_scan import batch_lookup_in_run
from tests.reference_search import key_position_bounds, sort_key_at

DEF = i1_definition()


def build_run(keys, block_bytes=256):
    hierarchy = StorageHierarchy()
    builder = RunBuilder(DEF, hierarchy, data_block_bytes=block_bytes)
    entries = make_entries(DEF, keys)
    run = builder.build("r", entries, Zone.GROOMED, 0, 0, 0)
    return run, hierarchy, entries


def key_bytes_of(k):
    from repro.core.encoding import encode_uint64

    eq, sort = (k,), (k,)
    return encode_uint64(DEF.hash_of(eq)) + encode_composite(eq) + encode_composite(sort)


class TestZeroDecodeAccounting:
    def test_point_lookup_decodes_only_the_emitted_entry(self):
        run, hierarchy, _ = build_run(list(range(200)), block_bytes=512)
        stats = hierarchy.stats.decode
        # Warm the block cache so only probe-side effects are measured.
        hit_key = key_bytes_of(123)
        lookup_run(run, hit_key, 1 << 40, DEF.hash_of((123,)))
        before = stats.snapshot()
        hit = lookup_run(run, hit_key, 1 << 40, DEF.hash_of((123,)))
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
        lookup_run(run, miss_key, 1 << 40, DEF.hash_of((131,)))
        before = stats.snapshot()
        assert lookup_run(run, miss_key, 1 << 40, DEF.hash_of((131,))) is None
        assert stats.diff(before).entry_decodes == 0

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
            assert got == lookup_run(run, kb, 1 << 40, h)


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
            assert list(scan_run(run, target, UNBOUNDED, 1 << 40)) == [
                entry_at(run, i) for i in range(true_first_geq, run.entry_count)
            ]


def refused_payload(kind):
    """A data-block payload the view must refuse, and the refusal's text."""
    entries = make_entries(DEF, range(6))
    block = encode_data_block(DEF, entries)
    not_a_block = "not an Umzi data block"
    return {
        "empty": (b"", not_a_block),
        "v1-layout": (v1_layout_payload(DEF, entries), not_a_block),
        "other-magic": (b"UMB1" + block[4:], not_a_block),
        "a-run-header": (build_run(range(6))[0].header.to_bytes(DEF), not_a_block),
        # the count and the offsets, but no sort-key length table
        "truncated-tables": (block[: 8 + 4 * len(entries)], "shorter than its offset table"),
    }[kind]


REFUSED = ["empty", "v1-layout", "other-magic", "a-run-header", "truncated-tables"]


class TestOneBlockLayout:
    @pytest.mark.parametrize("kind", REFUSED)
    def test_the_view_refuses_any_other_payload(self, kind):
        payload, message = refused_payload(kind)
        with pytest.raises(ValueError, match=message):
            DataBlockView(DEF, payload)

    @pytest.mark.parametrize("kernel", [
        "lookup_visible", "scan_visible", "batch_visible", "block_columns",
    ])
    def test_every_kernel_refuses_a_v1_layout_block(self, kernel):
        """No kernel keeps a second decoder: a run whose stored block is in
        the retired layout raises where it reads that block, and answers
        again once the block is back."""
        run, hierarchy, _ = build_run(range(40), block_bytes=512)
        assert run.header.num_data_blocks >= 2
        # the first key stored: every kernel reads block 0 for it
        key, floor = run.header.block_meta[0].first_sort_key[:-8], ts_floor(1 << 40)

        def batch():
            out = [None]
            run.batch_visible([key], None, [floor], [0], out)
            return [out[0][0].entry(out[0][1])]

        calls = {
            "lookup_visible": lambda: run.lookup_visible(key, floor, 0, run.entry_count),
            "scan_visible": lambda: [
                (sort_key, view.entry(i)) for sort_key, view, i
                in run.scan_visible(key, 0, run.entry_count, UNBOUNDED, floor)
            ],
            "batch_visible": batch,
            "block_columns": lambda: run.block_columns(0),
        }
        original = hierarchy.read(run.data_block_id(0)).payload

        def store(payload):
            block_id = run.data_block_id(0)
            for tier in (hierarchy.memory, hierarchy.ssd, hierarchy.shared):
                tier.delete(block_id)  # shared storage is immutable
            hierarchy.write_persisted(Block(block_id, payload))
            run.drop_decode_cache()

        answer = calls[kernel]()
        assert answer not in (None, [], [None], ([], []))
        view = run.block_view(0)
        store(v1_layout_payload(DEF, [view.entry(i) for i in range(view.count)]))
        with pytest.raises(ValueError, match="not an Umzi data block"):
            calls[kernel]()
        store(original)
        assert calls[kernel]() == answer
