"""Ablation A8b: the blob-level K-way merge is zero decode.

Paper section 4.2 stores all ordering columns "in lexicographically
comparable formats ... so that keys can be compared by simply using memory
compare operations".  The v2 data-block format makes the reproduction
actually do that: binary-search probes, batched lookups, and K-way merges
compare raw sort-key slices and decode an ``IndexEntry`` only for entries
they emit.

The read-path half of this ablation (A8: raw probes vs a
``use_raw_keys=False`` decode-per-probe arm) is settled and the arm is
deleted; its committed verdict -- 5.81 -> 0.99 entry decodes per lookup,
0.35x the wall time -- is frozen in ``docs/benchmarks.md`` and
``benchmarks/results/ablation_a8.txt``.  What stays is the merge half: the
decode count of the blob-level merge must be zero.
"""

import heapq

from repro.core.builder import RunBuilder
from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.merge import merge_entry_blob_streams
from repro.core.run import Synopsis
from repro.storage.hierarchy import StorageHierarchy
from repro.workloads.generator import KeyGenerator, KeyMapper, KeyMode

from harness import ExperimentResult, Series, entries_for_keys, report

MERGE_RUN_SIZE = 5_000


def test_merge_path_is_zero_decode():
    definition = i1_definition()
    hierarchy = StorageHierarchy()
    builder = RunBuilder(definition, hierarchy, data_block_bytes=4096)
    mapper = KeyMapper(definition)
    generator = KeyGenerator(KeyMode.RANDOM, seed=5, key_space=MERGE_RUN_SIZE * 4)
    runs = []
    for i in range(2):
        keys = generator.next_batch(MERGE_RUN_SIZE)
        entries = entries_for_keys(
            definition, keys, mapper, ts_start=1 + i * MERGE_RUN_SIZE, block_id=i
        )
        runs.append(
            builder.build(f"in{i}", entries, Zone.GROOMED, 0, i, i)
        )
    decode = hierarchy.stats.decode

    # Legacy merge (the seed's implementation): decode every input entry,
    # re-encode its sort key for heap ordering, re-serialize to build.
    def legacy_merge():
        def stream(run, recency):
            for block_index in range(run.header.num_data_blocks):
                view = run.block_view(block_index)
                for i in range(view.count):
                    entry = view.entry(i)
                    yield entry.sort_key(definition), recency, entry

        previous = None
        for sort_key, _recency, entry in heapq.merge(
            *[stream(r, i) for i, r in enumerate(runs)]
        ):
            if sort_key == previous:
                continue
            previous = sort_key
            yield entry

    before = decode.snapshot()
    legacy_entries = list(legacy_merge())
    builder.build("legacy-out", legacy_entries, Zone.GROOMED, 1, 0, 1, presorted=True)
    legacy_decodes = decode.diff(before).entry_decodes

    for run in runs:
        run.drop_decode_cache()

    # Blob merge: entry bytes stream through verbatim.
    before = decode.snapshot()
    merged = list(merge_entry_blob_streams(definition, runs))
    blob_run = builder.build_from_columns(
        "blob-out",
        [tuple(zip(*merged))],
        Synopsis.union([r.header.synopsis for r in runs]),
        Zone.GROOMED,
        1,
        0,
        1,
    )
    blob_delta = decode.diff(before)

    assert blob_delta.entry_decodes == 0, (
        f"blob merge decoded {blob_delta.entry_decodes} entries; "
        "the K-way merge must be zero-decode"
    )
    assert blob_delta.blob_copies == len(merged)
    assert legacy_decodes >= len(legacy_entries)
    assert blob_run.entry_count == len(legacy_entries)
    # Byte-identical output entries either way.
    assert [blob for _sk, blob in merged] == [
        e.to_bytes(definition) for e in legacy_entries
    ]

    result = ExperimentResult(
        figure="Ablation A8b",
        title="K-way merge entry decodes: blob streaming vs decode+re-encode",
        x_label="merge path",
        y_label="entry decodes",
        series=[
            Series("legacy entry merge", [("decodes", float(legacy_decodes))]),
            Series("blob merge", [("decodes", float(blob_delta.entry_decodes))]),
        ],
        notes=(
            f"2 runs x {MERGE_RUN_SIZE} entries; blob path forwards "
            f"{blob_delta.blob_copies} pre-serialized blobs untouched"
        ),
    )
    report(result)
