"""Ablation A9: zero-decode write path (streaming evolve + checksum recovery).

PR 1 removed entry decodes from the read path; this ablation measures the
two remaining wholesale-decode maintenance sites that PR 2 converts to raw
byte streaming:

* **evolve** -- migrating entries from the groomed to the post-groomed zone
  splices the new RID into each raw entry blob (key, beginTS and include
  bytes forwarded verbatim): zero entry decodes per migrated entry.  The
  entry-rebuild arm it was measured against (1.0 decodes per entry) left
  ``src/`` with ``UmziIndex.evolve``; its numbers are frozen in
  ``docs/benchmarks.md`` and ``tests/reference_evolve.py`` keeps it as the
  byte-identity oracle of ``tests/core/test_evolve_streaming.py``;
* **recovery** -- re-validating runs after a crash used to require decoding
  block contents; header v3 carries a per-block CRC32, so the clean path
  checksums raw payloads with zero entry decodes.

Set ``UMZI_BENCH_SMOKE=1`` for the CI-sized fixture.
"""

import os
import time

from repro.core.definition import i1_definition
from repro.core.entry import RID, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.workloads.generator import KeyMapper

from harness import (
    ExperimentResult,
    Series,
    entries_for_keys,
    measure_wall_s,
    report,
)

_SMOKE = os.environ.get("UMZI_BENCH_SMOKE") == "1"
NUM_RUNS = 2 if _SMOKE else 8
ENTRIES_PER_RUN = 300 if _SMOKE else 5_000
RECOVERY_RUNS = 2 if _SMOKE else 12
RECOVERY_ENTRIES = 300 if _SMOKE else 4_000

DEF = i1_definition()


def _build_groomed_index(name, num_runs, entries_per_run):
    levels = LevelConfig(
        groomed_levels=3, post_groomed_levels=2,
        max_runs_per_level=max(num_runs + 1, 4), size_ratio=4,
    )
    index = UmziIndex(
        DEF,
        config=UmziConfig(name=name, levels=levels, data_block_bytes=4096),
    )
    mapper = KeyMapper(DEF)
    ts = 1
    for gid in range(num_runs):
        keys = list(range(gid * entries_per_run, (gid + 1) * entries_per_run))
        index.add_groomed_run(
            entries_for_keys(DEF, keys, mapper, ts_start=ts, block_id=gid),
            gid, gid,
        )
        ts += entries_per_run
    return index


def _post_groomed_rid_of(begin_ts):
    # Deterministic relocation: versions repartition into post-groomed
    # blocks of 1000 records (beginTS values are unique by construction).
    return RID(Zone.POST_GROOMED, begin_ts // 1000, begin_ts % 1000)


def test_evolve_streaming():
    total = NUM_RUNS * ENTRIES_PER_RUN
    index = _build_groomed_index("abl-ev-stream", NUM_RUNS, ENTRIES_PER_RUN)
    decode = index.hierarchy.stats.decode
    before = decode.snapshot()
    start = time.perf_counter()
    evolved = index.evolve_streaming(
        1, _post_groomed_rid_of, 0, NUM_RUNS - 1
    )
    streaming_s = time.perf_counter() - start
    delta = decode.diff(before)

    assert evolved.new_run_entries == total
    assert evolved.spliced_blobs == delta.evolve_blob_splices == total
    assert delta.entry_decodes == 0, (
        f"streaming evolve decoded {delta.entry_decodes} entries "
        f"for {total} migrations; the write path must stay zero-decode"
    )

    result = ExperimentResult(
        figure="Ablation A9",
        title="Evolve entry decodes: streaming RID splices",
        x_label="metric",
        y_label="value",
        series=[
            Series("streaming blob splices", [
                ("decodes/entry", delta.entry_decodes / total),
                ("entries/s", total / max(streaming_s, 1e-9)),
            ]),
        ],
        notes=(
            f"{NUM_RUNS} groomed runs x {ENTRIES_PER_RUN} entries; spliced "
            f"{evolved.spliced_blobs} blobs with {delta.entry_decodes} "
            "decodes (the retired entry rebuild: 1.0 per entry, frozen in "
            "docs/benchmarks.md)"
        ),
        metrics={
            "entries_migrated": float(total),
            "streaming_decodes_per_entry": delta.entry_decodes / total,
            "streaming_wall_s": streaming_s,
            "streaming_entries_per_s": total / max(streaming_s, 1e-9),
        },
    )
    report(result, "evolve_zero_decode")


def test_recovery_checksum_vs_decode():
    index = _build_groomed_index("abl-rec", RECOVERY_RUNS, RECOVERY_ENTRIES)
    total_blocks = sum(
        run.header.num_data_blocks for run in index.all_runs()
    )
    index.hierarchy.crash_local_tiers()

    decode = index.hierarchy.stats.decode
    before = decode.snapshot()
    state = index.recover()
    delta = decode.diff(before)

    # Clean-path acceptance: every block re-validated by checksum, zero
    # entry decodes end to end.
    assert not state.incomplete_run_ids and not state.corrupt_run_ids
    assert delta.checksum_validations >= total_blocks
    assert delta.entry_decodes == 0, (
        f"recovery decoded {delta.entry_decodes} entries on the clean "
        "path; v3 headers must validate by checksum alone"
    )
    recovery_s = measure_wall_s(index.recover, repeat=2)

    result = ExperimentResult(
        figure="Ablation A9b",
        title="Recovery validation: per-block checksums, zero entry decodes",
        x_label="metric",
        y_label="count / seconds",
        series=[
            Series("checksum recovery", [
                ("entry decodes", float(delta.entry_decodes)),
                ("checksum validations", float(delta.checksum_validations)),
                ("wall seconds", recovery_s),
            ]),
        ],
        notes=(
            f"{RECOVERY_RUNS} runs x {RECOVERY_ENTRIES} entries "
            f"({total_blocks} data blocks) revalidated after losing all "
            "local tiers"
        ),
        metrics={
            "runs": float(RECOVERY_RUNS),
            "data_blocks": float(total_blocks),
            "entry_decodes": float(delta.entry_decodes),
            "checksum_validations": float(delta.checksum_validations),
            "recovery_wall_s": recovery_s,
        },
    )
    report(result, "recovery_zero_decode")
