"""Ablation A12: recovery scaling with run count (ISSUE 6).

Recovery (section 5.5) re-validates every surviving run's data blocks
before rebuilding the run lists.  This ablation measures how that cost
scales with the number of runs, on deterministic axes:

* **simulated I/O nanoseconds** of the full crash-recover cycle (all
  local tiers lost, every block re-read from shared storage);
* **checksum validations** (one CRC pass per block, zero entry
  decodes).  The pre-checksum arm this was once compared against (v1
  blocks, every entry decoded structurally) is retired; its last numbers
  are frozen in ``docs/benchmarks.md``.

Both axes come from counters and latency models, so the scaling and
zero-decode assertions never flake on busy hosts -- and the checked-in
``BENCH_recovery_scaling.json`` is byte-stable across regenerations
(wall time is measured but only printed, never persisted).

Set ``UMZI_BENCH_SMOKE=1`` for the CI-sized fixture.
"""

import os

from repro.core.definition import i1_definition
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.workloads.generator import KeyMapper

from harness import (
    ExperimentResult,
    Series,
    assert_roughly_linear,
    entries_for_keys,
    measure_wall_s,
    report,
)

_SMOKE = os.environ.get("UMZI_BENCH_SMOKE") == "1"
RUN_COUNTS = (2, 4) if _SMOKE else (4, 8, 16)
ENTRIES_PER_RUN = 250 if _SMOKE else 2_000

DEF = i1_definition()


def _build_index(name, num_runs, entries_per_run=ENTRIES_PER_RUN):
    levels = LevelConfig(
        groomed_levels=3, post_groomed_levels=2,
        max_runs_per_level=max(num_runs + 1, 4), size_ratio=4,
    )
    index = UmziIndex(
        DEF, config=UmziConfig(name=name, levels=levels, data_block_bytes=2048)
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


def _crash_recover(index):
    """One full crash-recovery: lose local tiers, rebuild from shared.

    Returns (sim_ns, checksum_validations, entry_decodes, wall_s) deltas.
    """
    index.hierarchy.crash_local_tiers()
    stats = index.hierarchy.stats
    sim_before = stats.total_sim_ns
    decode_before = stats.decode.snapshot()
    wall_s = measure_wall_s(index.recover, repeat=1)  # plot-only
    delta = stats.decode.diff(decode_before)
    return (
        stats.total_sim_ns - sim_before,
        delta.checksum_validations,
        delta.entry_decodes,
        wall_s,
    )


def test_recovery_scaling():
    v3_ns = Series("v3 checksum (sim ns)")
    v3_validations = Series("v3 checksum validations")
    metrics = {}
    for num_runs in RUN_COUNTS:
        # Per-block CRCs, zero entry decodes.
        index = _build_index(f"a12v3-{num_runs}", num_runs)
        total_blocks = sum(r.header.num_data_blocks for r in index.all_runs())
        sim_ns, validations, decodes, wall_s = _crash_recover(index)
        assert decodes == 0, (
            f"v3 recovery decoded {decodes} entries at {num_runs} runs; "
            "the clean path must validate by checksum alone"
        )
        assert validations == total_blocks  # counter-asserted
        print(f"v3 recovery of {num_runs} runs: {wall_s:.4f}s wall")
        v3_ns.add(num_runs, float(sim_ns))
        v3_validations.add(num_runs, float(validations))
        metrics[f"v3_sim_ns_{num_runs}_runs"] = float(sim_ns)

    # Scaling: recovery cost grows ~linearly with run count (every
    # surviving run is re-validated exactly once).
    for line in (v3_ns, v3_validations):
        assert_roughly_linear(
            [float(x) for x, _ in line.points], line.ys(),
            tolerance=1.5, label=f"A12 {line.label}",
        )

    result = ExperimentResult(
        figure="Ablation A12",
        title="Recovery scaling: simulated cost and validation work vs run count",
        x_label="surviving runs",
        y_label="sim ns / counter value",
        series=[v3_ns, v3_validations],
        notes=(
            f"{ENTRIES_PER_RUN} entries per run; full crash (local tiers "
            "lost) before each recovery"
        ),
        metrics=metrics,
    )
    report(result, "recovery_scaling")
