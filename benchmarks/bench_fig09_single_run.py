"""Figure 9: single-run query performance (sequential and random batches).

Paper: lookup time grows mildly with run size (offset array + binary
search); I2 is slower (two equality columns make the offset array less
effective at narrowing the initial range); I1 ~ I3.

The y-axis is the batch's decode-probe cost (entry decodes plus
zero-decode sort-key probes -- deterministic functions of run and
batch), the counter behind "binary search bounds the work"; wall time
stays plot-only in the result metrics.
"""

from typing import List, Optional

from repro.core.query import QueryExecutor
from repro.workloads.generator import KeyMapper
from repro.workloads.queries import QueryBatchGenerator

from harness import (
    DEFINITIONS,
    ExperimentResult,
    Series,
    build_single_run,
    measure_wall_s,
    report,
)

SIZES = (1_000, 5_000, 20_000)
BATCH = 300


def fig09_single_run() -> List[ExperimentResult]:
    """Batched lookups against one run, sequential (9a) and random (9b)."""
    results = []
    base: Optional[float] = None
    for query_kind in ("sequential", "random"):
        series = []
        wall_total = 0.0
        for label, make_def in DEFINITIONS:
            definition = make_def()
            mapper = KeyMapper(definition)
            line = Series(label)
            for n in SIZES:
                run, hierarchy = build_single_run(definition, n, mapper)
                executor = QueryExecutor(definition, lambda run=run: [run])
                qgen = QueryBatchGenerator(mapper, key_population=n, seed=13)
                make_batch = (
                    qgen.sequential_batch
                    if query_kind == "sequential"
                    else qgen.random_batch
                )
                batch = make_batch(min(BATCH, n))

                wall_total += measure_wall_s(
                    lambda: executor.batch_lookup(batch), repeat=1  # counter-asserted
                )
                # Cold decode caches, then one counted batch: probes and
                # decodes are deterministic functions of (run, batch).
                run.drop_decode_cache()
                decode = hierarchy.stats.decode
                before = decode.entry_decodes + decode.raw_key_probes
                executor.batch_lookup(batch)
                cost = float(
                    decode.entry_decodes + decode.raw_key_probes - before
                )
                if base is None:
                    base = cost  # (I1, smallest, sequential)
                line.add(n, cost)
            series.append(line)
        results.append(
            ExperimentResult(
                figure=f"Figure 9{'a' if query_kind == 'sequential' else 'b'}",
                title=f"Single-run lookups, {query_kind} query batch",
                x_label="entries in run",
                y_label="batch decode-probe cost",
                series=series,
                notes="normalized to (I1, smallest run, sequential)",
                metrics={"lookup_wall_s_total": wall_total},
            ).normalize_all(base if base else 1.0)
        )
    return results


def test_fig09_single_run():
    results = fig09_single_run()
    for result in results:
        report(result)

    for result in results:
        for label in ("I1", "I2", "I3"):
            ys = result.series_by_label(label).ys()
            # Shape: strongly sublinear growth -- a 20x larger run costs
            # only log-more probes (measured ~1.8x; 3x leaves headroom
            # for block-size or offset-array retuning).
            assert ys[-1] <= ys[0] * 3, (
                f"{result.figure} {label}: growth {ys[-1] / ys[0]:.1f}x "
                "exceeds the binary-search log bound"
            )
