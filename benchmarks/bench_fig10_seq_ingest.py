"""Figure 10: multi-run queries, sequentially ingested keys.

Paper: (a) sequential query batches beat random ones because the run
synopsis prunes irrelevant runs, and batching amortizes block fetches;
(b) the number of runs barely affects sequential queries but grows random
ones roughly linearly; (c) range-scan time grows linearly with the range,
with sequential ~ random ranges.

The shape assertions run on deterministic counters (see
``harness.multi_run_figures``); wall time stays plot-only.
"""

from repro.workloads.generator import KeyMode

from harness import assert_roughly_linear, multi_run_figures, report


def test_fig10_sequential_ingest():
    fig_a, fig_b, fig_c = multi_run_figures(KeyMode.SEQUENTIAL, 10)
    for result in (fig_a, fig_b, fig_c):
        report(result)

    # (a) batching amortizes per-key cost.  The comparison anchors at
    # batch 10: a single random key is unrepresentatively cheap (it
    # probes one block per unpruned run, paying none of the fan-out a
    # real batch amortizes), so batch 1 stays plot-only.
    for label in ("sequential query", "random query"):
        ys = fig_a.series_by_label(label).ys()
        assert ys[-1] < ys[1], (
            f"fig10a {label}: batching should amortize per-key cost"
        )
    # (a) at large batches, sequential <= random (synopsis pruning).
    seq_a = fig_a.series_by_label("sequential query").ys()
    rnd_a = fig_a.series_by_label("random query").ys()
    assert seq_a[-1] <= rnd_a[-1] * 1.2

    # (b) random grows with run count; sequential stays much flatter.
    seq_b = fig_b.series_by_label("sequential query").ys()
    rnd_b = fig_b.series_by_label("random query").ys()
    assert rnd_b[-1] / rnd_b[0] > (seq_b[-1] / seq_b[0]) * 1.5, (
        "fig10b: random queries should degrade faster with more runs"
    )

    # (c) scan time ~ linear in range (endpoints, generous tolerance).
    for label in ("sequential query", "random query"):
        series = fig_c.series_by_label(label)
        xs = [x for x, _ in series.points]
        # linearity only emerges once ranges dominate fixed costs
        assert_roughly_linear(
            xs[2:], series.ys()[2:], tolerance=6.0, label=f"fig10c {label}"
        )
