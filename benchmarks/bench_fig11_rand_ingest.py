"""Figure 11: multi-run queries, randomly ingested keys.

Paper: random keys defeat the run synopsis, so sequential queries lose
their pruning advantage and converge to random-query behaviour; random
queries themselves are barely affected relative to Figure 10.
"""

from repro.workloads.generator import KeyMode

from harness import assert_roughly_linear, multi_run_figures, report


def test_fig11_random_ingest():
    fig_a, fig_b, fig_c = multi_run_figures(KeyMode.RANDOM, 11)
    for result in (fig_a, fig_b, fig_c):
        report(result)

    # (a/b) sequential ~ random once synopses stop pruning: the two series
    # stay within a small factor of each other.  Tiny batches mostly
    # measure per-run fixed costs rather than pruning, so only the
    # substantial batch sizes are checked.
    for result, tolerance in ((fig_a, 3.0), (fig_b, 3.0)):
        seq = result.series_by_label("sequential query").ys()
        rnd = result.series_by_label("random query").ys()
        for s, r in zip(seq[2:], rnd[2:]):
            ratio = s / r if r else 1.0
            assert 1 / tolerance <= ratio <= tolerance, (
                f"{result.figure}: sequential and random should converge "
                f"under random ingest (ratio {ratio:.2f})"
            )

    # (b) both query kinds now degrade with more runs.
    for label in ("sequential query", "random query"):
        ys = fig_b.series_by_label(label).ys()
        assert ys[-1] > ys[0] * 1.5, (
            f"fig11b {label}: more runs must cost more without pruning"
        )

    # (c) scans stay ~linear in range (generous tolerance: with random
    # ingest every run participates, so per-run fixed costs dominate until
    # ranges get large).
    for label in ("sequential query", "random query"):
        series = fig_c.series_by_label(label)
        xs = [x for x, _ in series.points]
        assert_roughly_linear(
            xs[2:], series.ys()[2:], tolerance=10.0, label=f"fig11c {label}"
        )
