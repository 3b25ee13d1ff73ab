"""Tier-1 wrapper around the benchmark flake guard (tools/check_flaky.py).

The CI job runs the same script standalone; having it in tier-1 means a
PR cannot land an un-audited ``repeat=1`` wall-clock assertion (the A1
flake pattern) without the local test run noticing.  The detector itself
is also exercised against crafted positive/negative fixtures so the
guard cannot silently rot into a no-op.
"""

import ast
import importlib.util
import pathlib

from tests.tools.program_tree import ROOT, program_sources

_TOOL = (
    pathlib.Path(__file__).resolve().parents[2] / "tools" / "check_flaky.py"
)


def load_tool():
    spec = importlib.util.spec_from_file_location("check_flaky", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tree_is_flake_guarded():
    """Both rules over the one parse of the program tree."""
    tool = load_tool()
    parsed = {ROOT / source.path: source for source in program_sources()}
    errors = []
    for path in tool.bench_files(tool.BENCH_DIRS):
        errors += tool.check_repeat_annotations(path, parsed[path].text)
    for path in tool.bench_files(tool.ASSERT_RULE_DIRS):
        errors += tool.check_wallclock_asserts(path, parsed[path].tree)
    assert not errors, "\n".join(errors)


def test_harness_and_every_bench_file_are_covered():
    """The figure and ablation functions live in their bench files and
    the shared sweeps in ``benchmarks/harness.py``: both rules sweep them."""
    tool = load_tool()
    for dirs in (tool.BENCH_DIRS, tool.ASSERT_RULE_DIRS):
        covered = {p.name for p in tool.bench_files(dirs)}
        assert {"harness.py", "closed_loop.py", "bench_fig10_seq_ingest.py"} <= covered


def test_rebalance_policy_is_covered():
    """ISSUE 10: the policy module's signals feed A16's byte-stable
    artifact, so the wall-clock assert rule must sweep it."""
    tool = load_tool()
    covered = {p.name for p in tool.bench_files(tool.ASSERT_RULE_DIRS)}
    assert "rebalance.py" in covered
    assert "bench_rebalance.py" in covered


def test_detects_unannotated_repeat_one(tmp_path):
    tool = load_tool()
    bad = tmp_path / "bench_bad.py"
    bad.write_text("result = run_bench(sizes=(1, 2), repeat=1)\n")
    assert len(tool.check_repeat_annotations(bad, bad.read_text())) == 1

    annotated = tmp_path / "bench_ok.py"
    annotated.write_text(
        "result = run_bench(repeat=1)  # counter-asserted\n"
        "other = run_bench(repeat=1)  # plot-only\n"
        '"""prose mentioning ``repeat=1`` is not a call."""\n'
    )
    assert tool.check_repeat_annotations(annotated, annotated.read_text()) == []


def test_retired_waiver_annotation_no_longer_passes(tmp_path):
    """The wallclock-shape-ok escape hatch was removed with the last two
    waivers (Figures 9/10 now assert on deterministic counters); a stray
    waiver must read as un-annotated."""
    tool = load_tool()
    waived = tmp_path / "bench_waived.py"
    waived.write_text(
        "result = run_bench(repeat=1)  # wallclock-shape-ok: 8x slack\n"
    )
    errors = tool.check_repeat_annotations(waived, waived.read_text())
    assert len(errors) == 1


def test_detects_direct_wallclock_assert(tmp_path):
    tool = load_tool()
    bad = tmp_path / "bench_wall.py"
    bad.write_text(
        "def test_x():\n"
        "    fast = measure_wall_s(op_a, 1)\n"
        "    slow = measure_wall_s(op_b, 1)\n"
        "    assert fast < slow * 2\n"
    )
    errors = tool.check_wallclock_asserts(bad, ast.parse(bad.read_text()))
    assert len(errors) == 1 and "measure_wall_s" in errors[0]

    ok = tmp_path / "bench_counters.py"
    ok.write_text(
        "def test_y():\n"
        "    elapsed = measure_wall_s(op, 3)\n"
        "    series.add(n, elapsed)  # plotted, not asserted\n"
        "    assert delta.raw_key_probes > 0\n"
    )
    assert tool.check_wallclock_asserts(ok, ast.parse(ok.read_text())) == []
