"""Property: a pinned snapshot answers identically across evolve commits.

The run lifecycle's observable contract: once a query (here: a
:meth:`UmziIndex.snapshot_view` scope) has pinned a
:class:`RunListVersion`, every query it runs must return byte-identical
answers no matter how many evolves and merges commit in the meantime --
the pinned runs stay readable (deferred reclamation) and the pinned
version never changes (immutability).

Hypothesis drives a random ingest history, pins a view, replays a random
set of probe queries, commits a random sequence of evolve/merge
maintenance, and replays the same probes against the same view.
"""

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.definition import i1_definition
from repro.core.entry import IndexEntry, Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.query import PointLookup, RangeScanQuery

from tests.conftest import make_entries, rid_map

DEF = i1_definition()
KEYS_PER_RUN = 8


def build_index(num_runs: int) -> UmziIndex:
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=2, size_ratio=2)
    index = UmziIndex(
        DEF, config=UmziConfig(name="pin-prop", levels=levels,
                               data_block_bytes=2048),
    )
    for gid in range(num_runs):
        keys = range(gid * KEYS_PER_RUN, (gid + 1) * KEYS_PER_RUN)
        index.add_groomed_run(
            make_entries(DEF, keys, gid * KEYS_PER_RUN + 1), gid, gid
        )
    return index


def fingerprint(entries: List[IndexEntry]) -> List[Tuple]:
    return [
        (e.equality_values, e.sort_values, e.begin_ts, e.include_values, e.rid)
        for e in entries
    ]


@st.composite
def scenarios(draw):
    num_runs = draw(st.integers(2, 5))
    total_keys = num_runs * KEYS_PER_RUN
    probes = draw(
        st.lists(st.integers(0, total_keys + 5), min_size=1, max_size=8)
    )
    # Evolve boundary: cover the first `covered` groomed runs in one or
    # two PSN-ordered operations, optionally merging before/between/after.
    covered = draw(st.integers(1, num_runs))
    split = draw(st.integers(0, covered - 1))
    merge_points = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    query_ts = draw(st.integers(1, total_keys + 10))
    return num_runs, probes, covered, split, merge_points, query_ts


def run_probes(view, probes, query_ts):
    answers = []
    for k in probes:
        answers.append(
            fingerprint(
                view.range_scan(
                    RangeScanQuery(equality_values=(k,), query_ts=query_ts)
                )
            )
        )
        hit = view.point_lookup(
            PointLookup((k,), (k,), query_ts=query_ts)
        )
        answers.append(None if hit is None else fingerprint([hit]))
    return answers


@given(scenarios())
@settings(max_examples=25, deadline=None)
def test_pinned_view_is_immune_to_evolves_and_merges(scenario):
    num_runs, probes, covered, split, merge_points, query_ts = scenario
    index = build_index(num_runs)

    with index.snapshot_view() as view:
        before = run_probes(view, probes, query_ts)

        # Commit maintenance *after* pinning: evolves in PSN order over the
        # covered prefix, with optional merge storms interleaved.
        if merge_points[0]:
            index.run_maintenance()
        psn = 1
        boundaries = [split, covered - 1] if split < covered - 1 else [covered - 1]
        lo = 0
        for hi in boundaries:
            entries = make_entries(
                DEF,
                range(lo * KEYS_PER_RUN, (hi + 1) * KEYS_PER_RUN),
                lo * KEYS_PER_RUN + 1,
                Zone.POST_GROOMED,
                100 + psn,
            )
            index.evolve_streaming(psn, rid_map(entries), lo, hi)
            psn += 1
            lo = hi + 1
            if merge_points[1]:
                index.run_maintenance()
        if merge_points[2]:
            index.run_maintenance()

        after = run_probes(view, probes, query_ts)
        assert after == before

    # Outside the pin everything drains; the live index still answers every
    # probe (possibly with evolved RIDs) without errors.
    assert index.lifecycle.retired_backlog() == 0
    for k in probes:
        index.scan((k,), (k,), (k,), query_ts)
