"""Quickstart: the Umzi index API in five minutes.

Builds an index directly (no engine), exercises the full maintenance
lifecycle -- groomed-run builds, merges, an evolve into the post-groomed
zone, a crash, and recovery -- and queries at every stage.

Run:  python examples/quickstart.py
"""

from repro import (
    ColumnSpec,
    IndexDefinition,
    PointLookup,
    RangeScanQuery,
    RID,
    UmziConfig,
    UmziIndex,
    Zone,
)
from repro.core.levels import LevelConfig


def main() -> None:
    # 1. Declare the index shape (paper section 4.1): equality column for
    #    point predicates, sort column for ranges, an included column for
    #    index-only reads.
    definition = IndexDefinition(
        equality_columns=(ColumnSpec("device"),),
        sort_columns=(ColumnSpec("msg"),),
        included_columns=(ColumnSpec("reading"),),
    )
    levels = LevelConfig(
        groomed_levels=3, post_groomed_levels=2,
        max_runs_per_level=2, size_ratio=2,
    )
    index = UmziIndex(definition, config=UmziConfig(name="quick", levels=levels))
    print(f"created {definition.describe()}")

    # 2. Each groom cycle produces one run of index entries.  Entries carry
    #    (equality values, sort values, includes, beginTS, RID).
    ts = 1
    for groomed_block in range(4):
        entries = []
        for offset in range(100):
            device, msg = offset % 10, groomed_block * 100 + offset
            entries.append(
                index.make_entry(
                    equality_values=(device,),
                    sort_values=(msg,),
                    include_values=(device * 1000 + msg,),
                    begin_ts=ts,
                    rid=RID(Zone.GROOMED, groomed_block, offset),
                )
            )
            ts += 1
        index.add_groomed_run(
            entries, min_groomed_id=groomed_block, max_groomed_id=groomed_block
        )
    print(f"after 4 grooms: {index.stats().total_runs} runs")

    # 3. Point lookup and range scan.  Queries are snapshot reads: only the
    #    newest version with beginTS <= query_ts is returned per key.
    hit = index.lookup(equality_values=(3,), sort_values=(13,))
    print(f"lookup(device=3, msg=13) -> reading={hit.include_values[0]} "
          f"rid={hit.rid}")
    scan = index.scan(equality_values=(3,), sort_lower=(0,), sort_upper=(250,))
    print(f"scan(device=3, msg in [0, 250]) -> {len(scan)} keys")

    # 4. Background merging keeps the run count bounded (section 5.3).
    merges = index.run_maintenance()
    print(f"maintenance ran {len(merges)} merges -> "
          f"{index.stats().total_runs} runs")

    # 5. Data evolves: the post-groomer rewrote groomed blocks 0..3 into
    #    partitioned post-groomed blocks, so records have *new RIDs*.  The
    #    evolve operation migrates the index (section 5.4): it splices each
    #    version's new RID, looked up by its beginTS, into the version's
    #    index entry; keys and includes are copied as bytes.
    new_rids = {}
    ts = 1
    for groomed_block in range(4):
        for offset in range(100):
            device = offset % 10
            new_rids[ts] = RID(Zone.POST_GROOMED, 50 + device % 2, offset)
            ts += 1
    result = index.evolve_streaming(1, new_rids.get, 0, 3)
    print(f"evolve(PSN=1): built {result.new_run_id} "
          f"({result.new_run_entries} entries), watermark -> "
          f"{result.watermark_after}, collected {len(result.collected_run_ids)} "
          "obsolete groomed runs")
    hit = index.lookup((3,), (13,))
    print(f"lookup after evolve -> rid={hit.rid}  (now post-groomed)")

    # 6. Crash the node: all local state is lost; runs persisted in shared
    #    storage bring the index back (section 5.5).
    index.hierarchy.crash_local_tiers()
    state = index.recover()
    hit = index.lookup((3,), (13,))
    print(f"after crash+recover: lookup -> rid={hit.rid}, "
          f"checkpoint PSN={state.checkpoint.indexed_psn}")

    print("\nfinal index state:")
    print(index.stats().format_table())


if __name__ == "__main__":
    main()
