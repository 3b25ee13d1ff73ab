"""Real-time fraud analytics -- HTAP over a payments stream.

The paper's introduction motivates HTAP with "risk analysis, online
recommendations, and fraud detection": high-speed transactional ingest
with analytical queries running concurrently *over freshly ingested data*.

This example runs a payments shard with its lifecycle in the background
(one maintenance thread looping the shard's ``tick``: groom, post-groom,
evolve, merge) while the foreground performs the fraud checks:

* per-account point lookups on the hottest (just-committed) data;
* account-history range reads (typed queries) that span the groomed and
  post-groomed zones through the single unified index;
* a repeatable-snapshot audit: the same query at the same timestamp gives
  the same answer while ingest keeps running underneath.

Run:  python examples/fraud_detection.py
"""

import random
import time

from repro.core.definition import ColumnSpec
from repro.planner import Query
from repro.wildfire import IndexSpec, ShardConfig, TableSchema, WildfireShard

ACCOUNTS = 50
SECONDS = 2.0


def main() -> None:
    schema = TableSchema(
        name="payments",
        columns=(
            ColumnSpec("account"),
            ColumnSpec("seq"),       # per-account payment sequence
            ColumnSpec("amount"),
        ),
        primary_key=("account", "seq"),
        sharding_key=("account",),
        partition_key=("seq",),
    )
    index_spec = IndexSpec(
        equality_columns=("account",),
        sort_columns=("seq",),
        included_columns=("amount",),
    )
    shard = WildfireShard(
        schema, index_spec, config=ShardConfig(post_groom_every=5)
    )

    rng = random.Random(99)
    seq_per_account = {a: 0 for a in range(ACCOUNTS)}

    def next_payment():
        account = rng.randrange(ACCOUNTS)
        seq_per_account[account] += 1
        amount = rng.randrange(1, 2_000)
        return (account, seq_per_account[account], amount)

    print("starting the background maintenance thread (groom / post-groom / "
          "evolve / merge) ...")
    shard.start_daemons(groom_interval_s=0.02)
    flagged = []

    def history_of(account, query_ts=None):
        """One account's payments as (seq, amount), oldest first."""
        return shard.query(Query(
            equalities=(("account", account),), projection=("seq", "amount"),
            query_ts=query_ts,
        ))

    try:
        deadline = time.time() + SECONDS
        payments = 0
        while time.time() < deadline:
            batch = [next_payment() for _ in range(25)]
            shard.ingest(batch)
            payments += len(batch)

            # Fraud rule: flag accounts whose recent payments exceed a
            # velocity threshold -- an analytical scan over *fresh* data.
            suspect = rng.randrange(ACCOUNTS)
            recent = [amount for _, amount in history_of(suspect)[-10:]]
            if len(recent) >= 5 and sum(recent) / len(recent) > 1_400:
                flagged.append(suspect)
            time.sleep(0.005)

        print(f"ingested {payments} payments across {ACCOUNTS} accounts")
        # Give the pipeline a moment to groom the tail of the stream.
        time.sleep(0.2)
    finally:
        shard.stop_daemons()
    shard.run_cycles(2)  # drain anything still in the live zone

    stats = shard.stats()
    print(f"grooms={shard.groomer.grooms_done} "
          f"post-grooms={shard.post_groomer.max_psn} "
          f"evolves={shard.indexer.evolves_applied} "
          f"runs retired={shard.hierarchy.stats.epochs.runs_retired}")
    print(f"index: {stats['index'].total_runs} runs, "
          f"{stats['index'].total_entries} entries "
          f"(groomed zone {stats['index'].groomed_run_count}, "
          f"post-groomed {stats['index'].post_groomed_run_count})")
    print(f"velocity-flagged accounts: {sorted(set(flagged)) or 'none'}")

    # Unified-view check: one index answers across both zones.
    account = max(seq_per_account, key=seq_per_account.get)
    entries = shard.index.scan((account,), None, None, shard.current_snapshot_ts())
    zones = {e.rid.zone.name for e in entries}
    print(f"\naccount {account}: {len(entries)} payments via ONE index; "
          f"rows live in zones {sorted(zones)}")
    assert len({e.sort_values for e in entries}) == len(entries), \
        "unified view must not duplicate rows across zones"
    assert len(history_of(account)) == len(entries)

    # Repeatable audit snapshot while the data keeps changing.
    audit_ts = shard.current_snapshot_ts()
    before = history_of(account, query_ts=audit_ts)
    shard.ingest([(account, seq_per_account[account] + 1, 123_456)])
    shard.run_cycles(6)
    after = history_of(account, query_ts=audit_ts)
    assert before == after, "audit snapshot must be repeatable"
    print(f"audit snapshot at ts={audit_ts}: {len(before)} rows, repeatable "
          "under concurrent ingest")
    live_now = history_of(account)
    print(f"live view now sees {len(live_now)} rows (audit still sees "
          f"{len(after)})")


if __name__ == "__main__":
    main()
