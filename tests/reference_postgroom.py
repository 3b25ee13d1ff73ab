"""The per-key post-groom predecessor lookup, kept as the sweep's oracle.

Until the one-sweep post-groom, ``PostGroomer._repartition_and_write``
asked ``UmziIndex.post_groomed_lookup`` for the predecessor of each key
the first time the key showed up in the batch: a fresh ``QueryExecutor``,
a pin, a synopsis pass and a bisect per key.  Both halves live on here,
out of ``src/``, as the reference the sweep is compared against: same
``prevRID`` chains, same ``set_end_ts`` calls, same ``beginTS -> RID`` map.
"""

from typing import Dict, List, Tuple

from repro.core.entry import RID, Zone
from repro.core.query import QueryExecutor
from repro.storage.metrics import ReadIntent


def reference_post_groomed_lookup(index, equality_values, sort_values, query_ts):
    """One point lookup over the post-groomed run list, maintenance intent."""
    executor = QueryExecutor(
        index.definition,
        collect_runs=index.run_lists[Zone.POST_GROOMED].snapshot,
        use_synopsis=index.config.use_synopsis,
        use_offset_array=index.config.use_offset_array,
        lifecycle=index.lifecycle,
    )
    with index.hierarchy.reading_as(ReadIntent.MAINTENANCE):
        return executor.lookup(equality_values, sort_values, query_ts)


def reference_repartition_and_write(
    post_groomer, records
) -> Tuple[List[int], Dict[int, RID]]:
    """``PostGroomer._repartition_and_write`` with one lookup per key."""
    buckets: Dict[int, list] = {}
    placement: List[Tuple[int, int]] = []
    for record in records:
        bucket = post_groomer._bucket_of(record)
        slot = buckets.setdefault(bucket, [])
        placement.append((bucket, len(slot)))
        slot.append(record)

    sorted_buckets = sorted(buckets)
    first_id = post_groomer.catalog.reserve_post_groomed_ids(len(sorted_buckets))
    block_id_of = {bucket: first_id + i for i, bucket in enumerate(sorted_buckets)}

    last_rid: Dict[tuple, RID] = {}
    rid_by_begin_ts: Dict[int, RID] = {}
    for record, (bucket, offset) in zip(records, placement):
        key = post_groomer.schema.primary_key_of(record.values)
        prev_rid = last_rid.get(key)
        if prev_rid is None:
            key_values = [record.values[i] for i in post_groomer._key_positions]
            n_eq = len(post_groomer.index.definition.equality_columns)
            eq, sort = key_values[:n_eq], key_values[n_eq:]
            hit = reference_post_groomed_lookup(
                post_groomer.index, eq, sort, query_ts=record.begin_ts - 1
            )
            if hit is not None:
                prev_rid = hit.rid
        if prev_rid is not None:
            post_groomer.catalog.set_end_ts(prev_rid, record.begin_ts)
        new_rid = RID(Zone.POST_GROOMED, block_id_of[bucket], offset)
        buckets[bucket][offset] = record.with_prev_rid(prev_rid)
        last_rid[key] = new_rid
        rid_by_begin_ts[record.begin_ts] = new_rid

    block_ids: List[int] = []
    for bucket in sorted_buckets:
        block = post_groomer.catalog.store_post_groomed(
            buckets[bucket], block_id=block_id_of[bucket]
        )
        block_ids.append(block.block_id)
    return block_ids, rid_by_begin_ts
