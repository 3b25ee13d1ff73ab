"""The routed point path before its key was encoded once per query.

``reference_point_query(table, equality_values, sort_values, query_ts)``
answers like ``ShardedTable.point_query`` did before each layer was
crossed in one call: admission books a ticket and reads the table's
``sim_now`` before and after the work; the routing-epoch pin is held for
the whole query; the shard's breaker is asked ``state()`` and the shard
whether it is degraded; and the shard's lookup encodes its own key
(``encode_point_key``) and pins the version through the lifecycle.  Every
call goes to the live objects' counters, so
``tests/properties/test_point_path_oracle.py`` compares answers,
refusals and ledgers of this path and the current one on twin tables.
Its failure contract is the current one: a lone holder that gives up is
named in a ``PartialResultError``, as a gathered shard is, and a degraded
read is counted only once the shard answered (a refused one counts
nothing).
"""

from typing import List, Optional

from repro.core.definition import encode_search_key
from repro.core.encoding import EncodingError, fnv1a64
from repro.core.query import encode_point_key
from repro.core.search import narrow_with_offset_array, ts_floor
from repro.planner.plan import PlanError
from repro.qos.breaker import BreakerState
from repro.qos.errors import PartialResultError
from repro.storage.retry import StorageBrownout, TransientIOError


def reference_point_query(table, equality_values=(), sort_values=(), query_ts=None):
    """``ShardedTable.point_query`` -> ``_admitted`` -> ``_serve``."""
    args = (equality_values, sort_values, query_ts)
    sharding_values = table._bound_sharding_values(equality_values, sort_values)
    admission = table.admission
    if admission is None:
        return _serve(table, sharding_values, args)
    queued_ns = admission.admit()  # the ticket's ``queued_ns``
    start = table.sim_now()
    try:
        return _serve(table, sharding_values, args)
    finally:  # ``AdmissionTicket.finish(sim_now() - start)``
        if queued_ns + table.sim_now() - start > admission.config.deadline_ns:
            admission.stats.deadline_misses += 1


def _serve(table, sharding_values, args):
    maps = table.maps
    shard_map = maps.pin()
    try:
        if sharding_values is not None:
            try:
                encoded = encode_search_key(table._shard_specs, sharding_values)
            except EncodingError as exc:
                raise PlanError(f"sharding key: {exc}") from None
            key_hash = fnv1a64(encoded)
            route = shard_map.route_of(key_hash)
            shard_ids = route.read_shards(key_hash)
            if len(shard_ids) == 1:  # a give-up names the shard, as a gather's
                try:
                    return _shard_call(table, shard_ids[0], args, True)
                except TransientIOError as exc:
                    raise PartialResultError(
                        shard_ids, (), exc, epoch=shard_map.epoch
                    ) from exc
            fresh = route.fresh_write_shards()
        else:
            shard_ids = shard_map.scatter_shards()
            fresh = shard_map.fresh_write_shards()
        parts: list = []
        failed: List[int] = []
        cause = None
        for shard_id in shard_ids:
            try:
                parts.append(_shard_call(table, shard_id, args, shard_id not in fresh))
            except TransientIOError as exc:
                failed.append(shard_id)
                cause = exc
        answer = table._newest_record(parts, bool(fresh))
        if failed:
            answer = [] if answer is None else [answer]
            raise PartialResultError(
                tuple(failed), tuple(answer), cause, epoch=shard_map.epoch
            )
        return answer
    finally:
        maps.unpin(shard_map.epoch)


def _shard_call(table, shard_id, args, allow_degraded):
    shard = table.shards[shard_id]
    breaker = table.breaker(shard_id)
    if breaker is None:
        return _shard_point_query(shard, *args)
    if breaker.state() is not BreakerState.OPEN:
        if shard.degraded_pin is not None:
            shard.exit_degraded_mode()
        try:
            return _shard_point_query(shard, *args)
        except StorageBrownout:
            if not allow_degraded:
                raise
    elif not allow_degraded:
        raise StorageBrownout(f"shared/shard{shard_id}", 0)
    shard.enter_degraded_mode()
    answer = _shard_point_query(shard, *args)
    table.qos_stats().degraded_reads += 1  # counted once the shard answered
    return answer


def _shard_point_query(shard, equality_values, sort_values, query_ts):
    """``WildfireShard.point_query`` at groomed freshness."""
    ts = query_ts if query_ts is not None else shard.clock.snapshot_ts
    pin = shard.degraded_pin
    executor = shard.index.executor if pin is None else pin.executor
    entry = reference_lookup(executor, equality_values, sort_values, ts)
    if entry is None:
        return None
    return shard.catalog.fetch_record(entry.rid)


def reference_lookup(executor, equality_values, sort_values, query_ts) -> Optional:
    """``QueryExecutor.lookup`` encoding its own key, its pin and release
    around the run loop, and a release hook that reads the intent first."""
    key, hash_value = encode_point_key(
        executor.definition, equality_values, sort_values
    )
    floor = ts_floor(query_ts)
    boxes = (*equality_values, *sort_values[:1])
    bucketed = hash_value is not None and executor.use_offset_array
    lifecycle, done = executor._lifecycle, executor._on_query_done
    if lifecycle is None:
        pin, runs = None, executor.collect_runs()
    else:
        pin = lifecycle.pin()
        runs = pin.runs
    searched = []
    try:
        for run in runs:
            header = run.header
            if not run.entry_count or header.min_begin_ts > query_ts:
                continue
            for crange, value in zip(header.synopsis.ranges, boxes):
                if crange is not None and not (
                    crange.min_value <= value <= crange.max_value
                ):
                    break
            else:
                searched.append(run)
                if bucketed:
                    lo, hi = narrow_with_offset_array(run, hash_value)
                else:
                    lo, hi = 0, run.entry_count
                entry = run.lookup_visible(key, floor, lo, hi)
                if entry is not None:
                    return entry
        return None
    finally:
        if pin is not None:
            lifecycle.release(pin, done, searched)
        elif done is not None:
            done(searched)
