"""Outside-in layer timer for the traced run (``run.py --trace 1``).

Nothing in ``src/`` knows about it: the benchmark replaces the bound
methods listed in :data:`BOUNDARIES` on the instances it built (the table,
each shard and each shard's components) with timing wrappers, and removes
them again by deleting the instance attribute.  Every wrapped call is a
span; a layer's *self* time is its spans' duration minus the time covered
by the spans they enclose, so the self times of all layers add up to the
time inside the front-door calls.  A boundary whose attribute no longer
exists is reported once on stderr and skipped: its time then falls into
the enclosing layer's self time and the run goes on.

Two chunks out of three run traced (a period of three, so that the
post-groom, due every 20th tick, does not always fall on the same side);
the third runs with the wrappers removed and is the base of
``trace.overhead_ratio`` and of the ``driver.*`` latencies.  Times are
read at the end of the timed phase, counts at its checkpoint.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.storage.metrics import ReadIntent

SPAN_LIMIT = 20_000
MAINTENANCE_LAYERS = (
    "wildfire.groomer", "wildfire.postgroomer", "wildfire.indexer",
    "core.maintenance",
)


def _count_plan(tally: Counter, args, plan) -> None:
    kind = (
        "index_only" if plan.index_only
        else "secondary_fetchback" if plan.fetch_back
        else "primary"
    )
    tally["plan." + kind] += 1


def _count_first_arg(name: str) -> Callable:
    def observe(tally: Counter, args, result) -> None:
        tally[name] += len(args[0])
    return observe


def _count_call(name: str) -> Callable:
    def observe(tally: Counter, args, result) -> None:
        tally[name] += 1
    return observe


def _count_merges(tally: Counter, args, merges) -> None:
    tally["merges"] += len(merges)


def _shards(table):
    return table.shards


def _of_shards(attribute: str) -> Callable:
    return lambda table: [getattr(shard, attribute) for shard in table.shards]


def _indexes(table):
    return [
        shard_index.index
        for shard in table.shards
        for shard_index in shard.indexes.all()
    ]


def _maintenance(table):
    return [
        service
        for shard in table.shards
        for service in [shard.maintenance, *shard._secondary_maintenance]
    ]


# (layer, owners of the method given the table, method, observer or None).
# An observer counts work at the boundary from the call's arguments or
# result: observer(tally, args, result).
BOUNDARIES: Tuple[Tuple[str, Callable, str, Optional[Callable]], ...] = (
    ("wildfire.cluster", lambda table: [table], "point_query", None),
    ("wildfire.cluster", lambda table: [table], "query", _count_call("typed_queries")),
    ("wildfire.cluster", lambda table: [table], "ingest", None),
    ("wildfire.cluster", lambda table: [table], "tick", _count_call("ticks")),
    ("qos.admission", lambda table: [table.admission], "admit", None),
    ("wildfire.engine", _shards, "point_query", None),
    ("wildfire.engine", _shards, "_query_tagged", None),
    ("wildfire.engine", _shards, "ingest", _count_first_arg("rows_ingested")),
    ("planner", _shards, "plan_query", _count_plan),
    ("core.index", _indexes, "lookup", None),
    ("core.index", _indexes, "scan", None),
    ("core.index", _indexes, "batch_lookup", _count_first_arg("fetchback_keys")),
    ("wildfire.blockstore", _of_shards("catalog"), "fetch_record", _count_call("records")),
    ("wildfire.blockstore", _of_shards("catalog"), "fetch_records", _count_first_arg("records")),
    ("storage.hierarchy", _of_shards("hierarchy"), "read", None),
    ("storage.hierarchy", _of_shards("hierarchy"), "read_many", None),
    ("storage.hierarchy", _of_shards("hierarchy"), "write_persisted", None),
    ("storage.hierarchy", _of_shards("hierarchy"), "write_cached_only", None),
    ("wildfire.txlog", _of_shards("committed_log"), "append", None),
    ("wildfire.groomer", _of_shards("groomer"), "groom", None),
    ("wildfire.postgroomer", _of_shards("post_groomer"), "post_groom", _count_call("post_grooms")),
    ("wildfire.indexer", _of_shards("indexer"), "drain", None),
    ("core.maintenance", _maintenance, "step", _count_merges),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in BOUNDARIES))

PER_LAYER_UNITS = {
    "trace.overhead_ratio": "ratio",
    "trace.self_time_coverage": "ratio",
    **{f"{layer}.self_us_per_op": "us" for layer in LAYERS},
    **{f"{layer}.busy_share": "ratio" for layer in MAINTENANCE_LAYERS},
    "qos.admission.admitted_per_op": "count",
    "qos.admission.shed": "count",
    "qos.admission.queue_sim_ns_per_op": "ns",
    "wildfire.shardmap.pins_per_op": "count",
    "wildfire.cluster.shards_contacted_per_query": "count",
    "wildfire.cluster.scatter_pruned_ratio": "ratio",
    "wildfire.engine.fetchback_keys_per_query": "count",
    "planner.self_us_per_query": "us",
    "planner.plan_share.primary": "ratio",
    "planner.plan_share.secondary_fetchback": "ratio",
    "planner.plan_share.index_only": "ratio",
    "core.index.calls_per_op": "count",
    "core.index.raw_key_probes_per_op": "count",
    "core.index.entry_decodes_per_op": "count",
    "core.index.version_refs_per_op": "count",
    "core.index.runs_per_shard_start": "count",
    "core.index.runs_per_shard_checkpoint": "count",
    "wildfire.blockstore.records_per_op": "count",
    "storage.hierarchy.sim_io_us_per_op": "us",
    "storage.hierarchy.reads_per_op": "count",
    "storage.hierarchy.memory_hit_ratio": "ratio",
    "storage.hierarchy.ssd_hit_ratio": "ratio",
    "storage.hierarchy.shared_reads_per_op": "count",
    "storage.hierarchy.shared_bytes_read_per_op": "B",
    "storage.hierarchy.shared_bytes_written_per_row": "B",
    "storage.hierarchy.promotions_per_op": "count",
    "storage.hierarchy.maintenance_promotions": "count",
    "core.cache.cached_run_fraction": "ratio",
    "wildfire.txlog.self_us_per_row": "us",
    "wildfire.groomer.us_per_row": "us",
    "wildfire.postgroomer.calls_per_tick": "count",
    "wildfire.indexer.evolve_blob_splices_per_row": "count",
    "core.maintenance.merges_per_tick": "count",
    "core.maintenance.runs_retired_per_tick": "count",
    "core.maintenance.entry_decodes_per_row": "count",
}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Installs and removes the wrappers; adds up self time per layer."""

    def __init__(self, table) -> None:
        self.table = table
        self.self_seconds: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.total_seconds: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()
        self.tally: Counter = Counter()
        # The first SPAN_LIMIT spans, kept for the trace file: (span id,
        # parent span id or -1, layer, start s, end s).  A root span is one
        # front-door call, so the spans of one op share their root.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._open: List[List] = []  # [span id, seconds in enclosed spans]
        self._next_span = 0
        self._installed: List[Tuple[object, str]] = []
        self._reported_absent = set()
        self._pins_before = self._map_pins()

    def _map_pins(self) -> int:
        ledger = self.table.epoch_stats()
        return ledger.version_refs + ledger.version_unrefs

    # -- wrappers --------------------------------------------------------------

    def set_traced(self, traced: bool) -> None:
        if traced and not self._installed:
            self._install()
        elif not traced and self._installed:
            for owner, method in self._installed:
                delattr(owner, method)
            self._installed = []

    def _install(self) -> None:
        for layer, owners_of, method, observe in BOUNDARIES:
            try:
                owners = [o for o in owners_of(self.table) if hasattr(o, method)]
            except AttributeError:
                owners = []
            if not owners:
                if (layer, method) not in self._reported_absent:
                    self._reported_absent.add((layer, method))
                    print(
                        f"warning: boundary {layer}:{method} is absent; its "
                        "time falls into the enclosing layer",
                        file=sys.stderr,
                    )
                continue
            for owner in owners:
                setattr(owner, method, self._wrap(
                    layer, getattr(owner, method), observe
                ))
                self._installed.append((owner, method))

    def _wrap(self, layer: str, call: Callable, observe: Optional[Callable]):
        open_spans = self._open
        self_seconds, total_seconds = self.self_seconds, self.total_seconds
        calls, tally, spans = self.calls, self.tally, self.spans
        now = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_span
            self._next_span = span_id + 1
            parent = open_spans[-1][0] if open_spans else -1
            frame = [span_id, 0.0]
            open_spans.append(frame)
            start = now()
            try:
                result = call(*args, **kwargs)
            finally:
                end = now()
                open_spans.pop()
                elapsed = end - start
                self_seconds[layer] += elapsed - frame[1]
                total_seconds[layer] += elapsed
                calls[layer] += 1
                if open_spans:
                    open_spans[-1][1] += elapsed
                if span_id < SPAN_LIMIT:
                    spans.append((span_id, parent, layer, start, end))
            if observe is not None:
                observe(tally, args, result)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({
                "columns": ["span", "parent", "layer", "start_s", "end_s"],
                "spans": self.spans,
            }, out)

    # -- metrics ---------------------------------------------------------------

    def time_metrics(self, plain, traced) -> Dict[str, float]:
        """Where the time went, read at the end of the timed phase.

        ``plain`` and ``traced`` are the drivers that ran the untraced and
        the traced chunks.  Times come from the traced chunks, are divided
        by their ops and, like the driver's, are in reference seconds.
        """
        tally = self.tally
        # Reference seconds per wall second over the traced chunks.
        scale = ratio(traced.busy_seconds(), traced.wall_seconds)
        out = {
            "trace.overhead_ratio": ratio(
                ratio(traced.busy_seconds(), traced.attempted),
                ratio(plain.busy_seconds(), plain.attempted),
            ),
            "trace.self_time_coverage": ratio(
                sum(self.self_seconds.values()), traced.wall_seconds
            ),
            "planner.self_us_per_query": ratio(
                self.self_seconds["planner"] * scale * 1e6, tally["typed_queries"]
            ),
            "wildfire.txlog.self_us_per_row": ratio(
                self.self_seconds["wildfire.txlog"] * scale * 1e6,
                tally["rows_ingested"],
            ),
            "wildfire.groomer.us_per_row": ratio(
                self.total_seconds["wildfire.groomer"] * scale * 1e6,
                tally["rows_ingested"],
            ),
        }
        for layer in LAYERS:
            out[f"{layer}.self_us_per_op"] = ratio(
                self.self_seconds[layer] * scale * 1e6, traced.attempted
            )
        for layer in MAINTENANCE_LAYERS:
            out[f"{layer}.busy_share"] = ratio(
                self.total_seconds[layer], traced.wall_seconds
            )
        return out

    def count_metrics(self, before, after, plain, traced) -> Dict[str, float]:
        """How much work was done, read at the checkpoint.

        Like the end-to-end checkpoint metrics these cover a fixed number
        of ops, so they depend on the seed and not on the box: ledger
        deltas between ``ShardedTable.stats()`` at the start of the timed
        phase and at the checkpoint, over all ops so far (tracing does not
        change them), and boundary tallies over the traced ops so far.
        """
        tally = self.tally
        ops = plain.attempted + traced.attempted
        ticks = len(plain.latency_s["tick"]) + len(traced.latency_s["tick"])
        rows = plain.rows_ingested + traced.rows_ingested
        io0, io1 = before["io"], after["io"]

        def delta(read: Callable) -> float:
            return read(io1) - read(io0)

        def intents(name: str) -> float:
            return delta(lambda io: sum(
                getattr(stats, name) for stats in io.intents.values()
            ))

        qos0, qos1 = before["qos"], after["qos"]
        scatter = {
            name: after["scatter"][name] - before["scatter"][name]
            for name in after["scatter"]
        }
        map_pins = self._map_pins() - self._pins_before
        plans = sum(
            count for name, count in tally.items() if name.startswith("plan.")
        )
        reads = intents("reads")
        start_runs = [s["index"].total_runs for s in before["per_shard"]]
        end_runs = [s["index"].total_runs for s in after["per_shard"]]
        cached = [s["index"].cached_run_fraction for s in after["per_shard"]]
        return {
            "qos.admission.admitted_per_op": ratio(qos1.admitted - qos0.admitted, ops),
            "qos.admission.shed": qos1.shed - qos0.shed,
            "qos.admission.queue_sim_ns_per_op": ratio(
                qos1.queue_sim_ns - qos0.queue_sim_ns, ops
            ),
            # One Ref + one Unref per call that routes (ticks do not).
            "wildfire.shardmap.pins_per_op": ratio(map_pins, ops - ticks),
            "wildfire.cluster.shards_contacted_per_query": ratio(
                scatter["shards_contacted"], scatter["scatter_queries"]
            ),
            "wildfire.cluster.scatter_pruned_ratio": ratio(
                scatter["shards_pruned"], scatter["shards_considered"]
            ),
            "wildfire.engine.fetchback_keys_per_query": ratio(
                tally["fetchback_keys"], tally["typed_queries"]
            ),
            "planner.plan_share.primary": ratio(tally["plan.primary"], plans),
            "planner.plan_share.secondary_fetchback": ratio(
                tally["plan.secondary_fetchback"], plans
            ),
            "planner.plan_share.index_only": ratio(tally["plan.index_only"], plans),
            "core.index.calls_per_op": ratio(
                self.calls["core.index"], traced.attempted
            ),
            "core.index.raw_key_probes_per_op": ratio(
                delta(lambda io: io.decode.raw_key_probes), ops
            ),
            "core.index.entry_decodes_per_op": ratio(
                delta(lambda io: io.decode.entry_decodes), ops
            ),
            # The merged ledger also holds the cluster's map pins.
            "core.index.version_refs_per_op": ratio(
                delta(lambda io: io.epochs.version_refs) - map_pins / 2, ops
            ),
            "core.index.runs_per_shard_start": ratio(sum(start_runs), len(start_runs)),
            "core.index.runs_per_shard_checkpoint": ratio(sum(end_runs), len(end_runs)),
            "wildfire.blockstore.records_per_op": ratio(
                tally["records"], traced.attempted
            ),
            "storage.hierarchy.sim_io_us_per_op": ratio(
                delta(lambda io: io.total_sim_ns) / 1e3, ops
            ),
            "storage.hierarchy.reads_per_op": ratio(reads, ops),
            "storage.hierarchy.memory_hit_ratio": ratio(intents("memory_hits"), reads),
            "storage.hierarchy.ssd_hit_ratio": ratio(intents("ssd_hits"), reads),
            "storage.hierarchy.shared_reads_per_op": ratio(intents("shared_reads"), ops),
            "storage.hierarchy.shared_bytes_read_per_op": ratio(
                delta(lambda io: io.tier("shared").bytes_read), ops
            ),
            "storage.hierarchy.shared_bytes_written_per_row": ratio(
                delta(lambda io: io.tier("shared").bytes_written), rows
            ),
            "storage.hierarchy.promotions_per_op": ratio(intents("promotions"), ops),
            "storage.hierarchy.maintenance_promotions": delta(
                lambda io: io.intents[ReadIntent.MAINTENANCE].promotions
            ),
            "core.cache.cached_run_fraction": ratio(sum(cached), len(cached)),
            "wildfire.postgroomer.calls_per_tick": ratio(
                tally["post_grooms"], tally["ticks"]
            ),
            "wildfire.indexer.evolve_blob_splices_per_row": ratio(
                delta(lambda io: io.decode.evolve_blob_splices), rows
            ),
            "core.maintenance.merges_per_tick": ratio(tally["merges"], tally["ticks"]),
            "core.maintenance.runs_retired_per_tick": ratio(
                delta(lambda io: io.epochs.runs_retired), ticks
            ),
            "core.maintenance.entry_decodes_per_row": ratio(
                delta(lambda io: io.decode.maintenance_entry_decodes), rows
            ),
        }
