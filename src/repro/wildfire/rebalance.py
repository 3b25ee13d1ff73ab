"""Automatic split/merge policy over the online reorganizers (ISSUE 10).

The cluster can now reorganize in both directions --
:meth:`~repro.wildfire.cluster.ShardedTable.split_shard` fans a hot
shard out, :meth:`~repro.wildfire.cluster.ShardedTable.merge_shards`
fuses two cold successors back -- but something has to decide *when*.
:class:`RebalancePolicy` is that something: a deliberately small
controller that watches zero-decode signals (per-shard primary-synopsis
entry counts and the admission controller's queue backlog) and drives
at most one reorganization per evaluation.

Stability borrows :class:`~repro.qos.scheduler.DaemonScheduler`'s
hysteresis shape rather than its thresholds: a condition must hold for
a *streak* of consecutive evaluations before the policy acts
(``split_after`` / ``merge_after``), the streak resets the moment the
condition lapses, and every action starts a global *cooldown* during
which the policy only observes.  Split and merge thresholds are kept
far apart (high water vs low water), so a slot cannot oscillate: a
shard must both drain to a fraction of the split trigger *and* stay
that cold for ``merge_after`` evaluations before it is fused back.

The policy never forces work through backpressure: a
:class:`~repro.wildfire.migration.SplitAborted` /
:class:`~repro.wildfire.migration.MergeAborted` (the qos gate refusing the
copy) is recorded, counted, and retried only after the condition
re-accumulates a full streak.  ``step()`` is synchronous and
single-threaded by design -- benches and tests drive it interleaved
with query work; ``start()`` wraps it in the same daemon-thread idiom
the shard maintenance loops use.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.wildfire.migration import MergeAborted, SplitAborted


# The admission backlog (simulated ns) at which the cluster counts as
# overloaded and its largest single-slot shard becomes the split candidate.
BACKLOG_HIGH_WATER_NS = 2_000_000
# Wall seconds between the daemon's evaluations (:meth:`RebalancePolicy.start`).
STEP_INTERVAL_S = 0.05


@dataclass(frozen=True)
class RebalanceConfig:
    """Thresholds and hysteresis for the automatic policy.

    ``split_entry_high_water`` is the per-shard primary entry count that
    marks a shard hot; :data:`BACKLOG_HIGH_WATER_NS` marks the *cluster*
    overloaded, in which case the largest single-slot shard is the split
    candidate even below its entry high water.  ``merge_entry_low_water``
    is the *combined* entry count under which a split slot's two
    successors count as cold.  ``split_after`` / ``merge_after`` are the
    consecutive-evaluation streaks required before acting, and
    ``cooldown_evaluations`` is the post-action observation-only period.
    """

    split_entry_high_water: int = 10_000
    merge_entry_low_water: int = 2_000
    split_after: int = 3
    merge_after: int = 5
    cooldown_evaluations: int = 4


@dataclass
class RebalanceStats:
    evaluations: int = 0
    splits: int = 0
    merges: int = 0
    aborted_splits: int = 0
    aborted_merges: int = 0
    cooldown_skips: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class _Decision:
    """One acted-on (or refused) reorganization, for the audit trail."""

    evaluation: int
    action: str  # "split" | "merge" | "split_aborted" | "merge_aborted"
    shards: Tuple[int, ...]
    reason: str
    epoch_after: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "evaluation": self.evaluation,
            "action": self.action,
            "shards": list(self.shards),
            "reason": self.reason,
            "epoch_after": self.epoch_after,
        }


@dataclass
class RebalancePolicy:
    """Drives at most one split or merge per :meth:`step`."""

    table: object
    config: RebalanceConfig = field(default_factory=RebalanceConfig)

    def __post_init__(self) -> None:
        self.stats = RebalanceStats()
        self.decisions: List[_Decision] = []
        self._split_streaks: Dict[int, int] = {}
        self._merge_streaks: Dict[Tuple[int, int], int] = {}
        self._cooldown = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- signals (all zero-decode) --------------------------------------------

    def entry_count(self, shard_id: int) -> int:
        """The shard's primary-index entry count, straight off the
        synopsis cache (run headers only, no blocks, no decodes)."""
        shard = self.table.shards[shard_id]
        return shard.synopses.synopsis("primary").entry_count

    def backlog_ns(self) -> int:
        admission = self.table.admission
        return admission.backlog_ns() if admission is not None else 0

    def _observe(self) -> Dict[str, object]:
        """Current hot/cold candidates, without acting."""
        slots = self.table.maps.current.slots
        singles = [
            route.primary for route in slots if route.state == "single"
        ]
        splits = [
            (route.left, route.right)
            for route in slots
            if route.state == "split"
        ]
        overloaded = self.backlog_ns() >= BACKLOG_HIGH_WATER_NS
        hot = {
            shard_id
            for shard_id in singles
            if self.entry_count(shard_id) >= self.config.split_entry_high_water
        }
        if overloaded and singles and not hot:
            # Queue pressure with no shard over its high water: fan out
            # the largest single-slot shard to spread the load.
            hot = {max(singles, key=self.entry_count)}
        cold = {
            pair
            for pair in splits
            if self.entry_count(pair[0]) + self.entry_count(pair[1])
            <= self.config.merge_entry_low_water
        }
        return {"hot": hot, "cold": cold, "overloaded": overloaded}

    # -- the evaluation loop --------------------------------------------------

    def step(self) -> Optional[Dict[str, object]]:
        """One evaluation: update streaks, maybe act.  Returns the
        decision dict when a reorganization was attempted, else None."""
        self.stats.evaluations += 1
        observed = self._observe()

        # Streaks advance (or reset) every evaluation, cooldown or not:
        # sustained pressure during a cooldown still counts as sustained.
        for shard_id in list(self._split_streaks):
            if shard_id not in observed["hot"]:
                del self._split_streaks[shard_id]
        for shard_id in observed["hot"]:
            self._split_streaks[shard_id] = (
                self._split_streaks.get(shard_id, 0) + 1
            )
        for pair in list(self._merge_streaks):
            if pair not in observed["cold"]:
                del self._merge_streaks[pair]
        for pair in observed["cold"]:
            self._merge_streaks[pair] = self._merge_streaks.get(pair, 0) + 1

        if self._cooldown > 0:
            self._cooldown -= 1
            self.stats.cooldown_skips += 1
            return None

        due_splits = sorted(
            shard_id
            for shard_id, streak in self._split_streaks.items()
            if streak >= self.config.split_after
        )
        if due_splits:
            return self._act_split(due_splits[0], observed)
        due_merges = sorted(
            pair
            for pair, streak in self._merge_streaks.items()
            if streak >= self.config.merge_after
        )
        if due_merges:
            return self._act_merge(due_merges[0])
        return None

    def _record(self, action, shards, reason) -> Dict[str, object]:
        decision = _Decision(
            evaluation=self.stats.evaluations,
            action=action,
            shards=tuple(shards),
            reason=reason,
            epoch_after=self.table.routing_epoch(),
        )
        self.decisions.append(decision)
        return decision.as_dict()

    def _act_split(self, shard_id, observed) -> Dict[str, object]:
        reason = (
            "admission backlog"
            if observed["overloaded"]
            and self.entry_count(shard_id) < self.config.split_entry_high_water
            else "entry high water"
        )
        self._split_streaks.pop(shard_id, None)
        try:
            self.table.split_shard(shard_id)
        except SplitAborted as exc:
            self.stats.aborted_splits += 1
            return self._record(
                "split_aborted", (shard_id,), f"{reason}: {exc}"
            )
        self.stats.splits += 1
        self._cooldown = self.config.cooldown_evaluations
        return self._record("split", (shard_id,), reason)

    def _act_merge(self, pair) -> Dict[str, object]:
        self._merge_streaks.pop(pair, None)
        try:
            self.table.merge_shards(*pair)
        except MergeAborted as exc:
            self.stats.aborted_merges += 1
            return self._record(
                "merge_aborted", pair, f"sustained coldness: {exc}"
            )
        self.stats.merges += 1
        self._cooldown = self.config.cooldown_evaluations
        return self._record("merge", pair, "sustained coldness")

    # -- daemon wrapper -------------------------------------------------------

    def start(self) -> None:
        """Run :meth:`step` every :data:`STEP_INTERVAL_S` on a daemon
        thread until :meth:`stop`."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(STEP_INTERVAL_S):
                self.step()

        self._thread = threading.Thread(
            target=loop, name="rebalance-policy", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=10.0)
        self._thread = None

    def summary(self) -> Dict[str, object]:
        return {
            "stats": self.stats.snapshot(),
            "cooldown": self._cooldown,
            "split_streaks": dict(self._split_streaks),
            "merge_streaks": {
                f"{left}+{right}": streak
                for (left, right), streak in self._merge_streaks.items()
            },
            "decisions": [d.as_dict() for d in self.decisions],
        }


__all__ = [
    "RebalanceConfig",
    "RebalancePolicy",
    "RebalanceStats",
]
