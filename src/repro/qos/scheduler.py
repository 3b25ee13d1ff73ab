"""Maintenance backpressure: the cluster-wide daemon scheduler (ISSUE 7).

Groom, post-groom, evolve, and within-zone merges all compete with
queries for the same storage hierarchy.  Under a query spike the right
move is to *stop doing maintenance*: every groom cycle deferred is
shared-tier bandwidth handed back to the serving path.  The scheduler is
a single hysteresis gate that each shard's lifecycle driver
(``WildfireShard.tick``) consults once per cycle, before any work:

* **throttle** when the admission backlog crosses ``high_water_ns``, when
  any watched circuit breaker is open (the tier is browning out -- writes
  would only feed the failure), or when the watched fault ledgers show
  fresh retry pressure since the last check.
* **release** only after the backlog has stayed below ``low_water_ns``
  with no breaker open and no new retries for ``release_after``
  consecutive gate checks -- hysteresis, so maintenance does not flap at
  the boundary.

Every decision lands on the :class:`~repro.storage.metrics.QosStats`
ledger (``maintenance_cycles`` / ``maintenance_throttled`` /
``throttle_events`` / ``throttle_releases``), which is what lets the A13
bench *prove* that maintenance dropped under load and recovered after.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from repro.qos.admission import AdmissionController, QosConfig
from repro.qos.breaker import BreakerState, CircuitBreaker
from repro.storage.metrics import FaultStats, QosStats

# New shared-storage retries since the last gate check that count as
# retry pressure.
RETRY_DELTA_THRESHOLD = 1


class DaemonScheduler:
    """Hysteresis gate between query pressure and maintenance work."""

    def __init__(
        self,
        config: QosConfig,
        stats: Optional[QosStats] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else QosStats()
        self._admission = admission
        self._lock = threading.Lock()
        self._breakers: List[CircuitBreaker] = []
        self._fault_ledgers: List[FaultStats] = []
        self._throttled = False
        self._calm_streak = 0
        self._last_retries = 0

    def watch_breaker(self, breaker: CircuitBreaker) -> None:
        with self._lock:
            self._breakers.append(breaker)

    def watch_faults(self, faults: FaultStats) -> None:
        with self._lock:
            self._fault_ledgers.append(faults)

    def allow_maintenance(self) -> bool:
        """Gate one shard cycle or migration start.  Counts every decision."""
        backlog = self._admission.backlog_ns() if self._admission else 0
        with self._lock:
            breaker_open = any(
                b.state() is BreakerState.OPEN for b in self._breakers
            )
            retries_now = sum(f.retries for f in self._fault_ledgers)
            retry_delta = retries_now - self._last_retries
            self._last_retries = retries_now
            pressured = (
                backlog >= self.config.high_water_ns
                or breaker_open
                or retry_delta >= RETRY_DELTA_THRESHOLD
            )
            if not self._throttled:
                if pressured:
                    self._throttled = True
                    self._calm_streak = 0
                    self.stats.throttle_events += 1
                    self.stats.maintenance_throttled += 1
                    return False
                self.stats.maintenance_cycles += 1
                return True
            # Throttled: require sustained calm before releasing.
            calm = (
                backlog <= self.config.low_water_ns
                and not breaker_open
                and retry_delta == 0
            )
            if calm:
                self._calm_streak += 1
                if self._calm_streak >= self.config.release_after:
                    self._throttled = False
                    self._calm_streak = 0
                    self.stats.throttle_releases += 1
                    self.stats.maintenance_cycles += 1
                    return True
            else:
                self._calm_streak = 0
            self.stats.maintenance_throttled += 1
            return False


__all__ = ["DaemonScheduler"]
