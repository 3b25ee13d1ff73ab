"""Token-bucket admission control with per-query deadlines (ISSUE 7).

The controller sits in front of the cluster serving path
(``ShardedTable.point_query``/``query``/``ingest``) and decides, for
every arriving operation, one of three outcomes:

* **admit immediately** -- a token is available; the op runs now.
* **admit after queueing** -- the bucket is in deficit; the op is booked
  against future tokens and charged a deterministic simulated queueing
  delay (``queue_sim_ns`` on the :class:`~repro.storage.metrics.QosStats`
  ledger).  The bucket's token count goes negative, which *is* the queue:
  later arrivals see a deeper deficit and longer projected waits.
* **shed** -- the projected wait exceeds ``max_queue_ns``
  (:class:`~repro.qos.errors.Overloaded`) or the op's deadline
  (:class:`~repro.qos.errors.DeadlineExceeded`).  Nothing is charged; the
  refusal costs nothing, which is the point.

Time is split across two deterministic clocks.  The **arrival clock**
models offered load: the closed-loop driver calls :meth:`advance` to say
"this much simulated time passed between client requests", and tokens
refill against it.  The **work clock** (the shards' charged simulated
nanoseconds) measures how long an admitted query actually took; the
serving path (``ShardedTable._admitted``) compares the wait :meth:`admit`
booked plus that work against ``deadline_ns`` and counts a late
completion as one ``deadline_misses``.  Neither clock ever reads wall
time, so every admit/shed decision replays identically from the same
seed and schedule.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.qos.breaker import BreakerConfig
from repro.qos.errors import DeadlineExceeded, Overloaded
from repro.storage.metrics import QosStats


@dataclass(frozen=True)
class QosConfig:
    """Cluster overload-protection knobs (all times simulated ns).

    The defaults are calibrated against the simulated tier latencies
    (SSD read 80us, shared read 2ms): ``rate_per_sim_s`` of 20k ops/s
    means one token per 50us -- comfortable for cache-hit traffic,
    saturated the moment queries start missing to shared storage.
    """

    rate_per_sim_s: float = 20_000.0
    burst: float = 32.0
    max_queue_ns: int = 20_000_000  # 20 simulated ms of booked backlog
    deadline_ns: int = 50_000_000  # 50 simulated ms per query
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    # DaemonScheduler hysteresis: throttle maintenance when the admission
    # backlog crosses high_water_ns, release only after it has stayed
    # below low_water_ns (with no retry pressure) for release_after
    # consecutive gate checks.
    high_water_ns: int = 4_000_000
    low_water_ns: int = 500_000
    release_after: int = 2

    def __post_init__(self) -> None:
        if self.rate_per_sim_s <= 0:
            raise ValueError("rate_per_sim_s must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.max_queue_ns < 0 or self.deadline_ns <= 0:
            raise ValueError("queue/deadline bounds must be positive")

    @property
    def rate_per_ns(self) -> float:
        return self.rate_per_sim_s / 1_000_000_000.0


class AdmissionController:
    """Deterministic token bucket over the simulated arrival clock."""

    def __init__(
        self,
        config: QosConfig,
        stats: Optional[QosStats] = None,
        charge: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else QosStats()
        self._charge = charge
        self._rate_per_ns = config.rate_per_ns  # a property: read it once
        self._burst = float(config.burst)
        self._lock = threading.Lock()
        self.now_ns = 0  # the arrival clock: read without the lock
        self._last_refill_ns = 0
        self._tokens = self._burst

    def advance(self, delta_ns: int) -> None:
        """Advance the arrival clock: ``delta_ns`` of offered-load time."""
        if delta_ns < 0:
            raise ValueError("cannot advance the arrival clock backwards")
        with self._lock:
            self.now_ns += delta_ns

    def backlog_ns(self) -> int:
        """Projected queueing delay for the next arrival (the queue depth
        signal the :class:`~repro.qos.scheduler.DaemonScheduler` watches)."""
        with self._lock:
            self._refill_locked()
            deficit = max(0.0, 1.0 - self._tokens)
            return int(deficit / self._rate_per_ns)

    def _refill_locked(self) -> None:
        elapsed = self.now_ns - self._last_refill_ns
        if elapsed > 0:
            self._tokens = min(
                self._burst, self._tokens + elapsed * self._rate_per_ns
            )
            self._last_refill_ns = self.now_ns

    def admit(self) -> int:
        """Admit one operation (one token) and return the simulated ns it
        was booked to wait, or shed it with a typed error."""
        with self._lock:
            elapsed = self.now_ns - self._last_refill_ns
            if elapsed > 0:  # _refill_locked, inline
                self._tokens = min(
                    self._burst, self._tokens + elapsed * self._rate_per_ns
                )
                self._last_refill_ns = self.now_ns
            if self._tokens >= 1:
                self._tokens -= 1
                self.stats.admitted += 1
                return 0
            wait_ns = int((1 - self._tokens) / self._rate_per_ns)
            if wait_ns > self.config.max_queue_ns:
                self.stats.shed += 1
                raise Overloaded(wait_ns)
            if wait_ns > self.config.deadline_ns:
                self.stats.shed += 1
                self.stats.deadline_misses += 1
                raise DeadlineExceeded(self.config.deadline_ns, wait_ns)
            # Book the op against future tokens: the bucket goes negative,
            # deepening the queue the next arrival sees.
            self._tokens -= 1
            self.stats.admitted += 1
            self.stats.queue_sim_ns += wait_ns
        if self._charge is not None and wait_ns > 0:
            self._charge(wait_ns)
        return wait_ns


__all__ = ["AdmissionController", "QosConfig"]
