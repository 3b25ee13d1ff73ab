"""Per-tier circuit breaker on the simulated clock (ISSUE 7).

The retry budget of :mod:`repro.storage.retry` handles *isolated* transient
errors well: back off, retry, succeed.  During a storage brownout --
a sustained window of elevated error rates -- retrying is actively
harmful: every query burns its full retry budget (and its caller's
deadline) against a tier that is known to be failing.  The classic remedy
is a circuit breaker:

* **CLOSED** -- normal operation; consecutive failures are counted.
* **OPEN** -- after ``failure_threshold`` consecutive failures the breaker
  trips: every operation fails fast with
  :class:`~repro.storage.retry.StorageBrownout` without touching the
  tier, for ``open_ns`` simulated nanoseconds.
* **HALF_OPEN** -- after the open window the next operations are let
  through as *probes*; :data:`PROBE_SUCCESSES` consecutive successes close
  the breaker, any failure re-opens it.

All timing runs on a caller-supplied simulated clock (a ``() -> int``
nanosecond callable), so breaker decisions are deterministic and
reproducible from the fault plan's seed.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from repro.storage.metrics import QosStats
from repro.storage.retry import StorageBrownout

# Consecutive successful half-open probes that close the breaker.
PROBE_SUCCESSES = 2


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery thresholds for one tier's circuit breaker.

    ``failure_threshold`` is deliberately set *below* the default
    :data:`~repro.storage.retry.MAX_ATTEMPTS` (3 < 4): a
    brownout burst long enough to exhaust the retry budget trips the
    breaker *mid-loop*, so the operation surfaces as a typed
    ``StorageBrownout`` (degradable) rather than a bare retry giveup.
    """

    failure_threshold: int = 3
    open_ns: int = 50_000_000  # 50 simulated ms; ~ a brownout breather

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.open_ns < 0:
            raise ValueError("open_ns must be non-negative")


class CircuitBreaker:
    """Thread-safe closed/open/half-open breaker for one storage tier.

    ``recorded_state`` is the state as last written.  Read without the
    lock it is exact while CLOSED (nothing lapses out of CLOSED);
    :meth:`state` applies the lazy OPEN -> HALF_OPEN lapse.
    """

    def __init__(
        self,
        tier: str,
        config: BreakerConfig,
        clock: Callable[[], int],
        stats: Optional[QosStats] = None,
    ) -> None:
        self.tier = tier
        self.config = config
        self._clock = clock
        self._stats = stats if stats is not None else QosStats()
        self._lock = threading.Lock()
        self.recorded_state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at_ns = 0
        self._probe_successes = 0

    @property
    def stats(self) -> QosStats:
        return self._stats

    def state(self) -> BreakerState:
        """Current state, applying the lazy OPEN -> HALF_OPEN transition
        (CLOSED is one enum read and takes no lock, like :meth:`check`)."""
        if self.recorded_state is BreakerState.CLOSED:
            return BreakerState.CLOSED
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> BreakerState:
        if (
            self.recorded_state is BreakerState.OPEN
            and self._clock() >= self._opened_at_ns + self.config.open_ns
        ):
            self.recorded_state = BreakerState.HALF_OPEN
            self._probe_successes = 0
        return self.recorded_state

    def check(self) -> None:
        """Raise :class:`StorageBrownout` if operations must fail fast.

        CLOSED lets everything through; HALF_OPEN lets operations through
        as probes (counted); OPEN fails fast without touching the tier.
        CLOSED takes no lock: a trip landing just after the read lets this
        one operation through, as if it had taken the lock first.
        """
        if self.recorded_state is BreakerState.CLOSED:
            return
        with self._lock:
            state = self._state_locked()
            if state is BreakerState.OPEN:
                self._stats.breaker_fast_fails += 1
                raise StorageBrownout(
                    self.tier, self._opened_at_ns + self.config.open_ns
                )
            if state is BreakerState.HALF_OPEN:
                self._stats.breaker_probes += 1

    def record_success(self) -> None:
        # CLOSED with no failure counted: nothing to clear, nothing to lock.
        if (
            self.recorded_state is BreakerState.CLOSED
            and not self._consecutive_failures
        ):
            return
        with self._lock:
            state = self._state_locked()
            if state is BreakerState.HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= PROBE_SUCCESSES:
                    self.recorded_state = BreakerState.CLOSED
                    self._consecutive_failures = 0
                    self._stats.breaker_closes += 1
            elif state is BreakerState.CLOSED:
                self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            state = self._state_locked()
            if state is BreakerState.HALF_OPEN:
                self._trip_locked()
            elif state is BreakerState.CLOSED:
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.config.failure_threshold:
                    self._trip_locked()

    def _trip_locked(self) -> None:
        self.recorded_state = BreakerState.OPEN
        self._opened_at_ns = self._clock()
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._stats.breaker_opens += 1


__all__ = ["BreakerConfig", "BreakerState", "CircuitBreaker"]
