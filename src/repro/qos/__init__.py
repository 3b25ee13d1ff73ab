"""Overload protection for cluster serving (ISSUE 7).

Three cooperating mechanisms, all on the simulated clock:

* :mod:`repro.qos.admission` -- token-bucket admission control with
  per-query deadlines in front of the cluster serving path.
* :mod:`repro.qos.scheduler` -- maintenance backpressure: a hysteresis
  gate that throttles groom/merge/evolve when query load spikes.
* :mod:`repro.qos.breaker` -- per-tier circuit breakers that fail fast
  during storage brownouts so queries can degrade to local tiers instead
  of burning retry budgets.

Everything lands on the :class:`~repro.storage.metrics.QosStats` ledger
(``IOStats.qos``), so protection is counter-asserted, not hoped for.
"""

from repro.qos.admission import AdmissionController, QosConfig
from repro.qos.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.qos.errors import (
    DeadlineExceeded,
    Overloaded,
    PartialResultError,
    QosError,
)
from repro.qos.scheduler import DaemonScheduler

__all__ = [
    "AdmissionController",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "DaemonScheduler",
    "DeadlineExceeded",
    "Overloaded",
    "PartialResultError",
    "QosConfig",
    "QosError",
]
