"""Transient-fault classification and retry/backoff policy (ISSUE 6).

Shared storage is a remote, distributed service: writes and reads can fail
*transiently* (a datanode hiccup, a network blip) without the block being
lost.  The paper's recovery story (section 5.5) only covers hard crashes;
production shared-storage clients additionally retry transient errors with
capped exponential backoff.  This module defines the storage-layer half of
that contract:

* :class:`TransientIOError` -- the retryable error class.  The fault
  injector (``repro.faults``) raises it; real adapters would translate
  their SDK's retryable error codes into it.
* :data:`MAX_ATTEMPTS` and :func:`backoff_ns` -- capped exponential
  backoff, expressed on the *simulated* clock (nanoseconds charged to the
  tier ledger, never ``time.sleep``), so retry behaviour is deterministic
  and assertable.

:class:`~repro.storage.hierarchy.StorageHierarchy` wraps every shared-tier
read/write in a retry loop driven by these and counts retries and
give-ups per read intent (``IntentStats``) and in the aggregate fault
ledger (``FaultStats``).
"""

from __future__ import annotations

# Attempts per shared-storage operation, the first one included.
MAX_ATTEMPTS = 4
# Attempt ``n`` failing waits ``backoff_ns(n)`` simulated ns before attempt
# ``n + 1``: the delay doubles from one simulated ms (~ one shared read) up
# to the cap.
BASE_DELAY_NS = 1_000_000
MULTIPLIER = 2
MAX_DELAY_NS = 16_000_000


class TransientIOError(IOError):
    """A retryable shared-storage failure (the op may succeed if retried).

    Distinct from :class:`~repro.storage.hierarchy.BlockNotFoundError`
    (the block is definitively absent) and from
    :class:`~repro.storage.shared.SharedStorageError` (a semantic
    violation): a transient error says nothing about the block at all.
    """


class StorageBrownout(TransientIOError):
    """A shared-tier operation rejected because its circuit breaker is open.

    Raised *without* touching the tier: once
    :class:`~repro.qos.breaker.CircuitBreaker` has tripped, further
    operations fail fast instead of burning the retry budget against a
    storage service that is known to be browning out.  Subclasses
    :class:`TransientIOError` because the condition is transient -- the
    breaker re-probes after its open window -- but callers that care (the
    cluster serving path) can distinguish it and degrade to local tiers
    instead of erroring.
    """

    def __init__(self, tier: str, retry_at_ns: int) -> None:
        super().__init__(
            f"{tier} breaker open; retry at simulated t={retry_at_ns}ns"
        )
        self.tier = tier
        self.retry_at_ns = retry_at_ns


def backoff_ns(attempt: int) -> int:
    """Simulated-ns delay after failed attempt ``attempt`` (1-based)."""
    return min(BASE_DELAY_NS * MULTIPLIER ** (attempt - 1), MAX_DELAY_NS)


__all__ = [
    "BASE_DELAY_NS",
    "MAX_ATTEMPTS",
    "MAX_DELAY_NS",
    "MULTIPLIER",
    "StorageBrownout",
    "TransientIOError",
    "backoff_ns",
]
