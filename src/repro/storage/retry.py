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
* :class:`RetryPolicy` -- capped exponential backoff, expressed on the
  *simulated* clock (nanoseconds charged to the tier ledger, never
  ``time.sleep``), so retry behaviour is deterministic and assertable.

:class:`~repro.storage.hierarchy.StorageHierarchy` wraps every shared-tier
read/write in a retry loop driven by this policy and counts retries and
give-ups per read intent (``IntentStats``) and in the aggregate fault
ledger (``FaultStats``).
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for transient shared-storage errors.

    ``max_attempts`` bounds total tries (first attempt included); attempt
    ``n`` failing waits ``backoff_ns(n)`` simulated nanoseconds before
    attempt ``n+1``.  The delay doubles per attempt (``multiplier``) from
    ``base_delay_ns`` up to the ``max_delay_ns`` cap -- the standard
    shape, made deterministic by running on the simulated clock.
    """

    max_attempts: int = 4
    base_delay_ns: int = 1_000_000  # 1 simulated ms, ~ one shared read
    multiplier: float = 2.0
    max_delay_ns: int = 16_000_000

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_ns < 0 or self.max_delay_ns < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")

    def backoff_ns(self, attempt: int) -> int:
        """Simulated-ns delay after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = self.base_delay_ns * (self.multiplier ** (attempt - 1))
        return int(min(delay, self.max_delay_ns))


DEFAULT_RETRY_POLICY = RetryPolicy()


__all__ = [
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
    "StorageBrownout",
    "TransientIOError",
]
