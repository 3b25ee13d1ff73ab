"""Typed errors for the overload-protection layer (ISSUE 7).

Shedding is not failure: a shed query was *refused*, cheaply and
deliberately, so the queries that were admitted could finish on time.
These exceptions make the refusal typed -- callers can distinguish "the
cluster is protecting itself" (:class:`Overloaded`,
:class:`DeadlineExceeded`) from "a shard actually broke"
(:class:`PartialResultError`) and react accordingly (back off, retry
later, accept the partial answer).
"""

from __future__ import annotations

from typing import Optional, Tuple


class QosError(Exception):
    """Base class for admission-control and deadline errors."""


class Overloaded(QosError):
    """The admission queue is full: the query was shed at the front door.

    ``retry_after_ns`` is the simulated delay after which the token bucket
    would have capacity again -- the value a real server would put in a
    ``Retry-After`` header.
    """

    def __init__(self, retry_after_ns: int) -> None:
        super().__init__(
            f"admission queue full; retry after {retry_after_ns} simulated ns"
        )
        self.retry_after_ns = retry_after_ns


class DeadlineExceeded(QosError):
    """The query could not (or did not) finish within its deadline.

    Raised at admission time when the projected queueing delay alone
    already exceeds the deadline -- doing the work would only waste
    capacity on an answer the client has stopped waiting for.
    """

    def __init__(self, deadline_ns: int, projected_ns: int) -> None:
        super().__init__(
            f"deadline {deadline_ns}ns exceeded "
            f"(projected {projected_ns}ns)"
        )
        self.deadline_ns = deadline_ns
        self.projected_ns = projected_ns


class PartialResultError(QosError):
    """A scatter-gather query lost one or more shards to a storage giveup.

    Carries the surviving shards' rows (``partial``) and the identities of
    the shards whose retry budget (:data:`~repro.storage.retry.MAX_ATTEMPTS`) ran
    out (``failed_shards``), instead of propagating a bare
    ``TransientIOError`` that names no shard at all.

    ``epoch`` (ISSUE 8) tags the routing epoch the query was served
    under: during an online shard split a partial answer is only
    interpretable relative to the :class:`~repro.wildfire.shardmap
    .ShardMap` that decided which shards were consulted, so the serving
    epoch travels with the error.  ``None`` when no routing epochs are in
    play (single-table callers).
    """

    def __init__(
        self,
        failed_shards: Tuple[int, ...],
        partial: Tuple[object, ...] = (),
        cause: Optional[BaseException] = None,
        epoch: Optional[int] = None,
    ) -> None:
        shards = ", ".join(str(s) for s in failed_shards)
        suffix = f" (routing epoch {epoch})" if epoch is not None else ""
        super().__init__(
            f"shard(s) {shards} unavailable after retry giveup; "
            f"{len(partial)} partial row(s) gathered{suffix}"
        )
        self.failed_shards = failed_shards
        self.partial = partial
        self.cause = cause
        self.epoch = epoch


__all__ = [
    "DeadlineExceeded",
    "Overloaded",
    "PartialResultError",
    "QosError",
]
