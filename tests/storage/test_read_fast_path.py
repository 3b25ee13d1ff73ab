"""A query-path ``read`` whose first shared attempt fails.

``StorageHierarchy.read`` makes the first shared-storage attempt of a miss
itself, beside ``_shared_call`` rather than inside it, and hands a
``TransientIOError`` back to that loop.  The case where a shortcut would
lose something: the first shared read of a query-path ``read`` raises
while a CLOSED breaker with no failure counted is attached.  Against the
storage layer kept in ``tests/reference_storage.py`` -- for every burst
length, a breaker that trips before the retry budget runs out and one
that does not, and two retry budgets -- the read must raise or return
alike, and the retries, give-ups, backoff nanoseconds, the breaker's
state, failure count and counters and the ``IntentStats`` row must be
equal, on the failing read and on the read after it.
"""

import pytest

from repro.faults.plan import FaultPlan, TransientFault
from repro.faults.storage import FaultyTier
from repro.qos.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats
from repro.storage import retry
from repro.storage.retry import StorageBrownout, TransientIOError, backoff_ns

from tests.reference_storage import (
    ReferenceBreaker,
    ReferenceFaultyShared,
    ReferenceHierarchy,
)
from tests.conftest import intent_snapshot

BLOCK = BlockId("run-a", 1)
BREAKERS = {
    "trips-first": BreakerConfig(),  # 3 failures open it; the budget is 4
    "never-trips": BreakerConfig(failure_threshold=10),
}
ATTEMPTS = {"default": retry.MAX_ATTEMPTS, "no-retries": 1}


def hierarchies(failures, config):
    """(``src/``, reference) with the block persisted only in shared
    storage, and its first read -- shared op 2 -- failing ``failures``
    times."""
    plan = FaultPlan(seed=0, transient=(TransientFault(op_ordinal=2, failures=failures),))
    stats = IOStats()
    new = StorageHierarchy(shared=FaultyTier(plan, "run"), stats=stats)
    new.attach_shared_breaker(
        CircuitBreaker("shared", config, lambda: stats.total_sim_ns, stats.qos)
    )
    old = ReferenceHierarchy()
    old.shared = ReferenceFaultyShared(plan, "run", old.stats)
    old.attach_shared_breaker(ReferenceBreaker(
        "shared", config, lambda: old.stats.total_sim_ns, old.stats.qos
    ))
    for hierarchy in (new, old):
        hierarchy.write_persisted(Block(BLOCK, b"payload"), write_through_ssd=False)
    return new, old


def outcome(hierarchy):
    try:
        return hierarchy.read(BLOCK).payload
    except Exception as error:  # compared by type
        return type(error)


def observed(hierarchy):
    stats, breaker = hierarchy.stats, hierarchy._shared_breaker
    qos = stats.qos
    return {
        "tiers": stats.snapshot(),
        "total_sim_ns": stats.total_sim_ns,
        "intents": intent_snapshot(stats),
        "faults": stats.faults.snapshot(),
        "breaker": (
            breaker.recorded_state, breaker._consecutive_failures, qos.breaker_opens,
            qos.breaker_closes, qos.breaker_probes, qos.breaker_fast_fails,
        ),
        "ssd": sorted(hierarchy.ssd.block_ids()),
    }


@pytest.mark.parametrize("attempts", ATTEMPTS.values(), ids=ATTEMPTS.keys())
@pytest.mark.parametrize("config", BREAKERS.values(), ids=BREAKERS.keys())
@pytest.mark.parametrize("failures", [1, 2, 3, 4, 5])
def test_a_failed_first_shared_attempt_is_counted_as_before(
    failures, config, attempts, monkeypatch
):
    monkeypatch.setattr(retry, "MAX_ATTEMPTS", attempts)
    new, old = hierarchies(failures, config)
    breaker = new._shared_breaker
    assert breaker.recorded_state is BreakerState.CLOSED and not breaker._consecutive_failures
    for _ in range(2):  # the failing read, then the one after it
        assert outcome(new) == outcome(old)
        assert observed(new) == observed(old)


def test_the_counts_of_three_cases():
    """What the comparison above covers, spelled out: a retried success,
    a give-up under a CLOSED breaker and a mid-loop trip."""
    new, _ = hierarchies(1, BREAKERS["trips-first"])
    assert outcome(new) == b"payload"
    row = intent_snapshot(new.stats)["query"]
    assert (row.retries, row.giveups, row.shared_reads, row.promotions) == (1, 0, 1, 1)
    assert new.stats.faults.backoff_sim_ns == backoff_ns(1)
    assert new._shared_breaker._consecutive_failures == 0  # the success cleared it

    new, _ = hierarchies(4, BREAKERS["never-trips"])
    assert outcome(new) is TransientIOError
    row = intent_snapshot(new.stats)["query"]
    assert (row.retries, row.giveups, row.shared_reads) == (3, 1, 0)
    assert new.stats.faults.read_giveups == 1
    assert new.stats.faults.backoff_sim_ns == backoff_ns(1) + backoff_ns(2) + backoff_ns(3)
    assert new._shared_breaker._consecutive_failures == 4

    new, _ = hierarchies(4, BREAKERS["trips-first"])
    assert outcome(new) is StorageBrownout
    row = intent_snapshot(new.stats)["query"]
    assert (row.retries, row.giveups) == (3, 0)  # the fourth attempt failed fast
    assert new.stats.qos.breaker_fast_fails == 1
    assert new._shared_breaker.recorded_state is BreakerState.OPEN
