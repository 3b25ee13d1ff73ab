"""Property: the bound-row storage layer moves every counter the old one did.

``tests/reference_storage.py`` keeps the storage layer as it was before
the tier fold (a locked dict per tier, ``setdefault(tier, TierStats())``
per charge, ``would_fit``-then-``write``, twin retry loops, a breaker that
locks on every check, one ``drop_from_cache`` per block).  Hypothesis
drives the same random sequence of hierarchy calls through it and through
``src/`` -- unbounded and bounded SSD, transient faults and a brownout
window behind an attached breaker -- and after every step the two must
agree on what the call returned or raised, on every tier row, on the
simulated clock, on the per-intent, fault and breaker counters, and on
which blocks each tier holds.  The running ``used_bytes`` of each ``src/``
tier is checked against the sum over its blocks on the way.
"""

from hypothesis import example, given, settings, strategies as st

from repro.faults.plan import BrownoutWindow, FaultPlan, TransientFault
from repro.faults.storage import FaultyTier
from repro.qos.breaker import BreakerConfig, CircuitBreaker
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats, ReadIntent
from repro.storage.ssd import SSDTier

from tests.reference_storage import (
    ReferenceBreaker,
    ReferenceFaultyShared,
    ReferenceHierarchy,
)
from tests.conftest import intent_snapshot

PERSISTED = ("run-a", "run-b")  # namespaces written through shared storage
LOCAL = "mem"  # cached-only writes: never the same id as a persisted block
ORDINALS = range(2)  # few ids: sequences revisit the same block
RUN_PREFIX = "run"

persisted_ids = st.builds(BlockId, st.sampled_from(PERSISTED), st.sampled_from(ORDINALS))
local_ids = st.builds(BlockId, st.just(LOCAL), st.sampled_from(ORDINALS))
any_ids = st.one_of(persisted_ids, local_ids)
sizes = st.integers(min_value=1, max_value=48)
intents = st.sampled_from([None, ReadIntent.QUERY, ReadIntent.MAINTENANCE])

operations = st.one_of(
    st.tuples(st.just("write_persisted"), persisted_ids, sizes, st.booleans()),
    st.tuples(st.just("write_cached_only"), local_ids, sizes),
    st.tuples(st.just("read"), any_ids, intents),
    st.tuples(st.just("read_shared"), persisted_ids),
    st.tuples(st.just("load_into_cache"), persisted_ids),
    st.tuples(st.just("drop"), st.lists(any_ids, max_size=5)),
    st.tuples(st.just("delete_namespace"), st.sampled_from(PERSISTED + (LOCAL,))),
    st.tuples(st.just("crash_local_tiers")),
    st.tuples(st.just("brownout"), st.integers(0, 10_000)),
    st.tuples(st.just("reset")),
)

fault_plans = st.builds(
    lambda faults: plan_of(faults),
    st.dictionaries(st.integers(1, 60), st.integers(1, 5), max_size=6),
)


def build_pair(ssd_capacity, plan):
    """(the ``src/`` hierarchy, the reference one) over the same plan."""
    stats = IOStats()
    new = StorageHierarchy(
        ssd=SSDTier(ssd_capacity),
        shared=FaultyTier(plan, RUN_PREFIX),
        stats=stats,
    )
    new.attach_shared_breaker(
        CircuitBreaker(
            "shared", BreakerConfig(), lambda: stats.total_sim_ns, stats.qos
        )
    )
    old = ReferenceHierarchy(ssd_capacity)
    old.shared = ReferenceFaultyShared(plan, RUN_PREFIX, old.stats)
    old.attach_shared_breaker(
        ReferenceBreaker(
            "shared", BreakerConfig(), lambda: old.stats.total_sim_ns, old.stats.qos
        )
    )
    return new, old


def apply(hierarchy, op, batched_drop):
    """Run one operation; what it returned, or the type it raised."""
    kind, args = op[0], op[1:]
    try:
        if kind == "write_persisted":
            block_id, size, through = args
            return hierarchy.write_persisted(Block(block_id, bytes(size)), through)
        if kind == "write_cached_only":
            block_id, size = args
            return hierarchy.write_cached_only(Block(block_id, bytes(size)))
        if kind == "read":
            block_id, intent = args
            if intent is None:  # the default
                return hierarchy.read(block_id)
            return hierarchy.read(block_id, intent=intent)
        if kind == "drop":
            if batched_drop:
                return hierarchy.drop_from_cache(args[0])
            # the old per-block drop; the same blocks answer "was held"
            return len({bid for bid in args[0] if hierarchy.drop_from_cache(bid)})
        if kind == "brownout":
            window = BrownoutWindow.generate(args[0], length_ops=12)
            return hierarchy.shared.start_brownout(window)
        if kind == "reset":
            return hierarchy.stats.reset()
        return getattr(hierarchy, kind)(*args)
    except Exception as error:  # compared by type: both sides must raise alike
        return type(error)


def observable(hierarchy):
    stats = hierarchy.stats
    qos = stats.qos
    return {
        "tiers": stats.snapshot(),
        "total_sim_ns": stats.total_sim_ns,
        "intents": intent_snapshot(stats),
        "faults": stats.faults.snapshot(),
        "breaker": (
            qos.breaker_opens, qos.breaker_closes,
            qos.breaker_probes, qos.breaker_fast_fails,
        ),
        "resident": {
            tier.name.value: sorted(tier.block_ids())
            for tier in (hierarchy.memory, hierarchy.ssd, hierarchy.shared)
        },
    }


A0 = BlockId(PERSISTED[0], 0)


def plan_of(faults):
    return FaultPlan(
        seed=0,
        transient=tuple(
            TransientFault(op_ordinal=op, failures=n) for op, n in faults.items()
        ),
    )


@settings(max_examples=150, deadline=None)
# A maintenance shared hit admits nothing.
@example(
    ssd_capacity=None,
    plan=plan_of({}),
    ops=[("write_persisted", A0, 8, False), ("read", A0, ReadIntent.MAINTENANCE)],
)
# Two failures, a success, two failures: the success must clear the
# breaker's count (CLOSED, but not the lock-free case) or it trips at three.
# Maintenance reads admit nothing, so every one goes back to the shared tier.
@example(
    ssd_capacity=None,
    plan=plan_of({2: 2, 5: 2}),
    ops=[
        ("write_persisted", A0, 8, False),
        ("read", A0, ReadIntent.MAINTENANCE),
        ("read", A0, ReadIntent.MAINTENANCE),
        ("read", A0, ReadIntent.MAINTENANCE),
    ],
)
# A burst past the threshold opens the breaker: the next call fails fast.
@example(
    ssd_capacity=40,
    plan=plan_of({2: 5}),
    ops=[
        ("write_persisted", A0, 8, True),
        ("read_shared", A0),
        ("read_shared", A0),
        ("load_into_cache", A0),
    ],
)
# Rewriting a held memory block counts only the bytes it adds.
@example(
    ssd_capacity=40,
    plan=plan_of({}),
    ops=[
        ("write_cached_only", BlockId(LOCAL, 0), 30),
        ("write_cached_only", BlockId(LOCAL, 0), 32),
        ("write_cached_only", BlockId(LOCAL, 1), 9),
    ],
)
# A load the SSD has no room for reports False and admits nothing.
@example(
    ssd_capacity=0,
    plan=plan_of({}),
    ops=[("write_persisted", A0, 8, True), ("load_into_cache", A0)],
)
@given(
    ssd_capacity=st.sampled_from([None, 0, 40, 100]),
    plan=fault_plans,
    ops=st.lists(operations, min_size=1, max_size=40),
)
def test_every_counter_moves_as_it_did(ssd_capacity, plan, ops):
    new, old = build_pair(ssd_capacity, plan)
    for step, op in enumerate(ops):
        got = apply(new, op, batched_drop=True)
        expected = apply(old, op, batched_drop=False)
        assert got == expected, (step, op)
        assert observable(new) == observable(old), (step, op)
        for tier in (new.memory, new.ssd, new.shared):
            held = sum(len(block.payload) for block in tier._blocks.values())
            assert tier.used_bytes == held, (step, op, tier.name)
        if ssd_capacity is not None:
            assert new.ssd.used_bytes <= ssd_capacity
