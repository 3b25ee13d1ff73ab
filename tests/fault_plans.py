"""Fault universes derived from one seed, for the crash and fault suites.

``generate_fault_plan(seed)`` is the only source of randomness in a
universe: it draws a :class:`~repro.faults.plan.FaultPlan` from
``random.Random(seed)``, and executing the plan is pure table lookup, so
"seed 17" reproduces one failing universe on every run and every host.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List

from repro.faults.crash import CRASH_SITES
from repro.faults.plan import BitRot, FaultPlan, TornWrite, TransientFault

# How hostile a generated universe can get: at most this many of each
# fault, transient faults on shared ops up to ``MAX_OP_ORDINAL`` and crash
# triggers within a site's first ``MAX_HIT_ORDINAL`` hits.
MAX_CRASHES = 3
MAX_TORN_WRITES = 2
MAX_BIT_ROT = 2
MAX_TRANSIENT = 3
MAX_HIT_ORDINAL = 4
MAX_OP_ORDINAL = 400


def generate_fault_plan(seed: int) -> FaultPlan:
    """Derive a plan from ``seed`` alone (no ambient randomness).

    The ``MAX_*`` constants bound how hostile a universe can get;
    transient-fault ``failures`` stays strictly below the default retry budget
    (``MAX_ATTEMPTS = 4``) so injected blips are always
    absorbable -- give-ups are exercised by dedicated outage tests,
    not by the byte-identity property (where an op that errors out
    would be a legitimate failure, not a wrong answer).
    """
    rng = random.Random(seed)

    torn: List[TornWrite] = []
    used_persists: set = set()
    for _ in range(rng.randint(0, MAX_TORN_WRITES)):
        ordinal = rng.randint(1, 12)
        if ordinal in used_persists:
            continue
        used_persists.add(ordinal)
        torn.append(
            TornWrite(
                persist_ordinal=ordinal,
                keep_data_blocks=rng.randint(0, 3),
                drop_header=rng.random() < 0.5,
            )
        )

    rot: List[BitRot] = []
    for _ in range(rng.randint(0, MAX_BIT_ROT)):
        rot.append(
            BitRot(
                after_write_ordinal=rng.randint(1, 20),
                victim_index=rng.randint(0, 7),
                pos_seed=rng.randint(0, 1 << 30),
                xor_mask=rng.randint(1, 255),
            )
        )

    transient: List[TransientFault] = []
    used_ops: set = set()
    for _ in range(rng.randint(0, MAX_TRANSIENT)):
        ordinal = rng.randint(1, MAX_OP_ORDINAL)
        if ordinal in used_ops:
            continue
        used_ops.add(ordinal)
        transient.append(
            TransientFault(
                op_ordinal=ordinal,
                failures=rng.randint(1, 2),
            )
        )

    triggers: Dict[str, FrozenSet[int]] = {}
    for _ in range(rng.randint(0, MAX_CRASHES)):
        site = rng.choice(CRASH_SITES)
        ordinal = rng.randint(1, MAX_HIT_ORDINAL)
        triggers[site] = frozenset(triggers.get(site, frozenset()) | {ordinal})

    return FaultPlan(
        seed=seed,
        torn_writes=tuple(sorted(torn, key=lambda t: t.persist_ordinal)),
        bit_rot=tuple(rot),
        transient=tuple(sorted(transient, key=lambda t: t.op_ordinal)),
        crash_triggers=triggers,
    )


def describe_plan(plan: FaultPlan) -> str:
    """One line for failure messages: what this universe contains."""
    sites = {s: sorted(o) for s, o in sorted(plan.crash_triggers.items())}
    return (
        f"FaultPlan(seed={plan.seed}, torn={len(plan.torn_writes)}, "
        f"rot={len(plan.bit_rot)}, transient={len(plan.transient)}, "
        f"crashes={sites})"
    )
