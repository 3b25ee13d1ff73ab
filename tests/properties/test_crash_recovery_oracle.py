"""The ISSUE 6 headline property: byte-identical recovery.

Each seed derives one fault universe (torn run persists, bit rot,
transient I/O errors, process crashes at named sites) and one workload.
The workload is driven to completion through that universe -- every crash
loses all local state and recovers from shared storage, replaying
whatever recovery could not restore -- and the surviving index must
answer *exactly* like a never-crashed oracle replay of the same workload:
every point, batch, range, and AS-OF answer compared as raw entry blobs.

A second (and third) recovery must be a no-op: recovery is a fixpoint.

Counter-asserted throughout: injected transient errors are exactly
absorbed by retries (generated blips stay under the retry budget, so the
property run may never see a give-up), and any injected tear/rot that
fired is visible in the fault ledger.
"""

import pytest

from repro.core.definition import i1_definition
from tests.crash_harness import (
    CrashRecoveryDriver,
    collect_answers,
    generate_workload,
    run_oracle,
)
from tests.fault_plans import describe_plan, generate_fault_plan

SEEDS = range(24)


@pytest.fixture(scope="module")
def definition():
    return i1_definition()


@pytest.mark.parametrize("seed", SEEDS)
def test_recovery_is_byte_identical_to_oracle(definition, seed):
    workload = generate_workload(seed)
    plan = generate_fault_plan(seed)
    oracle = run_oracle(definition, workload)
    driver = CrashRecoveryDriver(definition, workload, plan=plan)
    result = driver.run()

    context = describe_plan(plan)
    assert result.answers == oracle.answers, context

    # Recovery idempotence: recovering the already-recovered store again
    # deletes nothing and changes no answer.
    state = driver.recover_again()
    assert state.deleted_run_ids == [], context
    assert state.incomplete_run_ids == [], context
    assert collect_answers(driver.index, workload) == oracle.answers, context

    # counter-asserted: every injected transient error was absorbed by
    # exactly one retry (plans keep failures under the attempt budget;
    # give-ups belong to dedicated outage tests, never to this property).
    faults = driver.hierarchy.stats.faults
    transient_errors = faults.transient_read_errors + faults.transient_write_errors
    assert faults.retries == transient_errors, context
    assert faults.read_giveups + faults.write_giveups == 0, context
    # Every crash the schedule fired was survived (crashes == recoveries
    # during the driven phase; the final clean restart adds one more).
    expected_recoveries = result.crashes + (1 if plan is not None else 0)
    assert result.recoveries == expected_recoveries, context


def test_seeds_cover_every_fault_kind(definition):
    """The seed range must actually exercise the taxonomy: across all
    universes at least one tear, one bit flip, one transient error, one
    crash, and one post-recovery replay must fire, or the property above
    is vacuously green."""
    fired = dict(tears=0, flips=0, transients=0, crashes=0, replays=0)
    for seed in SEEDS:
        workload = generate_workload(seed)
        driver = CrashRecoveryDriver(
            definition, workload, plan=generate_fault_plan(seed)
        )
        result = driver.run()
        faults = driver.hierarchy.stats.faults
        fired["tears"] += faults.torn_writes
        fired["flips"] += faults.bit_flips
        fired["transients"] += (
            faults.transient_read_errors + faults.transient_write_errors
        )
        fired["crashes"] += result.crashes
        fired["replays"] += result.replayed_ingests + result.replayed_evolves
    assert all(count > 0 for count in fired.values()), fired
