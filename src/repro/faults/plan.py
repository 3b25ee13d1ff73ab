"""Seeded fault plans: one integer reproduces one fault universe.

A :class:`FaultPlan` is the deterministic schedule that drives both the
storage-fault injector (:class:`~repro.faults.storage.FaultyTier`) and
the process-crash schedule (:class:`~repro.faults.crash.CrashSchedule`).
All randomness happens at generation time, from one
``random.Random(seed)`` -- execution is pure table lookup, so the same
seed over the same workload produces byte-identical fault behaviour on
every run and every host.  That is what lets the property suite shrink a
failing universe to "seed 17"; it derives each plan from its seed with
``tests/fault_plans.py``.

Fault taxonomy (docs/architecture.md has the table):

* :class:`TornWrite` -- a multi-block run persist stops partway: some
  data blocks (and optionally the header) silently never reach shared
  storage.  Models a process dying mid-upload.  Targeted by *persist
  ordinal* (the Nth run-persist the tier observes).
* :class:`BitRot` -- one byte of an already-stored data block is
  XOR-flipped after the write completes.  Models media corruption; the
  v3 per-block CRC32 must detect it during recovery validation.
* :class:`TransientFault` -- the Nth shared-storage operation raises
  :class:`TransientIOError` ``failures`` consecutive times before
  succeeding.  Models network blips; the hierarchy's
  retry budget (:data:`~repro.storage.retry.MAX_ATTEMPTS`) must absorb it.
* :class:`BrownoutWindow` -- a *window* of elevated transient-error
  rates: many failure bursts packed into a span of consecutive ops, some
  long enough to exhaust the retry budget.  Models a shared-storage
  service browning out; the qos circuit breaker (ISSUE 7) must trip and
  queries must degrade instead of erroring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

# A generated brownout: each healthy op starts a failure burst with this
# probability, of a length uniform in [min, max] ops.
BROWNOUT_ERROR_RATE = 0.4
BROWNOUT_MIN_BURST = 2
BROWNOUT_MAX_BURST = 6


@dataclass(frozen=True)
class TornWrite:
    """Tear the ``persist_ordinal``-th run persist (1-based).

    ``keep_data_blocks`` data blocks land before the tear; when
    ``drop_header`` the header block (ordinal 0) is also lost, which is
    the "no header -> run invisible to recovery" arm of section 5.5.
    """

    persist_ordinal: int
    keep_data_blocks: int
    drop_header: bool


@dataclass(frozen=True)
class BitRot:
    """Flip one byte of a stored data block.

    Fires after the ``after_write_ordinal``-th data-block write to a run
    namespace; ``victim_index`` picks which already-stored data block of
    that namespace rots (modulo the count), ``pos_seed`` picks the byte
    offset (modulo the payload length) and ``xor_mask`` is the non-zero
    flip.  Headers are never rotted: the header carries no self-checksum
    (its integrity story is the journal + decode validation), so header
    rot would be indistinguishable from a format bug rather than a
    detectable data fault.
    """

    after_write_ordinal: int
    victim_index: int
    pos_seed: int
    xor_mask: int


@dataclass(frozen=True)
class TransientFault:
    """Make the ``op_ordinal``-th shared-storage op (1-based, reads and
    writes counted together) fail ``failures`` times before succeeding."""

    op_ordinal: int
    failures: int


@dataclass(frozen=True)
class BrownoutWindow:
    """A seeded window of elevated transient-error rates (ISSUE 7).

    The window spans ``length_ops`` consecutive shared-storage operations;
    ``failing_offsets`` lists the 0-based op offsets *within the window*
    that raise :class:`TransientIOError`, pregenerated from the seed as
    bursts of consecutive failing ops so execution stays pure table
    lookup.  Unlike :class:`TransientFault`, bursts may exceed the
    default retry budget (``MAX_ATTEMPTS = 4``): an
    unprotected client gives up mid-window, which is precisely the
    behaviour the circuit breaker exists to prevent.  The window ends
    crisply -- op ``length_ops`` onward is healthy again.

    A window is opened by
    :meth:`~repro.faults.storage.FaultyTier.start_brownout`, anchored at
    the tier's next operation, so a bench can open a brownout "now"
    without knowing absolute op counts.  No :class:`FaultPlan` carries
    one: bursts past the retry budget would break the byte-identity
    property suite.
    """

    length_ops: int
    failing_offsets: Tuple[int, ...]

    @staticmethod
    def generate(seed: int, length_ops: int = 120) -> "BrownoutWindow":
        """Derive a relative window from ``seed`` alone.

        Walking the window, each healthy op starts a failure burst with
        probability :data:`BROWNOUT_ERROR_RATE`; burst lengths are uniform
        in ``[BROWNOUT_MIN_BURST, BROWNOUT_MAX_BURST]`` consecutive ops.  A
        majority of the window's ops fail and some bursts exceed the
        retry budget -- a hostile but bounded storm.
        """
        rng = random.Random(seed)
        failing: List[int] = []
        offset = 0
        while offset < length_ops:
            if rng.random() < BROWNOUT_ERROR_RATE:
                burst = rng.randint(BROWNOUT_MIN_BURST, BROWNOUT_MAX_BURST)
                failing.extend(
                    o for o in range(offset, offset + burst) if o < length_ops
                )
                offset += burst
            else:
                offset += 1
        return BrownoutWindow(length_ops, tuple(failing))


@dataclass
class FaultPlan:
    """Everything one seed decided: storage faults + crash schedule."""

    seed: int
    torn_writes: Tuple[TornWrite, ...] = ()
    bit_rot: Tuple[BitRot, ...] = ()
    transient: Tuple[TransientFault, ...] = ()
    crash_triggers: Dict[str, FrozenSet[int]] = field(default_factory=dict)


__all__ = [
    "BitRot",
    "BrownoutWindow",
    "FaultPlan",
    "TornWrite",
    "TransientFault",
]
