"""Seeded fault injection for crash-recovery testing (ISSUE 6).

Public surface:

* :class:`FaultPlan` / :class:`TornWrite` / :class:`BitRot` /
  :class:`TransientFault` / :class:`BrownoutWindow` -- the seeded
  schedule (``plan``).
* :class:`FaultyTier` -- shared storage executing a plan (``storage``).
* :class:`CrashSchedule` / :func:`crash_point` /
  :func:`install_crash_schedule` / ``CRASH_SITES`` -- named process
  crash points (``crash``).
* :class:`SimulatedCrash` / :class:`TransientIOError` -- error types
  (``errors``; ``TransientIOError`` canonically lives in
  ``repro.storage.retry`` so the storage layer never imports this
  package).

The crash/recovery driver, its workload generator and the seeded plan
generator live with the suites that use them, in
``tests/crash_harness.py`` and ``tests/fault_plans.py``.
"""

from repro.faults.crash import (
    CRASH_SITES,
    CrashSchedule,
    crash_point,
    install_crash_schedule,
)
from repro.faults.errors import SimulatedCrash, TransientIOError
from repro.faults.plan import (
    BitRot,
    BrownoutWindow,
    FaultPlan,
    TornWrite,
    TransientFault,
)
from repro.faults.storage import FaultyTier

__all__ = [
    "BitRot",
    "BrownoutWindow",
    "CRASH_SITES",
    "CrashSchedule",
    "FaultPlan",
    "FaultyTier",
    "SimulatedCrash",
    "TornWrite",
    "TransientFault",
    "TransientIOError",
    "crash_point",
    "install_crash_schedule",
]
