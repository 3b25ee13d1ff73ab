"""The entry-based evolve, kept as the oracle for the streaming one.

Until the streaming evolve became the only door, an evolve could also be
handed the post-groomed :class:`IndexEntry` list itself: step 1 built the
new run with ``RunBuilder.build`` from those entries, decoding nothing
from the groomed runs but materializing one object per migrated version.
Steps 2 and 3 (watermark, garbage collection, checkpoint) were shared.
It lives on here, out of ``src/``, as the reference a streaming evolve
over the same versions must match byte for byte.
"""

from typing import Iterable

from repro.core.entry import IndexEntry, Zone
from repro.core.evolve import EvolveController, EvolveResult
from repro.faults.crash import crash_point


def reference_evolve(
    ctrl: EvolveController,
    psn: int,
    entries: Iterable[IndexEntry],
    min_groomed_id: int,
    max_groomed_id: int,
) -> EvolveResult:
    """``EvolveController.evolve(psn, entries, ...)`` as it was."""
    with ctrl._lock:
        ctrl._check_psn(psn)
        level = ctrl.config.first_post_groomed_level
        run = ctrl.builder.build(
            run_id=ctrl.allocator.allocate(Zone.POST_GROOMED),
            entries=entries,
            zone=Zone.POST_GROOMED,
            level=level,
            min_groomed_id=min_groomed_id,
            max_groomed_id=max_groomed_id,
            persisted=True,
            write_through_ssd=ctrl._write_through(level),
        )
        crash_point("evolve.pre_publish")
        ctrl.run_lists[Zone.POST_GROOMED].push_front(run)
        return ctrl._steps_2_and_3(psn, run, max_groomed_id)
