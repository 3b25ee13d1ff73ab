"""Per-zone run lists with lock-free readers (paper section 5.1).

"Umzi relies on atomic pointers and chains runs in each zone together into
a linked list, where the header points to the most recent run.  All
maintenance operations are carefully designed so that each index
modification, i.e., a pointer modification, always results in a valid state
of the index."

The reproduction keeps that property with one immutable tuple per zone,
newest first, instead of a linked chain of atomic ``next`` pointers.
Every mutation builds the next tuple under a mutator-only lock and
publishes it with a *single reference assignment* -- atomic for readers
under CPython, the Python analogue of the paper's one pointer swing.  A
reader makes one read of that reference, so it sees a whole, valid
publication: never a half-applied ``replace`` (old span *and* merged run)
and never a broken list.  "These locks never block any index queries."

Each publication then calls ``on_publish`` under the mutation lock, where
the run lifecycle (:mod:`repro.core.epoch`) bumps its version sequence.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.run import IndexRun


class RunListError(RuntimeError):
    """Structural misuse of a run list (bad splice targets, etc.)."""


class RunList:
    """A zone's runs, newest first: one immutable tuple, swapped whole."""

    def __init__(
        self, name: str, on_publish: Optional[Callable[[], object]] = None
    ) -> None:
        self.name = name
        # Mutator-only lock; readers never touch it.
        self._mutation_lock = threading.Lock()
        # The published runs, replaced (never mutated) by one assignment.
        self._runs: Tuple[IndexRun, ...] = ()
        # Publication hook (the run lifecycle's version/stats stamp).
        self.on_publish = on_publish

    # -- reader side (lock-free) ------------------------------------------------

    def snapshot(self) -> List[IndexRun]:
        """Point-in-time copy of the list (one atomic reference read)."""
        return list(self._runs)

    def __len__(self) -> int:
        return len(self._runs)

    def __contains__(self, run_id: str) -> bool:
        return any(run.run_id == run_id for run in self._runs)

    # -- mutator side -----------------------------------------------------------

    def push_front(self, run: IndexRun) -> None:
        """Add the newest run (index build, paper section 5.2)."""
        with self._mutation_lock:
            self._publish_locked((run,) + self._runs)

    def replace(self, old_run_ids: Sequence[str], new_run: IndexRun) -> None:
        """Replace a *contiguous* span of runs with one merged run (Fig. 4).

        A reader sees either the old span or the merged run in its place.
        """
        if not old_run_ids:
            raise RunListError("replace() needs at least one run to replace")
        wanted = list(old_run_ids)
        with self._mutation_lock:
            runs = self._runs
            ids = [run.run_id for run in runs]
            start = ids.index(wanted[0]) if wanted[0] in ids else len(ids)
            end = start + len(wanted)
            if ids[start:end] != wanted:
                raise RunListError(
                    f"runs {wanted} are not a contiguous span of list "
                    f"{self.name}"
                )
            self._publish_locked(runs[:start] + (new_run,) + runs[end:])

    def remove_where(self, predicate: Callable[[IndexRun], bool]) -> List[IndexRun]:
        """Unlink every run matching ``predicate`` in one publication."""
        kept: List[IndexRun] = []
        removed: List[IndexRun] = []
        with self._mutation_lock:
            for run in self._runs:
                (removed if predicate(run) else kept).append(run)
            if removed:
                self._publish_locked(tuple(kept))
        return removed

    def clear(self) -> None:
        with self._mutation_lock:
            self._publish_locked(())

    def rebuild(self, runs_newest_first: Sequence[IndexRun]) -> None:
        """Recovery path: install a whole new list in one publication."""
        with self._mutation_lock:
            self._publish_locked(tuple(runs_newest_first))

    # -- internals ---------------------------------------------------------------

    def _publish_locked(self, runs: Tuple[IndexRun, ...]) -> None:
        self._runs = runs  # the one atomic publication
        if self.on_publish is not None:
            self.on_publish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ids = [run.run_id for run in self._runs]
        return f"RunList({self.name}: {' -> '.join(ids) or 'empty'})"


__all__ = ["RunList", "RunListError"]
