"""Per-zone run lists with lock-free readers (paper section 5.1).

"Umzi relies on atomic pointers and chains runs in each zone together into
a linked list, where the header points to the most recent run.  All
maintenance operations are carefully designed so that each index
modification, i.e., a pointer modification, always results in a valid state
of the index."

The reproduction keeps the same discipline.  Nodes are mutable, but every
mutation the list ever performs is a *single reference assignment* (either
the head pointer or one node's ``next`` pointer), which is atomic for
readers under CPython's memory model -- the Python analogue of the paper's
atomic pointers.  Readers traverse without any lock and always observe a
valid (possibly momentarily stale or duplicate-containing) list; mutators
serialize among themselves with a short-duration lock, exactly as in the
paper ("these locks never block any index queries").

On top of the linked chain every mutation also **publishes an immutable
tuple snapshot** (one atomic reference assignment of ``_published``).
:meth:`RunList.snapshot` reads that tuple, so a query's run collection is
a true point-in-time version of the list: a half-applied ``replace`` can
never surface as "old span *and* new run" the way a mid-mutation traversal
of the chain could.  The tuple is what the run lifecycle
(:mod:`repro.core.epoch`) pins; ``on_publish`` lets the lifecycle stamp
each publication with a version sequence number; the next pin or retire
composes the immutable ``RunListVersion`` and gives it a refcount, so
queries pin it with a single Ref instead of walking the runs.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.run import IndexRun


class RunListError(RuntimeError):
    """Structural misuse of a run list (bad splice targets, etc.)."""


class _Node:
    """Mutable singly-linked node.  ``next`` writes are single assignments."""

    __slots__ = ("run", "next")

    def __init__(self, run: IndexRun, next_node: Optional["_Node"]) -> None:
        self.run = run
        self.next = next_node


class RunList:
    """A zone's chain of runs, newest first."""

    def __init__(
        self, name: str, on_publish: Optional[Callable[[], object]] = None
    ) -> None:
        self.name = name
        self._head: Optional[_Node] = None
        # Mutator-only lock; readers never touch it.
        self._mutation_lock = threading.Lock()
        # Immutable (version, runs) snapshot republished as ONE atomic
        # reference assignment at the end of every mutation; what
        # snapshot() and the epoch lifecycle read.
        self._published: Tuple[int, Tuple[IndexRun, ...]] = (0, ())
        # Publication hook (the run lifecycle's version/stats stamp).
        self.on_publish = on_publish

    # -- reader side (lock-free) ------------------------------------------------

    def iter_runs(self) -> Iterator[IndexRun]:
        """Lock-free traversal, newest to oldest.

        The head reference is read once; every subsequent hop reads one
        ``next`` reference.  Because every mutation is a single atomic
        reference assignment that preserves list validity, the traversal
        sees a consistent chain no matter how it interleaves with
        concurrent maintenance.
        """
        node = self._head
        while node is not None:
            yield node.run
            node = node.next

    def snapshot(self) -> List[IndexRun]:
        """Point-in-time version of the list (one atomic tuple read).

        Unlike a chain traversal -- which can interleave with a concurrent
        ``replace`` and observe a momentarily duplicate-containing view --
        the published tuple is immutable, so the snapshot is torn-free by
        construction.
        """
        return list(self._published[1])

    def published(self) -> Tuple[int, Tuple[IndexRun, ...]]:
        """The current ``(version, runs)`` publication (one atomic read)."""
        return self._published

    @property
    def version(self) -> int:
        """Monotonic count of publications this list has made."""
        return self._published[0]

    def head_run(self) -> Optional[IndexRun]:
        node = self._head
        return node.run if node is not None else None

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_runs())

    def __contains__(self, run_id: str) -> bool:
        return any(run.run_id == run_id for run in self.iter_runs())

    # -- mutator side -----------------------------------------------------------

    def push_front(self, run: IndexRun) -> None:
        """Add the newest run (index build, paper section 5.2).

        "The new run must be set to point to the header before the header
        pointer is modified" -- same order here: the node is fully linked
        before the single head assignment publishes it.
        """
        with self._mutation_lock:
            node = _Node(run, self._head)
            self._head = node  # the one atomic publication
            self._publish_locked()

    def replace(self, old_run_ids: Sequence[str], new_run: IndexRun) -> None:
        """Replace a *contiguous* span of runs with one merged run (Fig. 4).

        Step 1: the new node's ``next`` is set to the successor of the last
        merged run (no reader can see the new node yet).  Step 2: a single
        assignment of the predecessor's ``next`` (or the head) swings
        traffic over.  Readers mid-span keep following the old chain, which
        still terminates correctly -- they may see old runs, never a broken
        list.
        """
        if not old_run_ids:
            raise RunListError("replace() needs at least one run to replace")
        wanted = list(old_run_ids)
        with self._mutation_lock:
            prev, first = self._find_span_start(wanted[0])
            # Walk the span verifying contiguity and order.
            node = first
            for expected in wanted:
                if node is None or node.run.run_id != expected:
                    raise RunListError(
                        f"runs {wanted} are not a contiguous span of list "
                        f"{self.name}"
                    )
                node = node.next
            successor = node
            new_node = _Node(new_run, successor)  # step 1 (private)
            if prev is None:
                self._head = new_node  # step 2 (atomic publication)
            else:
                prev.next = new_node  # step 2 (atomic publication)
            self._publish_locked()

    def remove(self, run_id: str) -> IndexRun:
        """Unlink one run (garbage collection after evolve, section 5.4).

        A single ``next`` (or head) reassignment; concurrent readers that
        already passed the predecessor simply finish traversing through the
        removed node, which still points into the live chain.
        """
        with self._mutation_lock:
            prev, node = self._find_span_start(run_id)
            if node is None:
                raise RunListError(f"run {run_id} not present in list {self.name}")
            if prev is None:
                self._head = node.next
            else:
                prev.next = node.next
            self._publish_locked()
            return node.run

    def remove_where(self, predicate: Callable[[IndexRun], bool]) -> List[IndexRun]:
        """Unlink every run matching ``predicate``; one atomic hop each."""
        removed: List[IndexRun] = []
        with self._mutation_lock:
            prev: Optional[_Node] = None
            node = self._head
            while node is not None:
                if predicate(node.run):
                    if prev is None:
                        self._head = node.next
                    else:
                        prev.next = node.next
                    removed.append(node.run)
                    node = node.next
                else:
                    prev = node
                    node = node.next
            if removed:
                self._publish_locked()
        return removed

    def clear(self) -> None:
        with self._mutation_lock:
            self._head = None
            self._publish_locked()

    def rebuild(self, runs_newest_first: Sequence[IndexRun]) -> None:
        """Recovery path: atomically install a whole new chain."""
        head: Optional[_Node] = None
        for run in reversed(list(runs_newest_first)):
            head = _Node(run, head)
        with self._mutation_lock:
            self._head = head
            self._publish_locked()

    # -- internals ---------------------------------------------------------------

    def _publish_locked(self) -> None:
        """Publish the post-mutation snapshot (one atomic assignment)."""
        version = self._published[0] + 1
        runs: List[IndexRun] = []
        node = self._head
        while node is not None:
            runs.append(node.run)
            node = node.next
        self._published = (version, tuple(runs))
        if self.on_publish is not None:
            self.on_publish()

    def _find_span_start(
        self, run_id: str
    ) -> "tuple[Optional[_Node], Optional[_Node]]":
        """Return ``(predecessor, node)`` for the run with ``run_id``."""
        prev: Optional[_Node] = None
        node = self._head
        while node is not None and node.run.run_id != run_id:
            prev = node
            node = node.next
        return prev, node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ids = [run.run_id for run in self.iter_runs()]
        return f"RunList({self.name}: {' -> '.join(ids) or 'empty'})"


__all__ = ["RunList", "RunListError"]
