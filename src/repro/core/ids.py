"""Run-id allocation.

Run ids double as storage namespaces, so they must be unique for the life
of the shared-storage instance (append-only: a reused id would collide).
The allocator is monotonic and thread-safe; ids embed the zone letter and a
sequence number for debuggability (``run-g-000042``).

A freshly-constructed allocator starts at 0, which is only safe for a
fresh shared-storage instance: a *recovered* process must resume above
every sequence number already present in shared storage or its first
build would collide with a surviving namespace.  Recovery calls
:meth:`RunIdAllocator.ensure_at_least` with ``max(seen) + 1`` after the
namespace scan (:func:`parse_run_seq` extracts the sequence numbers).
"""

from __future__ import annotations

import re
import threading

from repro.core.entry import Zone

_ZONE_LETTER = {Zone.GROOMED: "g", Zone.POST_GROOMED: "p"}
_RUN_ID_RE = re.compile(r"-[gp]-(\d{6,})$")


def parse_run_seq(prefix: str, namespace: str) -> int:
    """Sequence number of a run namespace, or ``-1`` if not one of ours."""
    if not namespace.startswith(prefix):
        return -1
    match = _RUN_ID_RE.search(namespace[len(prefix):])
    return int(match.group(1)) if match is not None else -1


class RunIdAllocator:
    """Monotonic, thread-safe run-id source for one index instance."""

    def __init__(self, prefix: str = "run") -> None:
        self._prefix = prefix
        self._next = 0
        self._lock = threading.Lock()

    def allocate(self, zone: Zone) -> str:
        with self._lock:
            seq = self._next
            self._next += 1
        return f"{self._prefix}-{_ZONE_LETTER[zone]}-{seq:06d}"

    def ensure_at_least(self, next_seq: int) -> None:
        """Raise the floor of the next sequence number (recovery resume)."""
        with self._lock:
            if next_seq > self._next:
                self._next = next_seq


__all__ = ["RunIdAllocator", "parse_run_seq"]
