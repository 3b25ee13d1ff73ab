"""Records with Wildfire's hidden columns (paper section 2.1).

Every record carries ``beginTS`` (when this version was ingested -- set
tentatively at commit, reset by the groomer), ``endTS`` (when a newer
version of the same key replaced it -- set by the post-groomer; ``None``
while current), and ``prevRID`` (RID of the previous version -- set by the
post-groomer for time travel chains).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.encoding import KeyValue
from repro.core.entry import RID


@dataclass(frozen=True)
class Record:
    """One immutable record version."""

    values: Tuple[KeyValue, ...]
    begin_ts: int
    end_ts: Optional[int] = None
    prev_rid: Optional[RID] = None

    def with_prev_rid(self, prev_rid: Optional[RID]) -> "Record":
        return Record(self.values, self.begin_ts, self.end_ts, prev_rid)

    def with_end_ts(self, end_ts: int) -> "Record":
        return Record(self.values, self.begin_ts, end_ts, self.prev_rid)

    def visible_at(self, query_ts: int) -> bool:
        """Snapshot-isolation visibility: begun, and not yet ended."""
        if self.begin_ts > query_ts:
            return False
        return self.end_ts is None or self.end_ts > query_ts


__all__ = ["Record"]
