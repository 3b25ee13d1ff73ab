"""Records with Wildfire's hidden columns (paper section 2.1).

Every record carries ``beginTS`` (when this version was ingested -- set
tentatively at commit, reset by the groomer), ``endTS`` (when a newer
version of the same key replaced it -- set by the post-groomer; ``None``
while current), and ``prevRID`` (RID of the previous version -- set by the
post-groomer for time travel chains).  Data blocks keep columns; the block
catalog builds a record only when one is fetched.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.core.encoding import KeyValue
from repro.core.entry import RID


class Record(NamedTuple):
    """One immutable record version."""

    values: Tuple[KeyValue, ...]
    begin_ts: int
    end_ts: Optional[int] = None
    prev_rid: Optional[RID] = None


__all__ = ["Record"]
