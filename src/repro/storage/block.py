"""Block abstraction shared by every storage tier.

Umzi stores an index run as one header block plus fixed-size data blocks
(paper section 4.2).  Shared storage moves data at block granularity only
(section 7: purged runs are fetched "on a block-basis"), so the block is the
unit of every read, write, transfer, and cache decision in this codebase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class BlockId(NamedTuple):
    """Globally unique identifier of a stored block (a tuple: every tier's
    dict is keyed by it, so it hashes and compares at C speed).

    ``namespace`` groups the blocks of one logical object (e.g. one index
    run or one groomed data block file); ``ordinal`` is the block's position
    within that object.  Ordinal 0 is conventionally the header block of an
    index run.
    """

    namespace: str
    ordinal: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.namespace}#{self.ordinal}"


@dataclass(frozen=True)
class Block:
    """An immutable block of bytes.

    Blocks are immutable by design: shared storage (HDFS, S3, ...) does not
    support in-place updates, and Umzi never needs them -- new data always
    goes into new runs.
    """

    block_id: BlockId
    payload: bytes

    @property
    def size(self) -> int:
        return len(self.payload)
