"""The pre-kernel probe path, kept as the oracle for the run-search kernel.

Until the block-local kernel (``IndexRun.first_geq``), every binary-search
probe went ``ordinal -> locate -> block_view -> DataBlockView.sort_key_at``.
That path lives on here, out of ``src/``, as the reference the kernel is
compared against: same answer, same ordinals probed in the same order.
"""

from typing import List, Optional, Tuple

from repro.core.run import DataBlockView, IndexRun


def view_at(run: IndexRun, ordinal: int) -> Tuple[DataBlockView, int]:
    """``(block_view, in_block_index)`` of a run-global ordinal."""
    block_index, in_block = run.locate(ordinal)
    return run.block_view(block_index), in_block


def sort_key_at(run: IndexRun, ordinal: int) -> bytes:
    """Raw sort key at a run-global ordinal, one block resolution per call."""
    view, in_block = view_at(run, ordinal)
    return view.sort_key_at(in_block)


def reference_first_geq(
    run: IndexRun,
    target: bytes,
    lo: int,
    hi: int,
    probed: Optional[List[int]] = None,
) -> int:
    """First ordinal in ``[lo, hi)`` whose sort key is ``>= target``.

    Appends every probed ordinal to ``probed`` when given.
    """
    while lo < hi:
        mid = (lo + hi) // 2
        if probed is not None:
            probed.append(mid)
        if sort_key_at(run, mid) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo
