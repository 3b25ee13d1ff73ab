"""The replaced probe paths, kept as the oracles for the run-search kernels.

Two generations live here, out of ``src/``.  Until PR 14 every
binary-search probe went ``ordinal -> locate -> block_view ->
DataBlockView.sort_key_at`` (:func:`reference_first_geq`).  From PR 14 to
PR 20 the search was a chain of separate steps -- ``key_position_bounds``
(block-index fences), ``_seek`` (the clamp) and ``IndexRun.first_geq``
(the windowed binary search) -- each its own frame per run searched and
per batched key; :func:`key_position_bounds`, :func:`chain_seek` and
:func:`chain_first_geq` are that chain as it left ``src/`` when the fused
kernels (``IndexRun.scan_visible`` / ``batch_visible``) replaced it.  Both
are what the kernels are compared against: same answer, same ordinals
probed in the same order.
"""

from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from repro.core.run import DataBlockView, IndexRun
from tests.conftest import locate, view_sort_key


def view_at(run: IndexRun, ordinal: int) -> Tuple[DataBlockView, int]:
    """``(block_view, in_block_index)`` of a run-global ordinal."""
    block_index, in_block = locate(run, ordinal)
    return run.block_view(block_index), in_block


def sort_key_at(run: IndexRun, ordinal: int) -> bytes:
    """Raw sort key at a run-global ordinal, one block resolution per call."""
    view, in_block = view_at(run, ordinal)
    return view_sort_key(view, in_block)


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


def key_position_bounds(run: IndexRun, target: bytes) -> Tuple[int, int]:
    """Ordinal bounds ``(lo, hi)`` on ``first_geq(target)`` from the block
    index alone: blocks before the lower fence end strictly below
    ``target``, blocks from the upper fence on start strictly above it."""
    first_keys = run._first_keys
    b_lo = max(0, bisect_left(first_keys, target) - 1)
    b_hi = bisect_right(first_keys, target)
    return run._cum[b_lo], run._cum[b_hi]


def chain_first_geq(
    run: IndexRun, target: bytes, lo: int, hi: int, window: Optional[list] = None
) -> int:
    """``IndexRun.first_geq`` as PR 14 wrote it: the windowed binary search,
    ``raw_key_probes`` charged once per search; ``window`` (a list, empty
    at first, left as ``[start, end, view]``) is kept across the keys of a
    sorted batch."""
    cum = run._cum
    start = end = probes = 0
    view = None
    if window:
        start, end, view = window
        payload, base, table = view.payload, view.base, view.table
        count = view.count
    try:
        while lo < hi:
            mid = (lo + hi) // 2
            if not start <= mid < end:
                block_index = bisect_right(cum, mid) - 1
                start, end = cum[block_index], cum[block_index + 1]
                view = run.block_view(block_index)
                payload, base, table = view.payload, view.base, view.table
                count = view.count
            i = mid - start
            probes += 1
            at = base + table[i]
            if payload[at : at + table[count + i]] < target:
                lo = mid + 1
            else:
                hi = mid
    finally:
        run.hierarchy.stats.decode.raw_key_probes += probes
        if window is not None and view is not None:
            window[:] = (start, end, view)
    return lo


def chain_seek(
    run: IndexRun, target: bytes, lo: int, hi: int, window: Optional[list] = None
) -> int:
    """``search._seek``: ``first_geq(target)`` over ``[lo, hi)`` clamped
    onto the block-index bracket."""
    block_lo, block_hi = key_position_bounds(run, target)
    return chain_first_geq(
        run, target, max(lo, min(block_lo, hi)), min(hi, max(block_hi, lo)), window
    )
