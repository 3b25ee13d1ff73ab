"""A block enters the SSD through ``SSDTier.admit`` or not at all.

``would_fit``-then-``write`` was two critical sections: a second reader (or
a write-through) landing between them made ``ssd.write`` raise
``SSDCapacityError`` out of a *read* of a block that shared storage holds.
The first test freezes that window -- ``would_fit`` answers as it would
have a moment before the other writer landed -- and the second races real
threads against an SSD with room for two blocks.
"""

import sys
import threading

import pytest

from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent
from repro.storage.ssd import SSDTier

BLOCK_BYTES = 64


def blk(ordinal: int) -> Block:
    return Block(BlockId("run", ordinal), bytes([ordinal % 251]) * BLOCK_BYTES)


def test_a_full_ssd_fails_no_read_write_through_or_load():
    hierarchy = StorageHierarchy(ssd=SSDTier(capacity_bytes=BLOCK_BYTES))
    hierarchy.write_persisted(blk(0))  # written through: the SSD is full
    hierarchy.write_persisted(blk(1), write_through_ssd=False)
    assert hierarchy.ssd.used_bytes == BLOCK_BYTES
    hierarchy.ssd.would_fit = lambda nbytes: True  # the stale answer
    query = hierarchy.stats.intents[ReadIntent.QUERY]
    writes = hierarchy.stats.tier("ssd").writes

    assert hierarchy.read(BlockId("run", 1)) == blk(1)
    hierarchy.write_persisted(blk(2))
    assert hierarchy.load_into_cache(BlockId("run", 1)) is False

    assert query.promotions == 0
    assert hierarchy.stats.tier("ssd").writes == writes
    assert hierarchy.ssd.block_ids() == [BlockId("run", 0)]
    assert hierarchy.ssd.used_bytes == BLOCK_BYTES


def test_admit_counts_off_the_copy_already_held():
    ssd = SSDTier(capacity_bytes=BLOCK_BYTES)
    assert ssd.admit(blk(0))
    assert ssd.admit(blk(0))  # replacing it adds no bytes
    assert not ssd.admit(blk(1))
    assert ssd.used_bytes == BLOCK_BYTES


@pytest.mark.timeout(60)
def test_racing_readers_and_a_releaser_never_overfill_or_fail():
    blocks = 8
    capacity = 2 * BLOCK_BYTES
    hierarchy = StorageHierarchy(ssd=SSDTier(capacity_bytes=capacity))
    ids = [blk(i).block_id for i in range(blocks)]
    for i in range(blocks):
        hierarchy.write_persisted(blk(i), write_through_ssd=False)
    errors, samples = [], []
    done = threading.Event()

    def reader(offset: int) -> None:
        try:
            for n in range(500):
                block = hierarchy.read(ids[(offset + n) % blocks])
                assert len(block.payload) == BLOCK_BYTES
                samples.append(hierarchy.ssd.used_bytes)
        except BaseException as error:  # noqa: B036 - reported below
            errors.append(error)

    def releaser() -> None:
        try:
            while not done.is_set():
                hierarchy.drop_from_cache(ids)
                samples.append(hierarchy.ssd.used_bytes)
        except BaseException as error:  # noqa: B036 - reported below
            errors.append(error)

    readers = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    release = threading.Thread(target=releaser)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        release.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=50)
        done.set()
        release.join(timeout=5)
    finally:
        sys.setswitchinterval(interval)
        done.set()

    assert not any(t.is_alive() for t in readers + [release])
    assert errors == []
    assert samples and max(samples) <= capacity
    resident = hierarchy.ssd._blocks.values()
    assert hierarchy.ssd.used_bytes == sum(len(b.payload) for b in resident)
    # Every read was served by the SSD or by shared storage (tier rows are
    # charged under the ledger lock, so these counts are exact).
    tiers = hierarchy.stats.snapshot()
    assert tiers["ssd"].reads + tiers["shared"].reads == 4 * 500
