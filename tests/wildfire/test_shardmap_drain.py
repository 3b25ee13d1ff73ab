"""``ShardMapRegistry.drain``: the migration's publish barrier.

A query pins the routing epoch it started on; a migration publishes the
next epoch and then drains the old one, waiting until no query can still
answer from the pre-publish view.  Pin and unpin take the registry's plain
lock and notify only while a drainer is registered, so these tests pin the
wake-up itself: the last unpin of a superseded epoch must wake the drainer
at once, not leave it to find out at its timeout.
"""

import inspect
import sys
import textwrap
import threading
import time

import pytest

from repro.storage.metrics import EpochStats
from repro.wildfire import shardmap as shardmap_module
from repro.wildfire.shardmap import ShardMap, ShardMapError, ShardMapRegistry
from tests.conftest import map_refs

TIMEOUT_S = 1.0
WAKE_BOUND_S = TIMEOUT_S / 4  # "well inside the timeout"
MODULE_TIMEOUT_S = shardmap_module.DRAIN_TIMEOUT_S  # before any fixture


@pytest.fixture(autouse=True)
def drain_timeout(monkeypatch):
    monkeypatch.setattr(shardmap_module, "DRAIN_TIMEOUT_S", TIMEOUT_S)
    return monkeypatch


def publish_next(registry):
    current = registry.current
    registry.publish(ShardMap(epoch=current.epoch + 1, slots=current.slots))
    return current.epoch


def drain_against_a_held_pin(registry):
    """Pin the current epoch on another thread, publish its successor and
    drain it; the holder lets go once the drainer waits.  Returns the
    seconds from the release to the drainer's return."""
    pinned, released_at = threading.Event(), []

    def holder():
        pin = registry.pin()
        pinned.set()
        # The drainer registers under the lock and keeps it until it
        # waits, so the unpin below cannot run before the wait.
        deadline = time.monotonic() + TIMEOUT_S
        while not registry._drainers and time.monotonic() < deadline:
            time.sleep(0.001)
        released_at.append(time.monotonic())
        registry.unpin(pin.epoch)

    thread = threading.Thread(target=holder, daemon=True)
    thread.start()
    assert pinned.wait(TIMEOUT_S)
    old = publish_next(registry)
    assert map_refs(registry, old) == 1
    registry.drain(old)
    returned_at = time.monotonic()
    thread.join(TIMEOUT_S)
    assert not thread.is_alive()
    (release,) = released_at  # drain did not return before the release
    assert map_refs(registry, old) == 0
    return returned_at - release


def assert_woken_promptly(registry):
    waited = drain_against_a_held_pin(registry)
    assert 0 <= waited < WAKE_BOUND_S, (
        f"drainer woke {waited:.3f}s after the last unpin "
        f"(timeout {TIMEOUT_S}s): the unpin did not notify it"
    )


def test_the_last_unpin_wakes_the_drainer():
    stats = EpochStats()
    registry = ShardMapRegistry(ShardMap.initial(2), stats)
    assert_woken_promptly(registry)
    assert (stats.version_refs, stats.version_unrefs) == (1, 1)
    assert stats.versions_reclaimed == 1  # the drained epoch, at its unpin
    assert registry._drainers == 0


def test_a_pin_that_outlives_the_timeout_is_named_with_its_count(drain_timeout):
    drain_timeout.setattr(shardmap_module, "DRAIN_TIMEOUT_S", 0.05)
    registry = ShardMapRegistry(ShardMap.initial(2))
    pins = [registry.pin(), registry.pin()]
    old = publish_next(registry)
    started = time.monotonic()
    with pytest.raises(ShardMapError, match=rf"epoch {old} .* \(2 pins\)"):
        registry.drain(old)
    assert time.monotonic() - started < TIMEOUT_S
    assert registry._drainers == 0  # a failed drain deregisters
    for pin in pins:
        registry.unpin(pin.epoch)
    drain_timeout.setattr(shardmap_module, "DRAIN_TIMEOUT_S", 0.0)
    registry.drain(old)  # nothing left: returns at once
    assert map_refs(registry, old) == 0


def test_an_unpin_that_never_notifies_is_caught(monkeypatch):
    source = textwrap.dedent(inspect.getsource(ShardMapRegistry.unpin))
    notify = "self._drained.notify_all()"
    assert source.count(notify) == 1
    namespace = {}
    exec(source.replace(notify, "pass"), dict(vars(shardmap_module)), namespace)
    monkeypatch.setattr(ShardMapRegistry, "unpin", namespace["unpin"])
    registry = ShardMapRegistry(ShardMap.initial(2))
    with pytest.raises(AssertionError):
        assert_woken_promptly(registry)


def test_pins_balance_and_every_drain_returns_under_contention(drain_timeout):
    """More pinning threads than cores, a short switch interval, and a
    publisher draining every epoch it supersedes while they pin: a lost
    refcount update shows as an unbalanced ledger, a lost wake-up as a
    drainer's wait that ran out instead of being notified.  The drain runs
    under the module's own timeout, so a slow host is no lost wake-up."""
    drain_timeout.setattr(shardmap_module, "DRAIN_TIMEOUT_S", MODULE_TIMEOUT_S)
    stats = EpochStats()
    registry = ShardMapRegistry(ShardMap.initial(2), stats)
    publishes, stop = 10, threading.Event()
    pins = [0] * 6
    wait = registry._drained.wait

    def notified_wait(timeout=None):
        assert wait(timeout), f"a drainer's wait ran out after {timeout:.1f}s"
        return True

    registry._drained.wait = notified_wait

    def pinner(slot):
        while not stop.is_set():
            registry.unpin(registry.pin().epoch)
            pins[slot] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=pinner, args=(n,)) for n in range(len(pins))]
    try:
        for thread in threads:
            thread.start()
        for _ in range(publishes):
            old = publish_next(registry)
            registry.drain(old)
            assert map_refs(registry, old) == 0  # new pins land on the new epoch
    finally:
        stop.set()
        for thread in threads:
            thread.join(TIMEOUT_S)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert stats.version_refs == stats.version_unrefs == sum(pins) > 0
    assert stats.versions_published == publishes + 1
    assert stats.versions_reclaimed == publishes
    assert registry._refs == {registry.current.epoch: 0}
    assert registry._drainers == 0
