"""Tests for the lock-free run list (paper section 5.1)."""

import sys
import threading
import time

import pytest

from repro.core.builder import RunBuilder
from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.runlist import RunList, RunListError
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import make_entries


def build_runs(count, entries_each=4):
    definition = i1_definition()
    builder = RunBuilder(definition, StorageHierarchy())
    runs = []
    for i in range(count):
        runs.append(
            builder.build(
                f"r{i}", make_entries(definition, range(entries_each)),
                Zone.GROOMED, 0, i, i,
            )
        )
    return runs


class TestBasicOperations:
    def test_push_front_newest_first(self):
        runs = build_runs(3)
        rl = RunList("t")
        for run in runs:
            rl.push_front(run)
        assert [r.run_id for r in rl.snapshot()] == ["r2", "r1", "r0"]

    def test_len_and_contains(self):
        runs = build_runs(2)
        rl = RunList("t")
        for run in runs:
            rl.push_front(run)
        assert len(rl) == 2
        assert "r0" in rl and "missing" not in rl

    def test_empty_list(self):
        rl = RunList("t")
        assert rl.snapshot() == []
        assert len(rl) == 0


class TestReplace:
    def test_replace_middle_span(self):
        runs = build_runs(5)
        rl = RunList("t")
        for run in runs:
            rl.push_front(run)  # r4 r3 r2 r1 r0
        merged = build_runs(1)[0]
        rl.replace(["r3", "r2"], merged)
        ids = [r.run_id for r in rl.snapshot()]
        assert ids == ["r4", merged.run_id, "r1", "r0"]

    def test_replace_at_head(self):
        runs = build_runs(3)
        rl = RunList("t")
        for run in runs:
            rl.push_front(run)
        merged = build_runs(1)[0]
        rl.replace(["r2", "r1"], merged)
        assert [r.run_id for r in rl.snapshot()] == [merged.run_id, "r0"]

    def test_replace_at_tail(self):
        runs = build_runs(3)
        rl = RunList("t")
        for run in runs:
            rl.push_front(run)
        merged = build_runs(1)[0]
        rl.replace(["r0"], merged)
        assert [r.run_id for r in rl.snapshot()] == ["r2", "r1", merged.run_id]

    def test_non_contiguous_span_rejected(self):
        runs = build_runs(3)
        rl = RunList("t")
        for run in runs:
            rl.push_front(run)
        merged = build_runs(1)[0]
        with pytest.raises(RunListError):
            rl.replace(["r2", "r0"], merged)

    def test_missing_run_rejected(self):
        rl = RunList("t")
        with pytest.raises(RunListError):
            rl.replace(["ghost"], build_runs(1)[0])

    def test_empty_span_rejected(self):
        rl = RunList("t")
        with pytest.raises(RunListError):
            rl.replace([], build_runs(1)[0])


class TestRemove:
    def test_remove_unlinks(self):
        runs = build_runs(3)
        rl = RunList("t")
        for run in runs:
            rl.push_front(run)
        (removed,) = rl.remove_where(lambda r: r.run_id == "r1")
        assert removed.run_id == "r1"
        assert [r.run_id for r in rl.snapshot()] == ["r2", "r0"]

    def test_remove_where(self):
        runs = build_runs(4)
        rl = RunList("t")
        for run in runs:
            rl.push_front(run)
        removed = rl.remove_where(lambda r: r.max_groomed_id <= 1)
        assert sorted(r.run_id for r in removed) == ["r0", "r1"]
        assert [r.run_id for r in rl.snapshot()] == ["r3", "r2"]

    def test_rebuild(self):
        runs = build_runs(3)
        rl = RunList("t")
        rl.rebuild(runs)
        assert [r.run_id for r in rl.snapshot()] == ["r0", "r1", "r2"]


def ids_of(run_list):
    return tuple(r.run_id for r in run_list.snapshot())


# (mutation, whether it is refused with RunListError, publications), run
# against r3 r2 r1 r0 with a spare run r4.
MUTATIONS = {
    "push_front": (lambda rl, spare: rl.push_front(spare), False, 1),
    "replace": (lambda rl, spare: rl.replace(["r2", "r1"], spare), False, 1),
    "remove": (
        lambda rl, spare: rl.remove_where(lambda r: r.run_id == "r1"), False, 1,
    ),
    "remove_where matching": (
        lambda rl, spare: rl.remove_where(lambda r: r.run_id in ("r3", "r0")),
        False, 1,
    ),
    "clear": (lambda rl, spare: rl.clear(), False, 1),
    "rebuild": (lambda rl, spare: rl.rebuild([spare]), False, 1),
    "replace unknown first id": (
        lambda rl, spare: rl.replace(["ghost", "r1"], spare), True, 0,
    ),
    "replace with a gap": (
        lambda rl, spare: rl.replace(["r3", "r1"], spare), True, 0,
    ),
    "replace out of order": (
        lambda rl, spare: rl.replace(["r1", "r2"], spare), True, 0,
    ),
    "remove_where matching nothing": (
        lambda rl, spare: rl.remove_where(lambda r: False), False, 0,
    ),
}


class TestPublication:
    @pytest.mark.parametrize("name", list(MUTATIONS))
    def test_on_publish_once_per_successful_mutation(self, name):
        mutate, refused, publications = MUTATIONS[name]
        *runs, spare = build_runs(5)
        published = []
        rl = RunList("t", on_publish=lambda: published.append(ids_of(rl)))
        rl.rebuild(runs[::-1])
        published.clear()
        before = rl.snapshot()
        if refused:
            with pytest.raises(RunListError):
                mutate(rl, spare)
        else:
            mutate(rl, spare)
        assert len(published) == publications
        if publications:
            # The hook runs after the new list is visible to readers.
            assert published == [ids_of(rl)]
        else:
            assert rl.snapshot() == before


class TestConcurrentReaders:
    def test_readers_see_only_published_states(self):
        """Every snapshot a reader takes during a push/replace storm is one
        whole publication, and each reader sees publications in order."""
        rounds = 50
        runs = build_runs(10 + rounds, entries_each=1)
        merged_pool = build_runs(rounds, entries_each=1)
        published = [()]

        def on_publish():
            published.append(ids_of(rl))
            time.sleep(0)  # let readers run while the mutation lock is held

        rl = RunList("t", on_publish=on_publish)
        for run in runs[:10]:
            rl.push_front(run)
        stop = threading.Event()
        seen = [[] for _ in range(4)]
        looping = [threading.Event() for _ in seen]

        def reader(log, looping):
            looping.set()
            while not stop.is_set():
                ids = ids_of(rl)
                if not log or log[-1] != ids:
                    log.append(ids)

        threads = [
            threading.Thread(target=reader, args=pair)
            for pair in zip(seen, looping)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
        try:
            for t in threads:
                t.start()
            for event in looping:
                event.wait()
            for i, run in enumerate(runs[10:]):
                rl.push_front(run)
                victims = [r.run_id for r in rl.snapshot()[-2:]]
                rl.replace(victims, merged_pool[i])
            stop.set()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        order = {state: n for n, state in enumerate(published)}
        assert len(order) == len(published) == 11 + 2 * rounds
        for log in seen:
            assert log and all(state in order for state in log)
            positions = [order[state] for state in log]
            assert positions == sorted(positions)
