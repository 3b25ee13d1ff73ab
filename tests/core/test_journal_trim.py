"""MetadataJournal trimming vs torn checkpoint tails (ISSUE 6 satellite).

The regression: trimming by raw ordinal count loses the newest *valid*
checkpoint whenever the tail holds ``keep`` torn blocks -- recovery would
then find no checkpoint at all.  Trim must count validity, not ordinals.
"""

from repro.core import journal as journal_module
from repro.core.journal import Checkpoint, MetadataJournal
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy
from tests.conftest import latest_checkpoint


def torn_block(namespace: str, ordinal: int) -> Block:
    """A checkpoint block whose payload was torn mid-write (bad magic /
    truncated body): ``_try_decode`` rejects it."""
    return Block(BlockId(namespace, ordinal), b"GARBAGE-" + bytes([ordinal]))


class TestSteadyStateTrim:
    def test_keeps_newest_four_valid(self):
        hierarchy = StorageHierarchy()
        journal = MetadataJournal(hierarchy, "j")
        for psn in range(1, 11):
            journal.append(Checkpoint(indexed_psn=psn, max_covered_groomed_id=psn))
        ids = hierarchy.shared.namespace_block_ids("j")
        assert [bid.ordinal for bid in ids] == [6, 7, 8, 9]
        assert latest_checkpoint(journal) == Checkpoint(10, 10)
        assert [c.indexed_psn for c in journal.valid_checkpoints()] == [10, 9, 8, 7]

    def test_trim_reads_no_blocks_for_own_appends(self):
        """Steady-state trimming must not inflate read counters: every
        ordinal this process appended is valid by construction."""
        hierarchy = StorageHierarchy()
        journal = MetadataJournal(hierarchy, "j")
        journal.append(Checkpoint(1, 1))
        before = hierarchy.stats.tier("shared")
        for psn in range(2, 9):
            journal.append(Checkpoint(psn, psn))
        delta = hierarchy.stats.tier("shared").diff(before)  # counter-asserted
        assert delta.reads == 0


class TestTornTail:
    def test_torn_tail_never_deletes_newest_valid(self):
        """Four torn blocks at the tail + four kept: ordinal counting would
        set the cutoff past both valid checkpoints and delete them."""
        hierarchy = StorageHierarchy()
        journal = MetadataJournal(hierarchy, "j")
        journal.append(Checkpoint(1, 1))
        journal.append(Checkpoint(2, 2))
        for ordinal in (2, 3, 4, 5):  # a crash loop tearing every append
            hierarchy.shared.write(torn_block("j", ordinal))

        recovered = MetadataJournal(hierarchy, "j")  # fresh process
        assert journal_module.KEEP_CHECKPOINTS == 4
        recovered._trim()
        ids = hierarchy.shared.namespace_block_ids("j")
        assert [bid.ordinal for bid in ids] == [0, 1, 2, 3, 4, 5]
        assert latest_checkpoint(recovered) == Checkpoint(2, 2)

    def test_trim_past_torn_tail_still_deletes_old_valid(self, monkeypatch):
        """With enough valid checkpoints, torn tail blocks do not stop
        trimming -- the cutoff lands on the keep-th valid one and older
        blocks (valid or torn) go."""
        hierarchy = StorageHierarchy()
        journal = MetadataJournal(hierarchy, "j")
        for psn in range(1, 5):  # ordinals 0..3, all valid
            journal.append(Checkpoint(psn, psn))
        for ordinal in (4, 5):  # torn tail
            hierarchy.shared.write(torn_block("j", ordinal))

        recovered = MetadataJournal(hierarchy, "j")
        monkeypatch.setattr(journal_module, "KEEP_CHECKPOINTS", 2)
        recovered._trim()
        ids = hierarchy.shared.namespace_block_ids("j")
        # keep=2 valid: ordinals 3 and 2 survive; 0 and 1 are trimmed;
        # the torn tail (newer than the cutoff) is untouched.
        assert [bid.ordinal for bid in ids] == [2, 3, 4, 5]
        assert latest_checkpoint(recovered) == Checkpoint(4, 4)

    def test_append_after_torn_tail_resumes_above_it(self):
        """A recovered journal must append above torn ordinals (shared
        storage is append-only: re-writing a torn ordinal would collide),
        and the new checkpoint becomes latest."""
        hierarchy = StorageHierarchy()
        journal = MetadataJournal(hierarchy, "j")
        journal.append(Checkpoint(1, 1))
        hierarchy.shared.write(torn_block("j", 1))
        hierarchy.shared.write(torn_block("j", 2))

        recovered = MetadataJournal(hierarchy, "j")
        recovered.append(Checkpoint(2, 2))
        ids = hierarchy.shared.namespace_block_ids("j")
        assert [bid.ordinal for bid in ids] == [0, 1, 2, 3]
        assert latest_checkpoint(recovered) == Checkpoint(2, 2)
