"""The per-row ghost tracking, kept as the column kernel's oracle.

Until the column-at-a-time ``ShardIndexes._track_ghosts``, the groom
walked every row of a batch once per secondary index: a primary key was
ghosted when it was ghosted already or its secondary key differed from
the one last groomed (the memo, updated row by row, so a key repeated in
one batch is compared with its previous version in the batch), and its
newest beginTS was the last such row's.  It keeps the whole secondary
key in its memo, primary-key suffix included; only its primary keys take
the kernel's form (a one-column key as its value).
"""

from typing import Dict, List, Sequence, Tuple


def reference_track_ghosts(
    indexes, raw: Sequence[Tuple], begin_ts: Sequence[int]
) -> List[Tuple[Dict, Dict]]:
    """``indexes._track_ghosts(raw, begin_ts)``, one row at a time."""
    pks = list(zip(*[raw[p] for p in indexes._pk_positions]))
    if len(indexes._pk_positions) == 1:
        pks = [pk for (pk,) in pks]
    pending = []
    for name, shard_index in indexes.secondaries.items():
        memo, ghosted, newest = indexes._key_memo[name], shard_index.ghosted, {}
        equality, sort, _included = shard_index.positions
        keys = zip(*[raw[p] for p in equality + sort])
        for pk, key, ts in zip(pks, keys, begin_ts):
            if pk in ghosted or memo.get(pk, key) != key:
                ghosted[pk] = None
                newest[pk] = ts
            memo[pk] = key
        pending.append((ghosted, newest))
    return pending
