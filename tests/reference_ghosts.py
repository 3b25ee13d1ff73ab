"""The per-row ghost tracking, kept as the column kernel's oracle.

Until the column-at-a-time ``ShardIndexes._track_ghosts``, the groom
walked every row of a batch once per secondary index: a primary key was
ghosted when it was ghosted already or its secondary key differed from
the one last groomed (the memo, updated row by row, so a key repeated in
one batch is compared with its previous version in the batch), and its
newest beginTS was the last such row's.  It keeps the whole secondary
key in its memo, primary-key suffix included; only its primary keys take
the kernel's form (a one-column key as its value).  The stale keys a
merge repairs are kept row by row too: a row whose key differs from the
memo's leaves the memo's key stale, and its own key is live again, each
encoded as a point lookup of the secondary encodes it.
"""

from typing import Dict, Sequence, Tuple

from repro.core.query import encode_point_key


def reference_track_ghosts(
    indexes, raw: Sequence[Tuple], begin_ts: Sequence[int]
) -> Dict[str, Tuple[Dict, list]]:
    """``indexes._track_ghosts(raw, begin_ts)``, one row at a time; its
    is-last masks read all False, as its stale keys need no pass of the
    groom's."""
    pks = list(zip(*[raw[p] for p in indexes._pk_positions]))
    if len(indexes._pk_positions) == 1:
        pks = [pk for (pk,) in pks]
    pending = {}
    for name, shard_index in indexes.secondaries.items():
        memo, ghosted, newest = indexes._key_memo[name], shard_index.ghosted, {}
        equality, sort, _included = shard_index.positions
        keys = zip(*[raw[p] for p in equality + sort])
        for pk, key, ts in zip(pks, keys, begin_ts):
            old = memo.get(pk, key)
            if pk in ghosted or old != key:
                ghosted[pk] = None
                newest[pk] = ts
            if old != key:
                reference_note_stale(indexes, shard_index, [(old, pk)])
            shard_index.stale.pop(user_key(shard_index, key), None)
            memo[pk] = key
        pending[name] = (newest, [False] * len(pks))
    return pending


def user_key(shard_index, key: Tuple) -> bytes:
    """A whole secondary key's user key, as a point lookup encodes it."""
    width = len(shard_index.positions[0])
    return encode_point_key(shard_index.index.definition, key[:width], key[width:])[0]


def reference_note_stale(indexes, shard_index, pairs) -> None:
    """``indexes._note_stale`` over ``(whole secondary key, pk)`` pairs,
    the form this loop's memo keeps (adoption hands it those)."""
    for key, pk in pairs:
        shard_index.stale[user_key(shard_index, key)] = pk
