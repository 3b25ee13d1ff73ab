"""The decoder compiled per definition against the per-column oracle.

``IndexEntry.from_bytes`` runs straight-line code built once per
:class:`IndexDefinition`: one ``unpack_from`` per run of fixed-width
fields and a decoder call only for STRING / BYTES columns.  Over drawn
definitions -- every column type in every position, the hash column on
and off, no included columns -- and values at the edges of their domains
(INT64 min and max, FLOAT64 -0.0 and +-inf, strings and bytes holding
zero bytes and the escape sequence itself), it must return what
``tests/reference_entry.py`` returns, from any offset, and the entry must
serialize back to the same blob.  The decoder is kept on the definition
object, so a definition that inherits a freed one's ``id`` gets its own.
"""

import sys

from hypothesis import example, given, settings, strategies as st

from repro.core.definition import ColumnSpec, ColumnType, IndexDefinition
from repro.core.encoding import INT64_MAX, INT64_MIN, UINT64_MAX
from repro.core.entry import IndexEntry, RID, Zone

from tests.reference_entry import reference_entry_from_bytes

VALUES = {
    ColumnType.INT64: st.one_of(
        st.sampled_from([INT64_MIN, INT64_MAX, -1, 0]),
        st.integers(INT64_MIN, INT64_MAX),
    ),
    ColumnType.FLOAT64: st.one_of(
        st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"), -1.5]),
        st.floats(allow_nan=False),
    ),
    ColumnType.STRING: st.one_of(
        st.sampled_from(["", "\x00", "a\x00b", "\x00\x00", "\x00\xff", "\xff\x00"]),
        st.text(),
    ),
    ColumnType.BYTES: st.one_of(
        st.sampled_from([b"", b"\x00", b"\x00\x00", b"\x00\xff", b"a\x00\xffb", b"\xff"]),
        st.binary(),
    ),
}
column_types = st.lists(st.sampled_from(list(ColumnType)), max_size=3)
rids = st.builds(
    RID,
    st.sampled_from(list(Zone)),
    st.integers(0, UINT64_MAX),
    st.integers(0, (1 << 32) - 1),
)


@st.composite
def entries(draw):
    """A definition with its columns' types drawn, and one entry of it."""
    equality = draw(column_types)
    sort = draw(column_types.filter(lambda types: types or equality))
    included = draw(column_types)

    def specs(prefix, types):
        return tuple(ColumnSpec(f"{prefix}{n}", ctype) for n, ctype in enumerate(types))

    definition = IndexDefinition(
        equality_columns=specs("eq", equality),
        sort_columns=specs("sort", sort),
        included_columns=specs("incl", included),
    )

    def values(types):
        return tuple(draw(VALUES[ctype]) for ctype in types)

    entry = IndexEntry.create(
        definition, values(equality), values(sort), values(included),
        draw(st.integers(0, UINT64_MAX)), draw(rids),
    )
    return definition, entry


def pad(size):
    """Bytes before and after the blob: zero bytes, so an unterminated
    string would run into something."""
    return b"\x00" * size


@settings(max_examples=300, deadline=None)
@given(entries(), st.integers(0, 9), st.integers(0, 9))
@example(
    (IndexDefinition(sort_columns=(ColumnSpec("s", ColumnType.BYTES),)),
     IndexEntry(0, (), (b"\x00\xff\x00",), (), 0, RID(Zone.LIVE, 0, 0))),
    0, 0,
)
def test_the_compiled_decoder_is_the_per_column_one(drawn, before, after):
    definition, entry = drawn
    sort_key, blob = entry.to_blob(definition)
    data = pad(before) + blob + pad(after)
    decoded = IndexEntry.from_bytes(definition, data, before)
    assert decoded == reference_entry_from_bytes(definition, data, before)
    assert decoded == (entry, before + len(blob))
    assert decoded[0].to_blob(definition) == (sort_key, blob)
    assert type(decoded[0]) is IndexEntry and type(decoded[0].rid) is RID
    assert type(decoded[0].rid.zone) is Zone


def test_the_entry_is_a_tuple_without_a_dict():
    entry = IndexEntry(1, (2,), (), (), 3, RID(Zone.GROOMED, 4, 5))
    assert isinstance(entry, tuple) and not hasattr(entry, "__dict__")
    assert entry._replace(begin_ts=9) == (1, (2,), (), (), 9, entry.rid)


def frames_of(call, *args):
    """The Python functions ``call(*args)`` runs, in order."""
    names = []

    def profiler(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
    return names


def test_only_variable_length_columns_call_a_decoder():
    fixed = IndexDefinition(
        equality_columns=(ColumnSpec("k"),),
        sort_columns=(ColumnSpec("f", ColumnType.FLOAT64),),
        included_columns=(ColumnSpec("v"),),
    )
    mixed = IndexDefinition(
        equality_columns=(ColumnSpec("k", ColumnType.STRING),),
        included_columns=(ColumnSpec("v"), ColumnSpec("b", ColumnType.BYTES)),
    )
    rid = RID(Zone.POST_GROOMED, 7, 8)
    for definition, values, expected in [
        (fixed, ((1,), (2.5,), (3,)), ["from_bytes", "decode"]),
        (mixed, (("c",), (), (4, b"\x00")),
         ["from_bytes", "decode", "decode_str", "decode_bytes", "decode_bytes"]),
    ]:
        blob = IndexEntry.create(definition, *values, 6, rid).to_bytes(definition)
        IndexEntry.from_bytes(definition, blob)  # compiled on first use
        assert frames_of(IndexEntry.from_bytes, definition, blob) == expected


def test_a_definition_reusing_a_freed_ones_id_gets_its_own_decoder():
    """Definitions of four column types made and freed in turn: CPython
    hands a freed one's ``id`` to the next, so a decoder cached by ``id``
    would decode with another type's code."""
    types = list(ColumnType)
    sample = {
        ColumnType.INT64: -5, ColumnType.FLOAT64: 2.5,
        ColumnType.STRING: "a\x00b", ColumnType.BYTES: b"\x00\xff",
    }
    owner = {}  # id -> the key type of the definition that last had it
    inherited = 0
    for n in range(40):
        key, included = types[n % 4], types[(n + 1) % 4]
        definition = IndexDefinition(
            equality_columns=(ColumnSpec("k", key),),
            included_columns=(ColumnSpec("v", included),),
        )
        entry = IndexEntry.create(
            definition, (sample[key],), (), (sample[included],), n, RID(Zone.GROOMED, n, 0)
        )
        blob = entry.to_bytes(definition)
        assert IndexEntry.from_bytes(definition, blob) == (entry, len(blob))
        assert IndexEntry.from_bytes(definition, blob) == reference_entry_from_bytes(
            definition, blob
        )
        inherited += owner.get(id(definition), key) != key
        owner[id(definition)] = key
        del definition, entry
    assert inherited  # the case really happened
