"""A copy pass streams the post-groomed runs of the versions it pins.

``ShardCopyStream`` pins every source index at the start of a pass and
keeps the pins until the pass is built, so the runs it streams must be
the pinned version's: a run published by a concurrent merge after the
pin is neither held by it nor part of the snapshot being copied.
"""

from repro.core.definition import ColumnSpec
from repro.core.entry import RID, Zone
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.migration import ShardCopyStream
from repro.wildfire.schema import IndexSpec, TableSchema

SCHEMA = TableSchema(
    name="copy",
    columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
    primary_key=("device", "msg"),
    sharding_key=("device",),
)
SPEC = IndexSpec(("device",), ("msg",), ("reading",))
LATE_DEVICE = 99


def make_shard():
    return WildfireShard(SCHEMA, SPEC, config=ShardConfig(post_groom_every=2))


def test_a_pass_copies_the_runs_its_pins_hold(monkeypatch):
    source = make_shard()
    for r in range(4):
        source.ingest([(d, m, r) for d in range(4) for m in range(8)])
        source.tick()
    index = source.index
    assert index.run_lists[Zone.POST_GROOMED].snapshot()
    late = index.builder.build(
        index.allocator.allocate(Zone.POST_GROOMED),
        [index.make_entry(
            (LATE_DEVICE,), (0,), (0,), 1 << 40, RID(Zone.POST_GROOMED, 999, 0)
        )],
        Zone.POST_GROOMED, index.config.levels.first_post_groomed_level, -1, -1,
    )
    pins = []
    real_pin = index.lifecycle.pin

    def pin_then_publish():
        """The pin, then a concurrent publication of ``late``."""
        pin = real_pin()
        pins.append(pin)
        index.run_lists[Zone.POST_GROOMED].push_front(late)
        return pin

    monkeypatch.setattr(index.lifecycle, "pin", pin_then_publish)
    destination = make_shard()
    stream = ShardCopyStream([source], [destination], lambda *_: 0, "copy.test")
    stream.step(None)
    assert stream.done and len(pins) == 1
    pinned = pins[0].version.post_groomed
    assert late not in pinned
    assert stream.copied_entries == sum(run.entry_count for run in pinned)
    assert destination.index.lookup((LATE_DEVICE,), (0,)) is None
    assert destination.index.lookup((1,), (3,)) is not None
