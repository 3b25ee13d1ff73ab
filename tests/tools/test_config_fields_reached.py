"""Every config field has a caller outside ``tests/``.

A dataclass field of a config class is a setting only if some program
sets it: every ``.py`` under ``src/``, ``benchmarks/``, ``examples/`` and
``tools/`` is read from the one parse ``program_tree.py`` keeps, and a
field counts as reached when it is passed by
keyword (or by position) to its class, or by keyword to
``dataclasses.replace``.  A field no program sets is a branch only tests
reach; it becomes the constant every caller already gets, or it is listed
in :data:`TEST_ONLY` with the reason it stays.  A ``TEST_ONLY`` entry
that a program now sets is stale and fails too.
"""

import ast
import dataclasses

from repro.core.index import UmziConfig
from repro.core.levels import LevelConfig
from repro.qos.admission import QosConfig
from repro.qos.breaker import BreakerConfig
from repro.wildfire.engine import ShardConfig
from repro.wildfire.rebalance import RebalanceConfig
from tests.tools.program_tree import as_sources, program_sources

CONFIGS = (
    UmziConfig, ShardConfig, LevelConfig, QosConfig, BreakerConfig,
    RebalanceConfig,
)

TEST_ONLY = {
    "ShardConfig.partition_buckets":
        "TestColumnPathMatchesRecordPath in test_postgroomer_unit.py draws "
        "it as a dimension: one bucket is the only value whose post-groom "
        "writes each PSN as a single block, so every predecessor the sweep "
        "finds in that PSN shares its block",
}


def _callee(node: ast.Call):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def reached_fields(sources, configs):
    """``Class.field`` of every field of ``configs`` some source sets."""
    fields = {
        config.__name__: [f.name for f in dataclasses.fields(config)]
        for config in configs
    }
    reached = set()
    for source in as_sources(sources):
        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            callee = _callee(node)
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            if callee in fields:
                names = fields[callee]
                keywords.update(names[:len(node.args)])
                reached.update(
                    f"{callee}.{name}" for name in names if name in keywords
                )
            elif callee == "replace":
                reached.update(
                    f"{config}.{name}"
                    for config, names in fields.items()
                    for name in names if name in keywords
                )
    return reached


def unreached(sources, configs, test_only):
    """(fields no source sets and ``test_only`` omits, stale entries)."""
    every = {
        f"{config.__name__}.{f.name}"
        for config in configs for f in dataclasses.fields(config)
    }
    reached = reached_fields(sources, configs)
    return (
        sorted(every - reached - set(test_only)),
        sorted(set(test_only) & reached),
    )


def test_the_walk_sees_keyword_positional_and_replace_callers():
    @dataclasses.dataclass(frozen=True)
    class Knobs:
        a: int = 0
        b: int = 0
        c: int = 0
        d: int = 0

    sources = [
        "Knobs(1, c=2)\n",
        "import dataclasses\ndataclasses.replace(knobs, d=3)\n",
        "Other(b=4)\n",
    ]
    assert reached_fields(sources, [Knobs]) == {"Knobs.a", "Knobs.c", "Knobs.d"}
    assert unreached(sources, [Knobs], {}) == (["Knobs.b"], [])
    assert unreached(sources, [Knobs], {"Knobs.b": "why"}) == ([], [])
    assert unreached(sources, [Knobs], {"Knobs.b": "", "Knobs.a": ""}) == (
        [], ["Knobs.a"]
    )


def test_every_config_field_has_a_caller_or_a_reason():
    missing, stale = unreached(program_sources(), CONFIGS, TEST_ONLY)
    assert missing == [], f"fields only tests set: {missing}"
    assert stale == [], f"TEST_ONLY entries a program now sets: {stale}"
    assert all(TEST_ONLY.values())
