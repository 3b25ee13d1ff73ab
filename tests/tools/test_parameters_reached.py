"""Every defaulted parameter of a public ``src/`` function has a caller
outside ``tests/``.

The sibling of ``test_config_fields_reached.py`` for signatures.  A
parameter with a default is a setting only if some program passes it:
every ``.py`` under ``src/``, ``benchmarks/``, ``examples/`` and ``tools/``
is read through the owner-resolving reader in ``program_tree.py``, and a
parameter counts as passed when a call reaching its function (or, for
``__init__``, its class or a subclass that inherits the constructor)
hands it over by keyword or by position.  Where the reader resolves the
call's receiver, only that owner's function is reached; elsewhere a call
reaches every function of its name (the names ``test_functions_reached``
lists in ``MATCHED_BY_NAME``).  A call spreading ``*args`` or
``**kwargs`` passes everything its callee takes, and a call through
``getattr(...)`` reaches what the reader says it dispatches to -- that is
how ``ShardedTable._serve`` dispatches ``QueryKind.live``.

A ``dataclasses.replace(obj, name=...)`` call passes the field ``name``
of ``obj``'s class and its bases where the reader resolves ``obj``, and of
every dataclass otherwise; it never passes a hand-written ``__init__``'s
parameter.

A parameter no program passes is a branch only tests reach: it becomes
the value every caller already gets, or it is listed in
:data:`TEST_ONLY` with the reason it stays.  A ``TEST_ONLY`` entry that a
program now passes, or whose parameter is gone, is stale and fails too.

The constructor a frozen ``@dataclass`` generates is read off its
fields: a defaulted field (a value, or ``field(default=...)`` /
``default_factory``) is a parameter at its place among the ``__init__``
fields, base classes' first, or keyword-only under ``kw_only``; a
``ClassVar`` or a ``field(init=False)`` is none.  A mutable dataclass's
plain defaults are the initial values of counters its code bumps, so only
its ``default_factory`` fields are read: a container a caller could hand
over, which internal state (a memo) declares ``init=False``.  A class some
source builds with ``object.__new__`` fills its fields without the
constructor, so it is not read.  The config dataclasses
are left to ``test_config_fields_reached.py``, which also sees
``dataclasses.replace``.
"""

import ast
from dataclasses import dataclass

from tests.tools.program_tree import (
    Library,
    as_sources,
    decorated,
    is_public,
    library,
    program_sources,
)

CONFIG_CLASSES = {
    "UmziConfig", "ShardConfig", "LevelConfig", "QosConfig", "BreakerConfig",
    "RebalanceConfig",
}

TEST_ONLY = {
    "StorageHierarchy.read_many(intent)":
        "benchmarks/e2e/tracer.py still lists read_many as a boundary; "
        "the door and its intent go with that boundary in a benchmark "
        "change",
    "FaultPlan(crash_triggers)":
        "the crash half of a fault universe: only the crash-recovery "
        "oracles arm crash points, each from a CrashSchedule of a plan's "
        "triggers (tests/fault_plans.py draws them from a seed)",
    "SeparateZoneIndexes(evolution_order)":
        "REMOVE_THEN_ADD is the paper's missing-result anomaly of separate "
        "per-zone indexes, which only tests show",
}


@dataclass(frozen=True)
class Parameter:
    """One defaulted parameter and the definition that takes it."""

    key: str  # ``Owner.function(name)``, or ``Class(name)`` for __init__
    owner: str  # the definition key: ``Owner.function``, or ``Class``
    name: str
    position: int | None  # among the positional arguments a call passes


def _signature(function: ast.FunctionDef, method: bool):
    args = function.args
    positional = args.posonlyargs + args.args
    if method and not decorated(function, "staticmethod"):
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):]
    yield from (
        (arg.arg, positional.index(arg)) for arg in defaulted
    )
    yield from (
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )

def defaulted_parameters(library: Library):
    """Every defaulted parameter of a public function, method or
    constructor ``library`` defines (module-level and class-level defs)."""
    found = []
    classes = {name: info.node for name, info in library.classes.items()}
    built_bare = {  # classes some source builds with ``object.__new__``
        node.args[0].id
        for source in library.sources for node in source.nodes
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__"
        and node.args and isinstance(node.args[0], ast.Name)
    }
    for key, node, owner in library.definitions():
        found.extend(
            Parameter(f"{key}({name})", key, name, position)
            for name, position in _signature(node, method=owner is not None)
        )
    for name, info in library.classes.items():
        if not is_public(name):
            continue
        if "__init__" in info.methods:
            found.extend(
                Parameter(f"{name}({arg})", name, arg, position)
                for arg, position in _signature(info.methods["__init__"], method=True)
            )
        elif name not in CONFIG_CLASSES | built_bare:
            found.extend(
                Parameter(f"{name}({field})", name, field, position)
                for field, position, read, own in _dataclass_fields(info.node, classes)
                if read and own
            )
    return found


def _dataclass_options(cls: ast.ClassDef):
    """The ``@dataclass`` decorator's keywords, or ``None`` if it has none
    (``{}`` for a bare ``@dataclass``)."""
    for decorator in cls.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        target = call.func if call else decorator
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name == "dataclass":
            return {kw.arg: kw.value for kw in call.keywords} if call else {}
    return None


def _dataclass_fields(cls: ast.ClassDef, classes):
    """``(name, position, read, own)`` of every parameter of the
    constructor ``@dataclass`` generates for ``cls``, base classes' fields
    first; ``position`` is ``None`` for a keyword-only field, ``read`` is
    whether the guard counts it (see the module docstring)."""
    options = _dataclass_options(cls)
    if options is None:
        return []
    frozen = ast.literal_eval(options.get("frozen", ast.Constant(False)))
    fields = [
        (name, position, read, False)
        for base in cls.bases if isinstance(base, ast.Name) and base.id in classes
        for name, position, read, _own in _dataclass_fields(classes[base.id], classes)
    ]
    kw_only = ast.literal_eval(options.get("kw_only", ast.Constant(False)))
    positional = sum(position is not None for _, position, _, _ in fields)
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        annotation = ast.unparse(item.annotation)
        if annotation.startswith(("ClassVar", "typing.ClassVar")):
            continue
        if annotation.endswith("KW_ONLY"):
            kw_only = True
            continue
        value, keywords = item.value, {}
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {kw.arg: kw.value for kw in value.keywords}
            if "init" in keywords and not ast.literal_eval(keywords["init"]):
                continue
            read = "default_factory" in keywords or frozen and "default" in keywords
        else:
            read = frozen and value is not None
        keyword = kw_only or ast.literal_eval(keywords.get("kw_only", ast.Constant(False)))
        fields.append((item.target.id, None if keyword else positional, read, True))
        positional += not keyword
    return fields

def reached_parameters(library: Library, sources, parameters):
    """Keys of the ``parameters`` some call in ``sources`` passes."""
    by_owner = {}
    for parameter in parameters:
        by_owner.setdefault(parameter.owner, []).append(parameter)
    reached = set()
    for source in as_sources(sources):
        for reference in library.references(source):
            call = reference.call
            if call is None:
                continue
            targets = set()
            for key in (library.by_name(reference.name) if reference.keys is None
                        else reference.keys):
                targets |= (library.constructor_targets(key)
                            if key in library.classes else {key})
            spread = any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                kw.arg is None for kw in call.keywords
            )
            keywords = {kw.arg for kw in call.keywords}
            for target in targets:
                for parameter in by_owner.get(target, ()):
                    if (
                        spread
                        or parameter.name in keywords
                        or (parameter.position is not None
                            and parameter.position < len(call.args))
                    ):
                        reached.add(parameter.key)
        for classes, call in library.replaced(source):
            owners = None if classes is None else {
                owner for cls in classes for owner in library.mro(cls)}
            keywords = {kw.arg for kw in call.keywords}
            reached.update(
                parameter.key for parameter in parameters
                if parameter.owner in library.classes
                and "__init__" not in library.classes[parameter.owner].methods
                and (owners is None or parameter.owner in owners)
                and (None in keywords or parameter.name in keywords)
            )
    return reached


def unreached(library: Library, sources, test_only):
    """(parameters no source passes and ``test_only`` omits, stale
    entries: passed by a program, or no longer a parameter)."""
    parameters = defaulted_parameters(library)
    every = {parameter.key for parameter in parameters}
    reached = reached_parameters(library, sources, parameters)
    return (
        sorted(every - reached - set(test_only)),
        sorted((set(test_only) & reached) | (set(test_only) - every)),
    )


def test_the_walk_sees_every_way_a_parameter_is_passed():
    library = (
        "def fetch(key, limit=1, *, fresh=False): pass\n"
        "def _private(flag=True): pass\n"
        "class Store:\n"
        "    def __init__(self, path, budget=8, *, mode='a'): pass\n"
        "    def read(self, block, retries=3, *, intent=None): pass\n"
        "    @staticmethod\n"
        "    def build(size=4): pass\n"
        "    def _hidden(self, tries=2): pass\n"
        "class Cached(Store):\n"
        "    pass\n"
        "class Sized(Store):\n"
        "    def __init__(self, size=1):\n"
        "        super().__init__('p', mode='c')\n"
        "class _Inner:\n"
        "    def read(self, depth=1): pass\n"
    )
    lib = Library([library])
    parameters = defaulted_parameters(lib)
    assert {p.key for p in parameters} == {
        "fetch(limit)", "fetch(fresh)", "Store(budget)", "Store(mode)",
        "Sized(size)",
        "Store.read(retries)", "Store.read(intent)", "Store.build(size)",
    }
    callers = [
        "fetch(k, 2)\n",
        "Cached('p', mode='b')\n",
        "Sized(2)\n",
        "store.read(b, intent=None)\n",
        "Store.build(4)\n",
    ]
    assert unreached(lib, callers, {}) == (
        ["Store(budget)", "Store.read(retries)", "fetch(fresh)"], []
    )
    assert unreached(lib, callers, {
        "Store(budget)": "why", "Store.read(retries)": "why",
        "fetch(fresh)": "why", "fetch(limit)": "stale", "gone(x)": "stale",
    }) == ([], ["fetch(limit)", "gone(x)"])
    spread = [library, "fetch(k, **options)\n", "getattr(obj, 'read')(*args)\n"]
    assert unreached(lib, spread, {}) == (
        ["Sized(size)", "Store(budget)", "Store.build(size)"], []
    )


def test_the_walk_sees_the_constructor_a_dataclass_generates():
    library = (
        "@dataclass(frozen=True)\n"
        "class Plain:\n"
        "    key: int\n"
        "    limit: int = 1\n"
        "    tags: tuple = field(default_factory=tuple)\n"
        "    hidden: int = field(default=0, init=False)\n"
        "    KIND: ClassVar[str] = 'p'\n"
        "    def size(self, scale=2): pass\n"
        "@dataclass(frozen=True)\n"
        "class Child(Plain):\n"
        "    extra: int = 2\n"
        "    _: KW_ONLY\n"
        "    late: int = 3\n"
        "@dataclasses.dataclass(frozen=True, kw_only=True)\n"
        "class Keyed:\n"
        "    mode: str = 'a'\n"
        "@dataclass(frozen=True)\n"
        "class Written:\n"
        "    x: int = 1\n"
        "    def __init__(self, y=1): pass\n"
        "@dataclass\n"
        "class Counters:\n"
        "    hits: int = 0\n"
        "    seen: dict = field(default_factory=dict)\n"
        "    memo: dict = field(default_factory=dict, init=False)\n"
        "@dataclass(frozen=True)\n"
        "class Bare:\n"
        "    z: int = 0\n"
        "    def copy(self): return object.__new__(Bare)\n"
        "class Plainclass:\n"
        "    size: int = 3\n"
    )
    lib = Library([library])
    parameters = {p.key: p for p in defaulted_parameters(lib)}
    assert set(parameters) == {
        "Plain(limit)", "Plain(tags)", "Plain.size(scale)", "Child(extra)",
        "Child(late)", "Keyed(mode)", "Written(y)", "Counters(seen)",
    }
    assert [parameters[k].position for k in ("Plain(limit)", "Plain(tags)")] == [1, 2]
    assert parameters["Child(extra)"].position == 3  # after Plain's three
    assert parameters["Child(late)"].position is None
    assert parameters["Keyed(mode)"].position is None
    callers = [
        "Plain(1, 2)\n",  # limit, by position
        "Child(0, tags=())\n",  # a subclass passes its base's field
        "Keyed('b')\n",  # a keyword-only field takes no position
        "Child(0, 1, (), 2, 3)\n",  # nor does Child's ``late``
    ]
    assert unreached(lib, callers, {}) == (
        ["Child(late)", "Counters(seen)", "Keyed(mode)", "Plain.size(scale)",
         "Written(y)"], []
    )


def test_the_walk_reads_replace_as_passing_a_field():
    lib = Library([
        "@dataclass(frozen=True)\n"
        "class Plan:\n"
        "    key: int\n"
        "    hint: str = ''\n"
        "    limit: int = 0\n"
        "@dataclass(frozen=True)\n"
        "class Narrow(Plan):\n"
        "    depth: int = 0\n"
        "@dataclass(frozen=True)\n"
        "class Other:\n"
        "    hint: str = ''\n"
        "class Plain:\n"
        "    def __init__(self, hint=''):\n"
        "        self.hint = hint\n"
    ])
    resolved = [
        "import dataclasses\n"
        "def f(plan: Narrow):\n"
        "    return dataclasses.replace(plan, hint='x')\n"
    ]
    assert unreached(lib, resolved, {}) == (
        ["Narrow(depth)", "Other(hint)", "Plain(hint)", "Plan(limit)"], []
    )
    # Unresolved, ``p`` may be any dataclass -- but no plain class.
    by_name = ["from dataclasses import replace\ndef g(p):\n    return replace(p, hint='x')\n"]
    assert unreached(lib, by_name, {}) == (["Narrow(depth)", "Plain(hint)", "Plan(limit)"], [])
    spread = ["def h(p, changes):\n    return replace(p, **changes)\n"]
    assert unreached(lib, spread, {}) == (["Plain(hint)"], [])
    assert unreached(lib, resolved, {"Plan(hint)": "stale"}) == (
        ["Narrow(depth)", "Other(hint)", "Plain(hint)", "Plan(limit)"], ["Plan(hint)"]
    )


def test_a_parameter_hidden_behind_a_same_named_function_is_found():
    lib = Library([
        "class Index:\n"
        "    def entry_count(self, level=0): pass\n"
        "class Policy:\n"
        "    def entry_count(self, shard=0): pass\n"
    ])
    resolved = ["def f(policy: Policy):\n    return policy.entry_count(shard=2)\n"]
    assert unreached(lib, resolved, {}) == (["Index.entry_count(level)"], [])
    by_name = ["def g(x):\n    return x.entry_count(level=1)\n"]
    assert unreached(lib, by_name, {}) == (["Policy.entry_count(shard)"], [])


def test_every_defaulted_parameter_has_a_caller_or_a_reason():
    missing, stale = unreached(library(), program_sources(), TEST_ONLY)
    assert missing == [], f"parameters only tests pass: {missing}"
    assert stale == [], f"stale TEST_ONLY entries: {stale}"
    assert all(TEST_ONLY.values())
