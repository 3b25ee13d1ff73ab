"""Every public ``src/`` function, method and property has a reference
outside ``tests/``.

The sibling of ``test_parameters_reached.py`` for whole definitions.  A
module-level function, or a method or property of a public class, is
part of the program only if some program names it: every ``.py`` under
``src/``, ``benchmarks/``, ``examples/`` and ``tools/`` is read through
the owner-resolving reader in ``program_tree.py``, and a definition
counts as reached when a call, a bound-method or function reference, a
property read or a ``getattr(...)(...)`` dispatch reaches it -- through a
receiver whose class resolves to its owner, a subclass that inherits it
or a base it overrides, or by name where the receiver does not resolve.
A reference from inside the definition's own body does not count.

A definition no program reaches is code only tests run: it is deleted,
moved into ``tests/`` beside the oracle built on it, or listed in
:data:`TEST_ONLY` with the reason it stays.  A ``TEST_ONLY`` entry that a
program now reaches, or whose definition is gone, is stale and fails
too.  The names the reader can only match by name are listed in
:data:`MATCHED_BY_NAME`: a definition of one of them can hide behind a
same-named one's callers, so a new name there is a reviewed decision.
"""

from tests.tools.program_tree import (
    Library,
    Source,
    as_sources,
    library,
    program_sources,
)

TEST_ONLY = {
    "StorageHierarchy.read_many":
        "benchmarks/e2e/tracer.py still lists read_many as a boundary; "
        "the door goes with that boundary in a benchmark change",
    "ShardedTable.recover_migration":
        "the operator's door after a crash mid-split or mid-merge: it "
        "rolls the interrupted migration back or forward",
    "FaultyTier.set_outage":
        "the hard-outage switch of the fault-injecting tier; give-up and "
        "degraded-mode scenarios turn it on and off",
    "Transaction.upsert":
        "the one-row form of a transaction's write; programs stage "
        "batches with upsert_many",
    "Transaction.abort":
        "discards a transaction's side-log: half of the transaction API, "
        "whose commit programs call",
    "SeparateZoneIndexes.scan_naive_union":
        "the paper's anomaly of separate per-zone indexes (duplicate or "
        "missing rows mid-evolution), which only tests show",
    "decompose_begin_ts":
        "the beginTS bit layout lives in wildfire/clock.py alone; the "
        "horizon oracle reads a version's groom cycle through it",
    "IOStats.reset":
        "zeroes a ledger in place, keeping each tier's bound row; the "
        "storage-ledger equivalence property interleaves it with charges",
    "encode_columns":
        "the row-tuple twin of encode_batch: the groom-kernel and "
        "post-groom oracles encode row tuples with it, where the program "
        "encodes the column batches it already holds",
    "install_crash_schedule":
        "the only way to arm crash_point: the crash-recovery oracles "
        "install a schedule around the operation they crash",
}

# Defined by more than one class (or module) and reached through a
# receiver the reader cannot resolve, so matched by name.
MATCHED_BY_NAME = frozenset({
    "admit", "append", "backlog_ns", "batch_lookup", "delete_namespace",
    "drain", "evolve_streaming", "explain", "from_bytes", "ingest",
    "insert", "key_columns", "lookup", "max_groomed_id", "pin",
    "point_query", "positions", "query", "read", "recover", "release",
    "run_cycles", "scan", "scatter_shards", "snapshot", "start",
    "start_daemons", "state", "stats", "step", "stop_daemons", "summary",
    "tick", "to_bytes", "write",
})


def reached(library: Library, sources) -> set:
    """Keys of the definitions some reference in ``sources`` reaches."""
    keys, names = set(), set()
    for source in as_sources(sources):
        for reference in library.references(source):
            if reference.keys is None:
                names.add(reference.name)
            else:
                keys.update(k for k in reference.keys if k != reference.scope.key)
    return keys | {
        key for key, _node, _owner in library.definitions()
        if key.rpartition(".")[2] in names
    }


def unreached(library: Library, sources, test_only):
    """(definitions no source reaches and ``test_only`` omits, stale
    entries: reached by a program, or no longer defined)."""
    every = {key for key, _node, _owner in library.definitions()}
    hit = reached(library, sources)
    return (
        sorted(every - hit - set(test_only)),
        sorted((set(test_only) & hit) | (set(test_only) - every)),
    )


LIBRARY = (
    "import threading\n"
    "def helper(x): return x\n"
    "def _private(): pass\n"
    "def recursive(n): return recursive(n - 1) if n else 0\n"
    "class Store:\n"
    "    def __init__(self, path: str):\n"
    "        self.lock = threading.Lock()\n"
    "    def read(self, key): return self._fetch(key)\n"
    "    def _fetch(self, key): return key\n"
    "    def unused(self): pass\n"
    "    @property\n"
    "    def size(self): return 0\n"
    "    def count(self): return 1\n"
    "class Policy:\n"
    "    def __init__(self, store: Store):\n"
    "        self.store = store\n"
    "        self.cache = Cache()\n"
    "    def count(self, shard): return self.store.read(shard)\n"
    "    def plan(self): return self.count(0) + self.cache.hits()\n"
    "class Cache:\n"
    "    def hits(self): return 0\n"
    "    def misses(self): return 0\n"
    "class Faster(Cache):\n"
    "    def hits(self): return 1\n"
    "class _Inner:\n"
    "    def count(self): pass\n"
)
MAIN = (
    "def main(store: Store):\n"
    "    policy = Policy(store)\n"
    "    print(store.size, policy.plan(), helper)\n"
)


def test_the_guard_resolves_each_evident_owner():
    lib = Library([LIBRARY])
    assert {key for key, _n, _o in lib.definitions()} == {
        "helper", "recursive", "Store.read", "Store.unused", "Store.size",
        "Store.count", "Policy.count", "Policy.plan", "Cache.hits",
        "Cache.misses", "Faster.hits",
    }
    callers = [LIBRARY, MAIN]
    # ``policy.count``'s owner resolves, so ``Store.count`` -- reached
    # only through the same-named ``Policy.count`` -- is not; a call on
    # ``self.cache`` reaches ``Cache.hits`` and its override in ``Faster``;
    # ``recursive`` only names itself.
    assert unreached(lib, callers, {}) == (
        ["Cache.misses", "Store.count", "Store.unused", "recursive"], []
    )
    assert lib.ambiguous(callers) == set()


def test_imports_and_aliases_resolve_to_their_module():
    lib = Library([
        Source.of("class Store:\n    def read(self): pass\n    def scan(self): pass\n"
                  "def build(): return Store()\n", "pkg.store"),
        Source.of("class Other:\n    def read(self): pass\n"
                  "    def scan(self): pass\n", "pkg.other"),
        Source.of("from pkg.store import Store, build\n", "pkg"),
    ])
    callers = [
        "import pkg.store as st\nst.Store().read()\n",
        "from pkg import Store as S, build\nS.scan(build())\n",
        "import pkg.other\nx = pkg.other.Other\n",
    ]
    assert unreached(lib, callers, {})[0] == ["Other.read", "Other.scan"]


def test_containers_and_loops_carry_their_element_class():
    lib = Library([
        "from typing import List\n"
        "class Run:\n"
        "    def size(self): return 1\n"
        "class Bloom:\n"
        "    def size(self): return 2\n"
        "class Index:\n"
        "    def runs(self) -> List[Run]: return []\n"
    ])
    callers = [
        "from typing import Dict\n"
        "def f(index: Index, by_id: Dict[int, Run]):\n"
        "    for i, run in enumerate(index.runs()):\n"
        "        run.size()\n"
        "    return [r.size() for r in by_id.values()], by_id[0].size()\n"
    ]
    assert unreached(lib, callers, {})[0] == ["Bloom.size"]
    assert lib.ambiguous(callers) == set()


def test_an_unresolved_receiver_matches_by_name_and_is_listed():
    lib = Library([LIBRARY])
    callers = [LIBRARY, MAIN, "def run(thing):\n    return thing.count()\n"]
    assert unreached(lib, callers, {})[0] == [
        "Cache.misses", "Store.unused", "recursive"
    ]
    assert lib.ambiguous(callers) == {"count"}


def test_a_read_that_is_not_called_reaches_a_data_attribute_first():
    lib = Library([
        "class Run:\n"
        "    def __init__(self): self.entries = 0\n"
        "class Index:\n"
        "    def entries(self): return 1\n"
    ])
    assert unreached(lib, ["def f(run): return run.entries\n"], {})[0] == [
        "Index.entries"
    ]
    assert unreached(lib, ["def f(x): return x.entries()\n"], {})[0] == []


def test_getattr_dispatch_reaches_only_what_it_calls():
    lib = Library([
        "class Gen:\n"
        "    def random_scan(self): pass\n"
        "    def random_batch(self): pass\n"
        "    def live(self): pass\n"
        "    def wrapped(self): pass\n"
    ])
    callers = [
        "def f(gen, kind): return getattr(gen, f'{kind}_scan')()\n",
        "KIND = 'live'\ndef g(gen, kind): return getattr(gen, kind)()\n",
        "def h(gen): wrap(getattr(gen, 'wrapped'))\n",  # a tracer's wrap
    ]
    assert unreached(lib, callers, {})[0] == ["Gen.random_batch", "Gen.wrapped"]


def test_a_stale_or_missing_reason_fails():
    lib = Library([LIBRARY])
    callers = [LIBRARY, MAIN, "Store('p').unused()\n"]
    missing, stale = unreached(lib, callers, {
        "Store.unused": "reached now", "Gone.method": "deleted",
        "Store.count": "why", "Cache.misses": "why", "recursive": "why",
    })
    assert (missing, stale) == ([], ["Gone.method", "Store.unused"])


def test_every_public_function_has_a_caller_or_a_reason():
    missing, stale = unreached(library(), program_sources(), TEST_ONLY)
    assert missing == [], f"functions only tests reach: {missing}"
    assert stale == [], f"stale TEST_ONLY entries: {stale}"
    assert all(TEST_ONLY.values())


def test_the_names_matched_by_name_are_written_down():
    found = library().ambiguous(program_sources())
    assert sorted(found - MATCHED_BY_NAME) == [], "new names matched by name"
    assert sorted(MATCHED_BY_NAME - found) == [], "names that now resolve"
