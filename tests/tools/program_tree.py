"""The program tree, parsed once, and the owner-resolving reader the
tooling guards share.

Every ``.py`` under ``src/``, ``benchmarks/``, ``examples/`` and
``tools/`` is read and parsed once per test session (:func:`parsed`);
the guards in this folder all read that one result.

:class:`Library` indexes what ``src/`` defines -- module-level functions,
classes, their methods and properties, and what each attribute holds --
and :meth:`Library.references` walks a source and resolves what each
name, attribute and ``getattr`` dispatch reaches.  A receiver's class is
resolved wherever it is evident:

* ``self`` / ``cls`` in a method: the method the class or a base
  defines, and every subclass's override;
* ``self.x``, where the class body annotates ``x`` or its methods assign
  it only instances of known classes (a constructor call, an annotated
  parameter, a method call annotated to return one);
* a local name assigned the same way, an annotated parameter, or a loop
  or comprehension variable over a container annotated to hold one
  class (``List[C]``, ``Tuple[C, ...]``, a ``Dict[K, C]``'s values, the
  items of ``enumerate`` over one);
* a module-level name, a module-level import or an import alias
  (``mod.f``, ``Class.method``, ``Class(...)``).

An attribute of a builtin container reaches nothing, nor does a read
that is not called, of an unresolved receiver, where some class holds a
data attribute of that name (no property shares it).
Anything else is matched by name, so a function can still hide behind a
same-named one that an unresolved receiver reaches:
:meth:`Library.ambiguous` lists those names, and
``test_functions_reached.py`` keeps the list written down.  A call
through ``getattr(obj, name)(...)`` reaches the literal it names, every
name matching an f-string's fixed parts, or -- for any other name --
every string literal in its source (``ShardedTable._serve`` dispatching
``QueryKind.live``).  A ``getattr`` whose result is not called (the e2e
tracer's boundaries, which wrap a method) reaches nothing.
"""

import ast
import functools
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[2]
PROGRAM_DIRS = ("src", "benchmarks", "examples", "tools")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_UNBOUND = object()


@dataclass(frozen=True)
class Source:
    """One parsed file; ``module`` is its dotted name under ``src/``, its
    path elsewhere."""

    path: str
    text: str
    tree: ast.Module
    module: str

    @functools.cached_property
    def nodes(self) -> list:
        """Every node of ``tree``, walked once."""
        return list(ast.walk(self.tree))

    @classmethod
    def of(cls, text: str, module: str = ""):
        """A self-test's source; its module name defaults to its text's
        digest."""
        module = module or f"m{zlib.crc32(text.encode())}"
        return cls("<string>", text, ast.parse(text), module)


@functools.cache
def parsed(folder: str) -> tuple:
    """Every ``.py`` under ``ROOT / folder``, sorted, parsed once."""
    sources = []
    for path in sorted((ROOT / folder).rglob("*.py")):
        parts = path.relative_to(ROOT / folder).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        text = path.read_text()
        name = str(path.relative_to(ROOT))
        sources.append(Source(
            name, text, ast.parse(text, name),
            ".".join(parts) if folder == "src" else name,
        ))
    return tuple(sources)


def program_sources() -> tuple:
    return tuple(source for folder in PROGRAM_DIRS for source in parsed(folder))


def as_sources(items) -> list:
    """Sources from ``Source`` objects or bare texts (a self-test's)."""
    return [item if isinstance(item, Source) else Source.of(item) for item in items]


@functools.cache
def library() -> "Library":
    """The session's one :class:`Library` of ``src/``."""
    return Library(parsed("src"))


def is_public(name: str) -> bool:
    return not name.startswith("_")


def decorated(function, name: str) -> bool:
    return any(
        getattr(d, "id", None) == name or getattr(d, "attr", None) == name
        for d in function.decorator_list
    )


def _targets(node):
    """Names an assignment target binds (not those it subscripts)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Tuple, ast.List)):
        return [name for item in node.elts for name in _targets(item)]
    if isinstance(node, ast.Starred):
        return _targets(node.value)
    return []


class Reference(NamedTuple):
    """A name, attribute or ``getattr(...)(...)`` dispatch that may reach
    a definition.  ``keys`` are the definition keys it reaches when its
    owner resolves (class keys for a constructor), else ``None``, and it
    is matched by ``name``; ``call`` is the call it is the callee of."""

    scope: "Scope"
    node: ast.AST
    keys: Optional[set]
    name: str
    call: Optional[ast.Call]


class ClassInfo:
    def __init__(self, node: ast.ClassDef, module: str):
        self.node = node
        self.module = module
        self.bases = []  # the bases ``src/`` defines
        self.methods = {
            item.name: item for item in node.body if isinstance(item, _FUNCTIONS)
        }
        self.attributes = {}  # name -> the kind it holds, or None if unknown


# What an expression holds, as far as the reader can tell: ``("instance",
# classes)``, ``("elements", classes or None)`` (a builtin container of
# instances of ``classes``), ``("mapping", classes or None)`` (a dict whose
# values are), ``("class", C)``, ``("function", f)``, ``("module", m)``,
# ``_NONE`` (the constant ``None``) or ``None`` (unknown).
_NONE = ("none",)
_CONTAINERS = {
    "List", "list", "Sequence", "MutableSequence", "Iterable", "Iterator",
    "Collection", "Set", "set", "FrozenSet", "frozenset", "AbstractSet",
    "Deque", "deque", "Tuple", "tuple",
}
_MAPPINGS = {"Dict", "dict", "Mapping", "MutableMapping", "DefaultDict", "defaultdict"}


def merge(kinds):
    """The kind of a name bound to each of ``kinds``: ``None`` if one is
    unknown or they disagree (a ``None`` value binds nothing)."""
    kinds = [kind for kind in kinds if kind is not _NONE]
    if not kinds or None in kinds:
        return None
    first = kinds[0][0]
    if any(kind[0] != first for kind in kinds):
        return None
    if first == "instance":
        return (first, frozenset().union(*(kind[1] for kind in kinds)))
    if first in ("elements", "mapping"):
        if any(kind[1] is None for kind in kinds):
            return (first, None)
        return (first, frozenset().union(*(kind[1] for kind in kinds)))
    return kinds[0] if all(kind == kinds[0] for kind in kinds) else None


def _instances(kind):
    return kind[1] if kind is not None and kind[0] == "instance" else None


class Library:
    """What ``src/`` defines, and the resolution of references to it."""

    def __init__(self, sources):
        self.sources = as_sources(sources)
        self.modules = {source.module: source for source in self.sources}
        self.classes = {}  # name -> ClassInfo
        self.functions = {}  # name -> (module, FunctionDef)
        for source in self.sources:
            for node in source.tree.body:
                if isinstance(node, (ast.ClassDef, *_FUNCTIONS)) and (
                        node.name in self.classes or node.name in self.functions):
                    raise ValueError(f"two top-level definitions are named {node.name}: "
                                     "the guards key definitions by name")
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name] = ClassInfo(node, source.module)
                elif isinstance(node, _FUNCTIONS):
                    self.functions[node.name] = (source.module, node)
        self.defined = {}  # name -> how many classes and modules define it
        self.properties = set()  # names some class defines as a property
        for info in self.classes.values():
            names = [getattr(b, "id", None) or getattr(b, "attr", None)
                     for b in info.node.bases]
            info.bases = [name for name in names if name in self.classes]
            for name, method in info.methods.items():
                self.defined[name] = self.defined.get(name, 0) + 1
                if decorated(method, "property"):
                    self.properties.add(name)
        for name in self.functions:
            self.defined[name] = self.defined.get(name, 0) + 1
        self.subclasses = {name: set() for name in self.classes}
        for name in self.classes:
            for ancestor in self.mro(name)[1:]:
                self.subclasses[ancestor].add(name)
        self._scopes = {}
        self._references = {}
        self._replaced = {}  # source -> its ``dataclasses.replace`` calls
        self._bindings = {}  # id of a function node -> its Bindings
        self._callers = {}  # module -> a source outside the library
        self.data_attributes = set()  # names some class holds as data
        for info in self.classes.values():
            info.attributes = self._attributes(info)

    def mro(self, name: str) -> list:
        order = [name]
        for base in self.classes[name].bases:
            order += [c for c in self.mro(base) if c not in order]
        return order

    def definitions(self):
        """``(key, node, owner)`` of every public module-level function
        and every public method or property of a public class; ``owner``
        is the class name, or ``None``."""
        for name, (_, node) in self.functions.items():
            if is_public(name):
                yield name, node, None
        for cls, info in self.classes.items():
            if is_public(cls):
                for name, node in info.methods.items():
                    if is_public(name):
                        yield f"{cls}.{name}", node, cls

    def node_of(self, key: str):
        cls, _, name = key.rpartition(".")
        if cls:
            return self.classes[cls].methods[name], self.classes[cls].module
        return self.functions[name][1], self.functions[name][0]

    def method_targets(self, classes, name: str) -> set:
        """Keys of the ``name`` a receiver of one of ``classes`` reaches:
        the one its class or a base defines, and subclasses' overrides."""
        targets = set()
        for cls in classes:
            for owner in self.mro(cls):
                if name in self.classes[owner].methods:
                    targets.add(f"{owner}.{name}")
                    break
            targets.update(
                f"{sub}.{name}" for sub in self.subclasses[cls]
                if name in self.classes[sub].methods
            )
        return targets

    def constructor_targets(self, cls: str) -> set:
        """Class keys whose ``__init__`` parameters a ``cls(...)`` call
        can pass: ``cls`` and its bases up to the first that writes an
        ``__init__`` (a dataclass's generated one takes its bases' fields
        at their places)."""
        targets = set()
        for owner in self.mro(cls):
            targets.add(owner)
            if "__init__" in self.classes[owner].methods:
                break
        return targets

    def by_name(self, name: str) -> set:
        """Every definition key called ``name``."""
        keys = {
            f"{cls}.{name}" for cls, info in self.classes.items()
            if name in info.methods
        }
        if name in self.functions or name in self.classes:
            keys.add(name)
        return keys

    # -- module scopes -------------------------------------------------

    def resolve_global(self, module: str, name: str, depth: int = 0):
        """The kind ``name`` has at the top level of ``module``: ``None``
        if bound to something else, ``_UNBOUND`` if not bound."""
        scope = self._scope(module, depth)
        if name in scope:
            return scope[name]
        if f"{module}.{name}" in self.modules:
            return ("module", f"{module}.{name}")
        return _UNBOUND

    def _scope(self, module: str, depth: int) -> dict:
        if module not in self._scopes:
            self._scopes[module] = {}
            source = self.modules.get(module) or self._callers.get(module)
            if source is not None and depth < 8:
                self._scopes[module].update(self._read_scope(source, depth))
        return self._scopes[module]

    def _read_scope(self, source: Source, depth: int) -> dict:
        scope = {}
        for node in source.tree.body:
            if isinstance(node, (ast.ClassDef, *_FUNCTIONS)):
                info = self.classes.get(node.name) or self.functions.get(node.name)
                mine = info is not None and (
                    info.module if isinstance(info, ClassInfo) else info[0]
                ) == source.module
                kind = "class" if isinstance(node, ast.ClassDef) else "function"
                scope[node.name] = (kind, node.name) if mine else None
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name, kind = self.imported(node, alias, source.module, depth)
                    scope[name] = kind
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For,
                                   ast.With)):
                targets = getattr(node, "targets", None) or [
                    getattr(node, "target", None) or node
                ]
                for name in (n for t in targets for n in _targets(t)):
                    scope.setdefault(name, None)
        return scope

    def imported(self, node, alias, module: str, depth: int = 0):
        """``(name, kind)`` an import statement's ``alias`` binds."""
        if isinstance(node, ast.Import):
            if alias.asname:
                return alias.asname, ("module", alias.name)
            top = alias.name.split(".")[0]
            return top, ("module", top)
        base = node.module or ""
        if node.level:
            package = module.split(".")[:1 - node.level or None]
            base = ".".join(package + ([node.module] if node.module else []))
        kind = None
        if f"{base}.{alias.name}" in self.modules:
            kind = ("module", f"{base}.{alias.name}")
        elif base in self.modules and base != module:
            kind = self.resolve_global(base, alias.name, depth + 1)
            kind = None if kind is _UNBOUND else kind
        return alias.asname or alias.name, kind

    # -- what a name holds ---------------------------------------------

    def annotation_kind(self, annotation, module: str):
        """What an annotation says a value holds: a class (``C``,
        ``Optional[C]``), a container of one (``List[C]``,
        ``Tuple[C, ...]``) or a mapping; ``None`` for anything else."""
        if isinstance(annotation, ast.Subscript):
            head = getattr(annotation.value, "id", None) or getattr(
                annotation.value, "attr", None)
            inner = annotation.slice
            if head == "Optional":
                return merge([self.annotation_kind(inner, module), _NONE])
            if head in _MAPPINGS:
                value = inner.elts[-1] if isinstance(inner, ast.Tuple) else None
                held = _instances(self.annotation_kind(value, module)) if value else None
                return ("mapping", held)
            if head in _CONTAINERS:
                if isinstance(inner, ast.Tuple):
                    ellipsis = (len(inner.elts) == 2 and isinstance(inner.elts[1], ast.Constant)
                                and inner.elts[1].value is Ellipsis)
                    inner = inner.elts[0] if ellipsis else None
                held = _instances(self.annotation_kind(inner, module)) if inner else None
                return ("elements", held)
            return None
        if isinstance(annotation, ast.Name):
            if annotation.id in _CONTAINERS:
                return ("elements", None)
            if annotation.id in _MAPPINGS:
                return ("mapping", None)
            kind = self.resolve_global(module, annotation.id)
            if kind is _UNBOUND and annotation.id in self.classes:
                kind = ("class", annotation.id)
            if isinstance(kind, tuple) and kind[0] == "class":
                return ("instance", frozenset({kind[1]}))
        return None

    def _attributes(self, info: ClassInfo) -> dict:
        written = {}
        for item in info.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                written.setdefault(item.target.id, []).append(
                    self.annotation_kind(item.annotation, info.module))
        for method in info.methods.values():
            scope = Scope(self, info.module, info.node.name, method, None)
            for attr, annotation, value in self.bindings(method).self_writes:
                if annotation is not None:
                    kind = self.annotation_kind(annotation, info.module)
                else:
                    kind = None if value is None else scope.value_kind(value)
                written.setdefault(attr, []).append(kind)
        self.data_attributes.update(written)
        return {name: merge(kinds) for name, kinds in written.items()}

    def bindings(self, function) -> "Bindings":
        """What ``function``'s own body binds, read once."""
        if id(function) not in self._bindings:
            self._bindings[id(function)] = Bindings(function)
        return self._bindings[id(function)]

    def attribute_kind(self, classes, name: str):
        """What ``name`` holds on an instance of one of ``classes``."""
        kinds = []
        for cls in classes:
            owner = next((c for c in self.mro(cls) if name in self.classes[c].attributes),
                         None)
            if owner is None:
                return None
            kinds.append(self.classes[owner].attributes[name])
        return merge(kinds)

    def returned_kind(self, keys):
        """What every one of ``keys`` is annotated to return."""
        kinds = []
        for key in keys:
            node, module = self.node_of(key)
            kinds.append(None if node.returns is None
                         else self.annotation_kind(node.returns, module))
        return merge(kinds) if kinds else None

    # -- references ----------------------------------------------------

    def references(self, source: Source) -> list:
        """Every :class:`Reference` in ``source`` that may reach a
        definition, read once per source and kept."""
        if source not in self._references:
            self._callers.setdefault(source.module, source)
            self._replaced[source] = []
            self._references[source] = list(self._read_references(source))
        return self._references[source]

    def replaced(self, source: Source) -> list:
        """``(classes, call)`` of every ``dataclasses.replace(obj, ...)``
        call in ``source``: the classes ``obj`` holds where that resolves,
        else ``None`` (the call then passes its fields to any dataclass)."""
        self.references(source)
        return self._replaced[source]

    def _read_references(self, source: Source):
        literals = None
        called = {}  # id of a call's callee -> the call
        for scope, node in _walk(self, source):
            if isinstance(node, ast.Call):
                called[id(node.func)] = node
                if (node.args and "replace" in (getattr(node.func, "id", None),
                                                getattr(node.func, "attr", None))
                        and ast.unparse(node.func) in ("replace", "dataclasses.replace")):
                    kind = scope.kind_of(node.args[0])
                    held = kind[1] if kind is not None and kind[0] == "instance" else None
                    self._replaced[source].append((held, node))
            if isinstance(node, ast.Call) and _is_getattr(node.func):
                receiver, name_node = node.func.args[:2]
                if isinstance(name_node, ast.Constant) and isinstance(name_node.value, str):
                    names = [name_node.value]
                    keys, _ = scope.attribute(receiver, name_node.value)
                elif isinstance(name_node, ast.JoinedStr):
                    pattern = re.compile("".join(
                        re.escape(part.value) if isinstance(part, ast.Constant)
                        else ".*" for part in name_node.values
                    ))
                    names, keys = [n for n in self.defined if pattern.fullmatch(n)], None
                else:
                    if literals is None:
                        literals = {
                            n.value for n in source.nodes
                            if isinstance(n, ast.Constant) and isinstance(n.value, str)
                        }
                    names, keys = sorted(literals & self.defined.keys()), None
                for name in names:
                    yield Reference(scope, node, keys, name, node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                call = called.get(id(node))
                if (node.attr == "__init__" and isinstance(node.value, ast.Call)
                        and getattr(node.value.func, "id", None) == "super"):
                    keys = set()
                    for base in self.classes[scope.cls].bases if scope.cls else ():
                        keys |= self.constructor_targets(base)
                    yield Reference(scope, node, keys, node.attr, call)
                    continue
                keys, name = scope.attribute(node.value, node.attr)
                if (keys is None and call is None and name in self.data_attributes
                        and name not in self.properties):
                    keys = set()  # read, not called: the data attribute
                yield Reference(scope, node, keys, name, call)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                kind = scope.kind_of(node)
                if kind is not None and kind[0] in ("class", "function"):
                    yield Reference(scope, node, {kind[1]}, node.id, called.get(id(node)))

    def ambiguous(self, sources) -> set:
        """Names more than one class or module defines that some source
        reaches through an unresolved receiver."""
        return {
            name
            for source in as_sources(sources)
            for reference in self.references(source)
            if reference.keys is None and self.defined.get(name := reference.name, 0) > 1
        }


def _is_getattr(func) -> bool:
    return (isinstance(func, ast.Call) and getattr(func.func, "id", None) == "getattr"
            and len(func.args) >= 2)


class Scope:
    """Name resolution inside one function, or at a module's top level."""

    def __init__(self, library, module, cls, function, outer):
        self.library = library
        self.module = module
        self.cls = cls  # the class whose method ``function`` is
        self.function = function
        self.outer = outer
        self.key = None  # the definition key of ``function``
        self.locals = {}  # name -> its kind
        self._kinds = None  # id of a node -> its kind, once the locals are read
        if function is not None:
            self.key = f"{cls}.{function.name}" if cls else function.name
            self._read_locals()
        self._kinds = {}

    def _read_locals(self):
        function, library = self.function, self.library
        args = function.args
        positional = args.posonlyargs + args.args
        if self.cls and positional and not decorated(function, "staticmethod"):
            first = positional[0].arg
            self.locals[first] = (("class", self.cls) if decorated(function, "classmethod")
                                  else ("instance", frozenset({self.cls})))
            positional = positional[1:]
        for arg in positional + args.kwonlyargs:
            self.locals[arg.arg] = (None if arg.annotation is None else
                                    library.annotation_kind(arg.annotation, self.module))
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                self.locals[extra.arg] = None
        bindings = library.bindings(function)
        assigned = bindings.assigned
        for name in assigned:
            self.locals.setdefault(name, None)
        for _ in range(2):  # the second pass sees names bound from later ones
            for name, values in assigned.items():
                self.locals[name] = merge(map(self._bound_kind, values))

    def comprehension(self, node) -> "Scope":
        """The scope of a comprehension's own loop variables."""
        inner = Scope(self.library, self.module, self.cls, None, self)
        inner.key = self.key
        inner._kinds = None
        for generator in node.generators:
            for name, each in _loop_targets(generator.target, generator.iter):
                inner.locals[name] = inner._bound_kind(each)
        inner._kinds = {}
        return inner

    def _bound_kind(self, value):
        """The kind one binding (an assigned value, a loop's iterable, an
        import) gives its name."""
        if value is None:
            return None
        if isinstance(value, _Each):
            kind = self.kind_of(value.iterable)
            held = kind[1] if kind is not None and kind[0] == "elements" else None
            return ("instance", held) if held else None
        return self.value_kind(value)

    def kind_of(self, node):
        """What an expression holds (never ``_NONE``)."""
        kind = self.value_kind(node)
        return None if kind is _NONE else kind

    def value_kind(self, node):
        """What an expression holds, ``_NONE`` for the constant ``None``."""
        if self._kinds is None:
            return self._value_kind(node)
        if id(node) not in self._kinds:
            self._kinds[id(node)] = self._value_kind(node)
        return self._kinds[id(node)]

    def _value_kind(self, node):
        library = self.library
        if isinstance(node, ast.Constant):
            return _NONE if node.value is None else None
        if isinstance(node, ast.Name):
            scope = self
            while scope is not None:
                if node.id in scope.locals:
                    return scope.locals[node.id]
                scope = scope.outer
            kind = library.resolve_global(self.module, node.id)
            if kind is _UNBOUND:  # a builtin, or a self-test's caller naming it bare
                if node.id in library.classes:
                    return ("class", node.id)
                if node.id in library.functions:
                    return ("function", node.id)
                return None
            return kind
        if isinstance(node, ast.Attribute):
            owner = self.kind_of(node.value)
            if owner is None:
                return None
            if owner[0] == "module":
                kind = library.resolve_global(owner[1], node.attr)
                return None if kind is _UNBOUND else kind
            if owner[0] != "instance":
                return None
            if library.method_targets(owner[1], node.attr):
                return None  # a method or property, not a data attribute
            return library.attribute_kind(owner[1], node.attr)
        if isinstance(node, ast.Call):
            return self._call_kind(node)
        if isinstance(node, ast.Subscript):
            kind = self.kind_of(node.value)
            if kind is None or kind[0] not in ("elements", "mapping"):
                return None
            return ("instance", kind[1]) if kind[1] else None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return ("elements", _instances(self.comprehension(node).kind_of(node.elt)))
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return ("elements", None)
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return ("mapping", None)
        return None

    def _call_kind(self, call: ast.Call):
        library, func = self.library, call.func
        callee = self.kind_of(func)
        if callee is not None:
            return ("instance", frozenset({callee[1]})) if callee[0] == "class" else None
        if isinstance(func, ast.Attribute):
            owner = self.kind_of(func.value)
            if owner is not None and owner[0] == "mapping":
                return ("elements", owner[1]) if func.attr == "values" else None
            keys, _ = self.attribute(func.value, func.attr)
            if keys and not any(decorated(library.node_of(k)[0], "property") for k in keys):
                return library.returned_kind(keys)
        return None

    def attribute(self, receiver, name):
        """``(keys, name)`` of ``receiver.name``: the keys it reaches if
        the receiver resolves (possibly none), else ``None``."""
        library = self.library
        kind = self.kind_of(receiver)
        if kind is None:
            return None, name
        if kind[0] == "module":
            target = library.resolve_global(kind[1], name)
            if isinstance(target, tuple) and target[0] in ("class", "function"):
                return {target[1]}, name
            return set(), name
        if kind[0] in ("function", "elements", "mapping"):
            return set(), name  # a builtin's attribute
        classes = {kind[1]} if kind[0] == "class" else kind[1]
        return library.method_targets(classes, name), name


class _Each(NamedTuple):
    """A name bound to each element of ``iterable`` (a loop's target)."""

    iterable: ast.AST


class Bindings:
    """The names one function's own body binds: ``assigned`` maps each to
    what binds it (a value, an :class:`_Each`, or ``None`` where unknown:
    an unpacking, a ``with``, an import, a nested def), and
    ``self_writes`` lists ``(attribute, annotation, value)`` of each
    ``self.x`` it writes."""

    def __init__(self, function):
        self.assigned = {}
        self.self_writes = []
        bind = self.assigned.setdefault
        for node in _own_nodes(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    value = node.value if isinstance(target, ast.Name) else None
                    for name in _targets(target):
                        bind(name, []).append(value)
                    self._self_write(target, None, node.value)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    bind(node.target.id, []).append(node.value)
                self._self_write(node.target, node.annotation, node.value)
            elif isinstance(node, ast.AugAssign):
                for name in _targets(node.target):
                    bind(name, []).append(None)
                self._self_write(node.target, None, None)
            elif isinstance(node, ast.For):
                for name, each in _loop_targets(node.target, node.iter):
                    bind(name, []).append(each)
            elif isinstance(node, ast.NamedExpr):
                bind(node.target.id, []).append(node.value)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                for name in _targets(node.optional_vars):
                    bind(name, []).append(None)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bind(node.name, []).append(None)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bind(alias.asname or alias.name.split(".")[0], []).append(None)
            elif isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                bind(node.name, []).append(None)

    def _self_write(self, target, annotation, value):
        if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self":
            self.self_writes.append((target.attr, annotation, value))
        elif isinstance(target, (ast.Tuple, ast.List, ast.Starred)):
            for item in ast.iter_child_nodes(target):
                self._self_write(item, None, None)  # unpacked: unknown


def _loop_targets(target, iterable):
    """``(name, binding)`` of each name a loop's target binds: an element
    of the iterable, or of ``enumerate``'s argument."""
    if isinstance(target, ast.Name):
        return [(target.id, _Each(iterable))]
    if isinstance(target, ast.Tuple) and isinstance(iterable, ast.Call):
        if (getattr(iterable.func, "id", None) == "enumerate"
                and len(target.elts) == 2 and iterable.args):
            return [(name, None) for name in _targets(target.elts[0])] + (
                _loop_targets(target.elts[1], iterable.args[0]))
    return [(name, None) for name in _targets(target)]


def _own_nodes(function):
    """Nodes of ``function``'s body, not of the functions it nests."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_FUNCTIONS, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _walk(library, source):
    """``(scope, node)`` for every node of ``source``, each in the scope
    of the innermost function holding it."""
    top = Scope(library, source.module, None, None, None)
    stack = [(top, None, source.tree)]
    while stack:
        scope, cls, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner, inner_cls = scope, None
            if isinstance(child, ast.ClassDef) and scope is top and cls is None:
                info = library.classes.get(child.name)
                inner_cls = child.name if info and info.module == source.module else None
            elif isinstance(child, _FUNCTIONS):
                inner = Scope(library, source.module, cls, child, scope)
            elif isinstance(child, _COMPREHENSIONS):
                inner = scope.comprehension(child)
            elif isinstance(child, ast.Lambda):
                inner = Scope(library, source.module, scope.cls, None, scope)
                inner.key = scope.key
                args = child.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                        args.vararg, args.kwarg]:
                    if arg is not None:
                        inner.locals[arg.arg] = None  # a lambda's parameters are unknown
            yield inner, child
            stack.append((inner, inner_cls, child))
