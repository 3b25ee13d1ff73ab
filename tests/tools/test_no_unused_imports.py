"""No ``src/`` module imports a name it never uses.

Every non-``__init__`` module under ``src/`` is read from the one parse
``program_tree.py`` keeps; a name bound by a
top-level ``import`` / ``from ... import`` must be read somewhere in the
module, as a ``Name`` (attribute chains start with one) or inside a
string annotation, or be re-exported through the module's ``__all__``.
Package ``__init__`` modules are skipped: importing to re-export is their
job.
"""

import ast
import re

import pytest

from tests.tools.program_tree import Source, parsed

MODULES = [
    source for source in parsed("src") if not source.path.endswith("__init__.py")
]
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def unused_imports(source: Source):
    """``(line, name)`` of every top-level import ``source`` never uses."""
    tree = source.tree
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    # Where a name in a string counts as a use: annotations and __all__.
    string_sites = []
    for node in source.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            string_sites.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            string_sites.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            string_sites.append(node.value)
    used = {node.id for node in source.nodes if isinstance(node, ast.Name)}
    for site in filter(None, string_sites):
        for node in ast.walk(site):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(_WORD.findall(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_the_checker_sees_an_unused_name():
    source = (
        "from typing import Dict, List, Tuple\n"
        "import os\n"
        "def f(x: 'Tuple[int]') -> List['Dict']:\n"
        "    return os.sep\n"
    )
    assert unused_imports(Source.of(source)) == []
    assert unused_imports(Source.of("import os, sys\nos.sep\n")) == [(1, "sys")]
    assert unused_imports(Source.of('import os\n"""os, in a docstring"""\n')) == [
        (1, "os")
    ]
    assert unused_imports(Source.of('from os import sep\n__all__ = ["sep"]\n')) == []


@pytest.mark.parametrize(
    "source", MODULES, ids=lambda source: source.path.removeprefix("src/")
)
def test_no_unused_imports(source):
    assert unused_imports(source) == []
