"""Every name a package module imports is used, and every name it defines is read.

The first guard stands in for a linter's unused-import rule; `from
__future__` imports and the re-exports of `__init__.py` are exempt.  The
second keeps private names inside their module: a package module imports
no `_name` from a sibling, save the allowlisted ones.  The third keeps the
library to what a result reads: a top-level function or class, or a
non-dunder method, needs a reader other than the unit tests.
"""

import ast
import json
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blockspin"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# names whose reader is a unit test by design
READER_ALLOWLIST = {
    "codes.check_correctable": "the Knill-Laflamme reference oracle the code tests check recovery against",
    "codes.StabilizerCode.validate": "the consistency check the code tests run on every built-in code",
    "codes.StabilizerCode.to_json": "writes the `code` artifact's document for the round-trip oracle",
    "codes.StabilizerCode.from_json": "reads the `code` artifact back for the round-trip oracle",
}

# private names another package module imports, with the reason
PRIVATE_IMPORT_ALLOWLIST = {
    "codes._logical_class_index": "the class index that channel's action table is built on",
    "pauli._region_entropies": "the per-region entropy kernel that toric_rescale's scan calls",
}

IDENTIFIER_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # `np.zeros` is an Attribute over the Name `np`, so names cover every use
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def private_imports(source: str) -> list[str]:
    """"module.name" of each private name the source imports from a sibling
    module (`from .module import _name`).  A private module is the
    package's own helper, so importing it or from it (`from . import
    _numpy`, `from ._lazy import ...`) does not count."""
    return sorted(
        f"{node.module}.{a.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and node.module and not node.module.startswith("_")
        for a in node.names
        if a.name.startswith("_") and not a.name.endswith("__")
    )


def _words(node: ast.AST):
    """The names one node reads: a Name, an Attribute's attribute, a name
    imported from a module, or each part of a dotted-identifier string
    (`getattr` tables and span names)."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (a.name for a in node.names)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if IDENTIFIER_PATH.fullmatch(node.value):
            yield from node.value.split(".")


def _reads(tree: ast.AST) -> Counter:
    return Counter(w for node in ast.walk(tree) for w in _words(node))


def _defined(nodes, kinds):
    """The nodes of `kinds` among `nodes`, protocol (dunder) names left out."""
    return [
        node for node in nodes
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class and each
    method of a top-level class, dunders left out."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in _defined(tree.body, (*functions, ast.ClassDef)):
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in _defined(node.body, functions):
                yield f"{node.name}.{item.name}", item


def unread_names(
    modules: dict[str, str], readers: list[str], bases: set[str]
) -> list[str]:
    """Qualified names defined in `modules` (module name -> source) that
    nothing reads: no package code outside the name's own definition, none
    of the `readers` sources and no `bases` entry ("module.qualname")."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    package = sum((_reads(tree) for tree in trees.values()), Counter())
    outside = set().union(*(_reads(ast.parse(source)) for source in readers))
    return sorted(
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in _definitions(tree)
        if package[node.name] == _reads(node)[node.name]
        and node.name not in outside
        and f"{module}.{qualname}" not in bases
    )


def benchmark_bases() -> set[str]:
    """Per-layer metric names of BENCHMARK.json without their last part."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"].rpartition(".")[0] for m in doc["per_layer"]}


def test_guard_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from a import b, c as d\n"
        "sys.exit(d)\n"
    )
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_private_names_across_modules():
    source = (
        "from . import _numpy, __version__\n"
        "from ._lazy import lazy_import, _helper\n"
        "from .pauli import Pauli, _pack\n"
        "from __future__ import annotations\n"
        "def f():\n"
        "    from .codes import _index as index\n"
    )
    assert private_imports(source) == ["codes._index", "pauli._pack"]


def test_private_names_stay_in_their_module():
    crossing = [name for p in PACKAGE.glob("*.py") for name in private_imports(p.read_text())]
    # an allowlisted name that stops crossing leaves the list
    assert sorted(crossing) == sorted(PRIVATE_IMPORT_ALLOWLIST)


def test_guard_flags_unread_names():
    library = (
        "BUILDERS = {'a': 'by_string'}\n"
        "def entry():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return Box().by_attribute()\n"
        "def recursive(k):\n"
        "    return recursive(k - 1) if k else 'recursive'\n"
        "def by_string():\n"
        "    pass\n"
        "def by_bench():\n"
        "    pass\n"
        "class Box:\n"
        "    def __repr__(self):\n"
        "        return 'Box'\n"
        "    def by_attribute(self):\n"
        "        pass\n"
        "    def by_span_name(self):\n"
        "        pass\n"
        "    def lonely(self):\n"
        "        return self.lonely()\n"
    )
    reader = "from m import entry\nSPAN = 'm.Box.by_span_name'\n"
    assert unread_names({"m": library}, [reader], {"m.by_bench"}) == [
        "m.Box.lonely", "m.recursive",
    ]
    assert unread_names({"m": library}, [], set()) == [
        "m.Box.by_span_name", "m.Box.lonely", "m.by_bench", "m.entry", "m.recursive",
    ]


def test_every_library_name_has_a_reader():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    readers.append((ROOT / "tests" / "test_acceptance.py").read_text())
    # an allowlisted name that gains a reader leaves the list
    assert unread_names(modules, readers, benchmark_bases()) == sorted(READER_ALLOWLIST)
