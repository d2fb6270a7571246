"""Every name a module imports is used in that module, and no private helper is left over.

No linter is a dependency, so this walks the syntax trees itself. A name
counts as used when it appears as a bare name anywhere in the module,
including as the base of an attribute access. The package's
``__init__.py`` is left out: it imports names to re-export them. A
module-level function or class of the package whose name starts with
``_`` must be read somewhere in the package, as a name, an attribute or
an imported name; otherwise it is a helper its callers left behind.
Every file of the package and of ``tests/`` parses under the grammar of
Python 3.10, the oldest version ``pyproject.toml`` claims. Every memo of
the package is bounded: ``functools.lru_cache`` gets a literal integer
``maxsize``, and ``functools.cache`` is not used, since a memo of
likelihood stacks without a bound holds every table's arrays for good.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dppmle").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in ``source`` that no other node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_finds_an_unused_name():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=[f"{p.parent.name}/{p.name}" for p in SOURCES])
def test_parses_under_python_3_10(path):
    # the suite may run on a newer Python, whose parser takes syntax that 3.10 refuses, such as except*
    ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))


def unread_private_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level ``_`` functions and classes in ``sources`` that none of them reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [
        f"{name} line {node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in read
    ]


def test_finds_an_unread_helper():
    sources = {
        "a.py": "def _imported(): pass\ndef _orphan(): pass\nclass _Reached: pass\n",
        "b.py": "import a\nfrom a import _imported\nprint(a._Reached)\n",
    }
    assert unread_private_helpers(sources) == ["a.py line 2: _orphan"]


def test_no_unread_private_helpers():
    assert unread_private_helpers({path.name: path.read_text(encoding="utf-8") for path in PACKAGE}) == []


def unbounded_memos(source: str) -> list[str]:
    """Uses of ``functools.cache``, and of ``functools.lru_cache`` without a literal integer ``maxsize``."""
    tree = ast.parse(source)
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update({alias.asname or alias.name: alias.name for alias in node.names})

    def memo(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            return node.attr
        return None

    sized = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and memo(node.func) == "lru_cache":
            size = [keyword.value for keyword in node.keywords if keyword.arg == "maxsize"] or node.args[:1]
            if len(size) == 1 and isinstance(size[0], ast.Constant) and type(size[0].value) is int:
                sized.add(node.func)
    return [
        f"line {node.lineno}: {memo(node)}" for node in ast.walk(tree)
        if memo(node) in ("cache", "lru_cache") and node not in sized
    ]


def test_finds_an_unbounded_memo():
    source = "\n".join([
        "import functools",
        "from functools import cache, lru_cache as memo",
        "@functools.lru_cache(maxsize=4)",
        "def a(): pass",
        "@memo(8)",
        "def b(): pass",
        "@memo(maxsize=None)",
        "def c(): pass",
        "@memo",
        "def d(): pass",
        "@cache",
        "def e(): pass",
        "f = functools.lru_cache(maxsize=True)(len)",
        "g = functools.cache(len)",
    ])
    assert sorted(unbounded_memos(source)) == [
        "line 11: cache", "line 13: lru_cache", "line 14: cache", "line 7: lru_cache", "line 9: lru_cache",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=[f"{p.parent.name}/{p.name}" for p in PACKAGE])
def test_memos_are_bounded(path):
    assert unbounded_memos(path.read_text(encoding="utf-8")) == []
