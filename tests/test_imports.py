"""Every name a module of ``src/tenslab`` imports is used there or exported,
and every private module-level name it defines is read somewhere in ``src``.

A static check with :mod:`ast`: an import that nothing in the module reads
and that ``__all__`` does not list is dead.  ``__init__.py`` exists to
re-export, so it is exempt from the import check.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tenslab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in used | exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import math\nimport os as _os\nfrom .x import a, b\n__all__ = ['b']\nprint(a)\n"
    assert unused_imports(source) == ["math", "_os"]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each private module-level definition (``_x``, not
    ``__x__``) that no module of ``sources`` reads, by name or attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [f"{module}:{n}" for n in names
                        if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [d for d in defined if d.split(":")[1] not in read]


def test_no_dead_private_name():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_the_check_sees_a_dead_private_name():
    sources = {
        "a.py": "import os\n_A = 1\n_B: int = 2\n__all__ = []\n"
                "def _used():\n    return _A\n\ndef _dead():\n    return _used()\n",
        "b.py": "from .a import _B\nclass _Unread:\n    pass\n",
    }
    assert dead_private_names(sources) == ["a.py:_dead", "b.py:_Unread"]
