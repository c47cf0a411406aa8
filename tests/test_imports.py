"""Every name a module of ``src/tenslab`` imports is used there or exported,
every private module-level name it defines is read somewhere in ``src``, no
function converts an argument with ``int()`` outside ``dense._integers``, and
no module but ``linalg.py`` reads the right factor ``V`` of an SVD or the
numerical-rank cutoff ``RANK_CUTOFF``, and no module but ``dense.py`` checks the
range of an integer that ``dense._integers`` or ``dense._one_based`` returned.

A static check with :mod:`ast`: an import that nothing in the module reads
and that ``__all__`` does not list is dead.  ``__init__.py`` exists to
re-export, so it is exempt from the import check.  ``int()`` truncates a
fractional value, so a caller's integers go through ``dense._integers``,
which rejects one instead.  Every engine keeps one side of each SVD, the
``U`` of :func:`tenslab.linalg.one_sided_svd`, so an ``.V`` read outside
``linalg.py`` is a two-sided SVD coming back.  Every rank decision goes
through ``linalg._significant``, so a ``RANK_CUTOFF`` read elsewhere is a
second copy of that rule.  ``_integers`` checks a caller's integer against
its least value and any upper bound, so an ``if`` that compares its result
with a constant and raises is a second copy of the range rule.
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


def int_of_parameter(source: str, exempt: str | None = None) -> list[str]:
    """``function:line`` of each ``int(x)`` whose ``x`` is a parameter of the
    enclosing function, or the target of a comprehension that iterates
    directly over one; the function named ``exempt`` is not scanned."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(func, "name", "<lambda>")
        if name == exempt:
            continue
        args = func.args
        suspects = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        nodes = list(ast.walk(func))
        for node in nodes:
            if (isinstance(node, ast.comprehension) and isinstance(node.iter, ast.Name)
                    and node.iter.id in suspects):
                suspects |= {t.id for t in ast.walk(node.target) if isinstance(t, ast.Name)}
        found += [f"{name}:{node.lineno}" for node in nodes
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "int" and len(node.args) == 1
                  and isinstance(node.args[0], ast.Name) and node.args[0].id in suspects]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_int_of_a_parameter(path):
    exempt = "_integers" if path.name == "dense.py" else None
    assert int_of_parameter(path.read_text(), exempt) == []


def test_the_check_sees_an_int_of_a_parameter():
    source = ("def f(a, b, *, c):\n"
              "    x = int(a) + int(len(b)) + int(c)\n"
              "    ys = [int(v) for v in b] + [int(t) for t in b.split()]\n"
              "    return lambda k: int(k) + int(x)\n"
              "def _integers(values):\n"
              "    return [int(v) for v in values]\n")
    assert int_of_parameter(source, "_integers") == ["f:2", "f:2", "f:3", "<lambda>:4"]
    assert int_of_parameter(source) == ["f:2", "f:2", "f:3", "_integers:6", "<lambda>:4"]


def right_factor_reads(source: str) -> list[int]:
    """Line of each read of an attribute named ``V``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "V"
            and isinstance(node.ctx, ast.Load)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_only_linalg_reads_the_right_factor(path):
    assert right_factor_reads(path.read_text()) == []


def test_the_check_sees_a_right_factor_read():
    source = ("res = svd(M)\nres.V = None\n"
              "carry = res.singular_values[:, None] * res.V.T\nU = res.U\n")
    assert right_factor_reads(source) == [3]


def rank_cutoff_reads(source: str) -> list[int]:
    """Line of each read of ``RANK_CUTOFF``: by name, as an attribute or
    through an import."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Name) and node.id == "RANK_CUTOFF"
                      and isinstance(node.ctx, ast.Load))
                  or (isinstance(node, ast.Attribute) and node.attr == "RANK_CUTOFF")
                  or (isinstance(node, (ast.Import, ast.ImportFrom))
                      and any(a.name.split(".")[-1] == "RANK_CUTOFF" for a in node.names)))


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_only_linalg_reads_the_rank_cutoff(path):
    assert rank_cutoff_reads(path.read_text()) == []


def test_the_check_sees_a_rank_cutoff_read():
    source = ("from .linalg import RANK_CUTOFF as C\nimport tenslab.linalg as la\n"
              "keep = s > la.RANK_CUTOFF * s[0]\nRANK_CUTOFF = 1e-12\n"
              "doc = 'RANK_CUTOFF'\nx = RANK_CUTOFF\n")
    assert rank_cutoff_reads(source) == [1, 3, 6]


INTEGER_RULE = {"_integers", "_one_based"}


def hand_written_range_checks(source: str) -> list[int]:
    """Line of each ``if`` that compares a value taken from ``_integers`` or
    ``_one_based`` with a numeric constant and raises in its body.

    Within a function, a value is taken from the rule if it is such a call,
    a name or attribute assigned from one, or a loop or comprehension
    variable over such a name.
    """
    def rule_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in INTEGER_RULE)

    def numeric(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(func))
        taken = set()
        for node in nodes:
            if isinstance(node, ast.Assign) and any(rule_call(n) for n in ast.walk(node.value)):
                for target in node.targets:
                    elts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
                    taken |= {ast.unparse(e) for e in elts}
        for node in nodes:
            if isinstance(node, (ast.comprehension, ast.For)) and ast.unparse(node.iter) in taken:
                taken |= {t.id for t in ast.walk(node.target) if isinstance(t, ast.Name)}

        def from_rule(node):
            return any(rule_call(n) or (isinstance(n, (ast.Name, ast.Attribute))
                                        and ast.unparse(n) in taken) for n in ast.walk(node))

        for node in nodes:
            if not isinstance(node, ast.If) or not any(
                    isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt)):
                continue
            for cmp in (n for n in ast.walk(node.test) if isinstance(n, ast.Compare)):
                operands = [cmp.left, *cmp.comparators]
                if any(map(numeric, operands)) and any(map(from_rule, operands)):
                    found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "dense.py"],
                         ids=lambda p: p.name)
def test_only_dense_checks_an_integer_range(path):
    assert hand_written_range_checks(path.read_text()) == []


def test_the_check_sees_a_hand_written_range_check():
    source = ("def f(n, dims, opts, args):\n"
              "    n = _integers([n], 'n')[0]\n"
              "    if n < 1:\n"
              "        raise ValueError(n)\n"
              "    dims = _integers(dims, 'dims')\n"
              "    if not dims or any(k < 1 for k in dims):\n"
              "        raise ValueError(dims)\n"
              "    opts.k, seed = _integers((opts.k, 0), 'k, seed')\n"
              "    if opts.k < -1:\n"
              "        raise ValueError(opts.k)\n"
              "    if _one_based([n], 3, 'n')[0] >= 2.5:\n"
              "        raise ValueError(n)\n"
              "    for k in dims:\n"
              "        if k > 0:\n"
              "            raise ValueError(k)\n"
              "    if n <= 2:\n"
              "        return None\n"
              "    if len(dims) != n - 1 or args.max_sweeps < 1:\n"
              "        raise ValueError(dims)\n"
              "def g(n):\n"
              "    if n < 1:\n"
              "        raise ValueError(n)\n")
    assert hand_written_range_checks(source) == [3, 6, 9, 11, 14]
