"""Every name a package module imports is used in that module.

A stand-in for pyflakes' F401 check, built on ``ast`` alone.  A name
counts as used when it is read anywhere in the module or listed in its
``__all__``; an import statement that carries ``# noqa: F401`` is a
deliberate re-export and is skipped, as flake8 and ruff would skip it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lieposet"


def unused_imports(source):
    """Sorted (line, name) of the imported names that ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1 : node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for line, name in imported if name not in read)


def test_checker_flags_an_unused_import():
    source = (
        "import random\n"
        "from .liealg import LieAlg, bracket\n"
        "from .exactla import ONE\n"
        "from .exactla import ZERO  # noqa: F401\n"
        "__all__ = ['ONE']\n"
        "def f(g):\n"
        "    return bracket(g, random.random(), 0)\n"
    )
    assert unused_imports(source) == [(2, "LieAlg")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
