"""Every name a formalpatch module imports is used in that module or
re-exported through its __all__, so a refactor cannot leave an
orphaned import behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "formalpatch"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def _imported(tree):
    """(bound name, line) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_modules_found():
    assert "engine.py" in MODULES and "patch.py" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = ["%s (line %d)" % (bound, line) for bound, line in _imported(tree)
              if bound not in used]
    assert not unused, "%s imports names it never uses: %s" % (name, ", ".join(unused))
