"""Every name a formalpatch module imports is used in that module or
re-exported through its __all__, and every function, class and method
it defines is referenced somewhere in the repository's code, so a
refactor cannot leave an orphaned import or definition behind."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "formalpatch"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
# where a reference keeps a definition alive
CODE_DIRS = ("src", "tests", "perfbench", "tools")


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


def _definitions(tree):
    """Module-level functions and classes, and the non-dunder methods of
    module-level classes, as (name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item


def _docstrings(tree):
    nodes = [tree] + [n for n in ast.walk(tree)
                      if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return {id(n.body[0].value) for n in nodes if ast.get_docstring(n, clean=False) is not None}


def _references(tree, docstrings=frozenset()):
    """Every name the code refers to: names, attributes, imported names,
    and the parts of string constants that are (dotted) identifiers, as
    in monkeypatch.setattr(module, "name") or a tracing table.
    Docstrings do not count."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.split(".")[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            refs.update(node.value.split("."))
    return refs


def _repository_references():
    refs = Counter()
    for top in CODE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            refs.update(_references(tree, _docstrings(tree)))
    return refs


def test_every_definition_is_referenced():
    refs = _repository_references()
    dead = []
    for name in MODULES:
        tree = ast.parse((SRC / name).read_text(), filename=name)
        docstrings = _docstrings(tree)
        for defined, node in _definitions(tree):
            # a reference inside the definition itself (recursion) does not count
            if refs[defined] <= _references(node, docstrings)[defined]:
                dead.append("%s:%d %s" % (name, node.lineno, defined))
    assert not dead, "definitions nothing refers to: %s" % ", ".join(dead)
