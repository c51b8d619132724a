"""Every public function and class of the package is used by the package,
the demos or the benchmark, or exported by ``gmsklink/__init__.py``: no
package API is kept only for the tests.

A name counts as used where code in ``src/gmsklink``, ``demos`` or
``benchmark`` names it: as an identifier, an attribute, an import, or a
string that is exactly the name (the benchmark's tracer binds functions by
name).  Docstrings do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gmsklink"
TREES = (PACKAGE, ROOT / "demos", ROOT / "benchmark")


def _docstrings(tree):
    """The ids of the docstring nodes of a module and its classes and
    functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _names_used(tree):
    skip = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in skip):
            yield node.value


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_public_names(package=PACKAGE, trees=TREES):
    """``module:name`` of each public top-level function or class of
    ``package`` that nothing in ``trees`` uses and the package's
    ``__init__.py`` does not export."""
    used = set()
    for tree in trees:
        for path in sorted(tree.rglob("*.py")):
            used.update(_names_used(_parse(path)))
    exported = {alias.asname or alias.name
                for node in _parse(package / "__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix()
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in used | exported):
                unused.append(f"{module}:{node.name}")
    return unused


def test_no_public_name_is_kept_only_for_the_tests():
    assert unused_public_names() == []


def test_the_check_sees_an_unused_function(tmp_path):
    # a public function that only a docstring names is flagged; an exported
    # one, a private one and one named by a string are not
    package = tmp_path / "gmsklink"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import used\n")
    (package / "mod.py").write_text(
        'def used():\n    """Calls nothing."""\n\n\n'
        'def helper():\n    """Only a docstring names helper."""\n\n\n'
        'def _private():\n    pass\n\n\n'
        'def by_name():\n    pass\n\n\n'
        'BINDINGS = ["by_name"]\n')
    assert unused_public_names(package, (package,)) == ["mod:helper"]
