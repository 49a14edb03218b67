"""No module of the package imports a name that it never reads, and no
public function is left that only tests call.

``__init__.py`` is left out: its imports are the package's exports.  A name
counts as read when the module loads it anywhere or lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blockspin"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_scanner_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy.linalg\n"
              "from .x import a, b as c\n__all__ = ['a']\nprint(numpy, c)\n")
    assert unused_imports(source) == ["os (line 2)"]


def test_package_modules_are_found():
    assert {"harness.py", "kernels.py", "action.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Public functions that no package module reads, each with its reason.
UNREAD_ALLOWED = {
    "dump_polynomial": "the writer side of the polynomial file format",
    "background_series_residuals": "test oracle for the background series",
    "critical_series_residuals": "test oracle for the critical series",
    "nextscale_series_residuals": "test oracle for the next-scale series",
    "insertion_constant": "paper identity that only tests check",
    "fluctuation_integral": "paper identity that only tests check",
    "delta_phi_variants": "paper identity that only tests check",
}


def unread_public_defs(sources: dict[str, str]) -> list[str]:
    """Public top-level functions that no module reads by name, by
    attribute or by import; a module's calls to its own functions count."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return sorted(f"{name}.{node.name}" for name, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                  and node.name not in read)


def test_scanner_finds_an_unread_def():
    sources = {"a": "def used(): pass\ndef alone(): pass\ndef _private(): pass\n",
               "b": "from .a import used\nimport c\nc.by_attribute()\n",
               "c": "def by_attribute(): pass\ndef helper(): pass\nx = helper()\n"}
    assert unread_public_defs(sources) == ["a.alone"]


def test_no_public_def_is_read_only_by_tests():
    unread = unread_public_defs({p.stem: p.read_text() for p in MODULES})
    assert sorted(n.split(".")[1] for n in unread) == sorted(UNREAD_ALLOWED), unread
