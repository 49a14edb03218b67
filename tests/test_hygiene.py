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
    """Public top-level functions that no module reads.  A def counts as
    read when its own module loads its name, when another module imports it
    by name from its module, or when another module reads it as an
    attribute of a name bound to its module (``tp.compose``).  A name that
    merely matches, such as a local variable, does not count."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()  # (module, name)
    for module, tree in trees.items():
        aliases = {}  # local name -> package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.ImportFrom):
                source = (node.module or "").rsplit(".", 1)[-1]
                for alias in node.names:
                    if source in trees:
                        read.add((source, alias.name))
                    elif alias.name in trees:
                        aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.rsplit(".", 1)[-1] in trees:
                        aliases[alias.asname or alias.name] = alias.name.rsplit(".", 1)[-1]
        read |= {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in aliases}
    return sorted(f"{module}.{node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                  and (module, node.name) not in read)


def test_scanner_finds_an_unread_def():
    sources = {"a": "def used(): pass\ndef alone(): pass\ndef _private(): pass\n",
               "b": "from .a import used\nimport c\nc.by_attribute()\n",
               "c": "def by_attribute(): pass\ndef helper(): pass\nx = helper()\n"}
    assert unread_public_defs(sources) == ["a.alone"]


def test_scanner_ignores_a_namesake_in_another_module():
    # b's local variable and attribute share the name of a's def; neither
    # reads it, and neither does a module-level call in c of its own namesake
    sources = {"a": "def solve(): pass\ndef helper(): pass\n",
               "b": "def _run(x):\n    solve = x.helper\n    return solve()\n",
               "c": "def helper(): pass\nhelper()\n"}
    assert unread_public_defs(sources) == ["a.helper", "a.solve"]


def test_no_public_def_is_read_only_by_tests():
    unread = unread_public_defs({p.stem: p.read_text() for p in MODULES})
    assert sorted(n.split(".")[1] for n in unread) == sorted(UNREAD_ALLOWED), unread


def test_one_contraction_primitive():
    """``tensorpoly._dot_axis`` is the package's one tensor contraction."""
    assert [p.name for p in PACKAGE.glob("*.py") if "tensordot" in p.read_text()] == []


def test_one_grid_newton_loop():
    """``gaussian._grid_newton`` is the one Newton loop of the quadrature grids."""
    assert (PACKAGE / "gaussian.py").read_text().count("range(_GRID_MAX_ITER)") == 1
