"""The functions that a traced benchmark run wraps still exist.

``perfbench/worker.py`` lists them in ``LAYERS`` and looks each one up with
``getattr``, so a rename or a removal in the package only shows up there as
a crash of a traced run.  The list is read with ``ast``; the benchmark
worker is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def traced_layers() -> dict:
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{WORKER} assigns no LAYERS table")


def test_every_traced_function_exists():
    layers = traced_layers()
    assert layers
    missing = [f"{module}.{name}" for module, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"blockspin.{module}"),
                                       name, None))]
    assert missing == []


def test_solve_lattice_tolerance_default_exists():
    # the solve-lattice workload reads its residual bound from this default
    from blockspin import solvers

    tol = inspect.signature(solvers.newton_critical).parameters["tol"].default
    assert isinstance(tol, float)


def test_quadrature_node_counter_hook_exists():
    # the traced run counts quadrature nodes from the grids this returns
    from blockspin import gaussian

    assert callable(getattr(gaussian, "_polar_grid", None))
