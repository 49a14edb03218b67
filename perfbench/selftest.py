"""Self-test of the benchmark's own pieces; run as

    python3 perfbench/selftest.py

from the root of a checkout.  It checks that the tracer splits a synthetic
nested call into the expected call counts and self times, rebinds
``from``-imported references and restores them, and that BENCHMARK.json
names exactly the metrics the benchmark emits.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402

INNER_S = 0.02
OUTER_S = 0.01


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _fake_package() -> tuple:
    """``fakepkg.inner.leaf`` and ``fakepkg.outer.parent``, which calls
    ``leaf`` twice through a ``from .inner import leaf`` copy."""
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf():
        _busy(INNER_S)
        return 1

    def parent():
        _busy(OUTER_S)
        return outer.leaf() + outer.leaf()

    inner.leaf = leaf
    outer.leaf = leaf
    outer.parent = parent
    sys.modules.update({"fakepkg": pkg, "fakepkg.inner": inner, "fakepkg.outer": outer})
    return inner, outer


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def test_tracer() -> None:
    inner, outer = _fake_package()
    leaf = inner.leaf
    tracer = Tracer()
    tracer.install("fakepkg", {"inner": ("leaf",), "outer": ("parent",)})
    try:
        check(outer.leaf is not leaf and inner.leaf is not leaf,
              "every module-level reference to the function is rebound")
        check(outer.parent() == 2, "wrapped calls return the original results")
    finally:
        tracer.uninstall()
    check(inner.leaf is leaf and outer.leaf is leaf, "uninstall restores the originals")
    check(tracer.calls["inner.leaf"] == 2 and tracer.calls["outer.parent"] == 1,
          "call counts: parent 1, leaf 2")
    check(tracer.edges[("outer.parent", "inner.leaf")] == 2,
          "leaf is counted twice under parent")
    leaf_s, parent_s = tracer.self_s["inner.leaf"], tracer.self_s["outer.parent"]
    check(2 * INNER_S <= leaf_s < 2 * INNER_S + 0.02,
          f"leaf self time {leaf_s:.4f} s is its own busy time")
    check(OUTER_S <= parent_s < OUTER_S + 0.01,
          f"parent self time {parent_s:.4f} s excludes the leaf spans")
    outer.parent()
    check(tracer.calls["outer.parent"] == 1, "an uninstalled tracer records nothing")
    for name in ("fakepkg", "fakepkg.inner", "fakepkg.outer"):
        del sys.modules[name]


def test_benchmark_json() -> None:
    import run
    import worker
    import workloads
    from blockspin import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(run.WORKLOADS == tuple(workloads.WORKLOADS), "run.py offers every workload")
    check(set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOADS),
          "BENCHMARK.json names only workloads run.py offers")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(e2e == worker.END_TO_END, "end-to-end metrics agree with worker.END_TO_END")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(layer == worker.per_layer_units(harness.SUITE_NAMES),
          "per-layer metrics agree with worker.per_layer_units")


if __name__ == "__main__":
    test_tracer()
    test_benchmark_json()
    print("selftest passed")
