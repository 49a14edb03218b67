"""The three benchmark workloads.

Each workload is an object built from a checkout root and a seed; building
it is the workload's set-up.  It offers:

- ``round``: the number of consecutive ops that make one full pass over its
  inputs (op indices ``0 .. round - 1``);
- ``kinds``: the number of input kinds the ops cycle through (op ``i`` is of
  kind ``i % kinds``); latency figures weigh every kind alike;
- ``op(i)``: the timed call into the package for op ``i``;
- ``check(i, out)``: the correctness gate, run outside the timed interval,
  returning ``None`` or a note saying what failed;
- ``fingerprint(out)``: bytes that tracing must not change.

Inputs are drawn from ``blockspin.ensembles.stream(seed, label)`` or from
the shipped scenarios with their seed replaced, so the same seed gives the
same inputs.  Ops call the package through module attributes
(``harness.run_scenario``), which is where the tracer hooks in.
"""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import inspect
import json
from pathlib import Path

import numpy as np

from blockspin import ensembles, harness, series, solvers


class Verify:
    """``run_scenario`` plus the json report, alternating the two shipped
    scenarios with their seed replaced by the benchmark seed."""

    name = "verify"
    scenarios = ("default.json", "srm.json")
    round = kinds = 2

    def __init__(self, root: Path, seed: int):
        self.configs = []
        for fname in self.scenarios:
            path = root / "scenarios" / fname
            raw = json.loads(path.read_text())
            raw["seed"] = seed
            self.configs.append(harness.ScenarioConfig.from_dict(raw, base_dir=path.parent))
        self.first_report: dict = {}

    def op(self, i: int):
        report = harness.run_scenario(self.configs[i % 2])
        return report, harness.emit_report(report, "json")

    def check(self, i: int, out) -> str | None:
        report, data = out
        if not report.passed:
            failed = [f"{s.name}/{c.name}" for s in report.suites
                      for c in s.checks if not c.passed]
            return "report failed: " + ", ".join(failed)
        first = self.first_report.setdefault(i % 2, data)
        if data != first:
            return "report bytes differ from the first report of this scenario and seed"
        return None

    def fingerprint(self, out) -> bytes:
        return out[1]

    @staticmethod
    def suite_seconds(out) -> dict:
        """Per-suite wall times from the package's own timings report."""
        timed = dataclasses.replace(out[0], timings=True)
        doc = json.loads(harness.emit_report(timed, "json"))
        return {s["name"]: float(s["seconds"]) for s in doc["suites"]}


class SeriesOrder7:
    """The order-7 chain fps_background -> fps_critical -> compose_cp ->
    fps_nextscale on random (4,3,2) specs, cycling over a few draws."""

    name = "series-order7"
    order = 7
    round = kinds = 4

    def __init__(self, root: Path, seed: int):
        rng = ensembles.stream(seed, "perfbench-series-order7")
        self.specs = [ensembles.random_spec(rng, (4, 3, 2), scale=0.3, max_cond=1e4)
                      for _ in range(self.round)]
        self.tol = harness.TOLERANCES["fps-composition"]

    def op(self, i: int):
        spec = self.specs[i % self.round]
        bg = solvers.fps_background(spec, max_order=self.order)
        cr = solvers.fps_critical(spec, bg, max_order=self.order)
        cp = solvers.compose_cp(bg, cr, max_order=self.order)
        ns = solvers.fps_nextscale(spec, max_order=self.order)
        return cp, ns

    def check(self, i: int, out) -> str | None:
        cp, ns = out
        norms = [*series.series_difference_norms(cp.starred, ns.starred).values(),
                 *series.series_difference_norms(cp.unstarred, ns.unstarred).values()]
        worst = max(norms, default=0.0)
        if not worst <= self.tol:
            return f"composed vs solved next-scale series differ by {worst:.3e} (tolerance {self.tol:.1e})"
        return None

    def fingerprint(self, out) -> bytes:
        digest = hashlib.sha256()
        for pair in out:
            for s in (pair.starred, pair.unstarred):
                for key, coeff in sorted(s.coeffs.items()):
                    digest.update(repr(key).encode())
                    digest.update(np.ascontiguousarray(coeff).tobytes())
        return digest.digest()


class SolveLattice:
    """One coarse-source point per op on a lattice step of dims 32/8/2:
    ``newton_critical`` then ``delta_a_direct``."""

    name = "solve-lattice"
    scenario = {"lattice": {"extents": [8, 4], "block": [2, 2]},
                "interaction": {"bidegrees": [[1, 2], [0, 3]], "scale": 0.2},
                "suites": []}
    round = 32
    kinds = 1
    predrawn = 1024

    def __init__(self, root: Path, seed: int):
        cfg = harness.ScenarioConfig.from_dict(dict(self.scenario, seed=seed))
        self.spec = harness.scenario_spec(cfg)
        self.rng = ensembles.stream(seed, "perfbench-solve-lattice")
        self.points: list = []
        self._point(self.predrawn - 1)
        self.tol = inspect.signature(solvers.newton_critical).parameters["tol"].default

    def _point(self, i: int):
        """Point i of the seeded sequence; points past the pre-drawn ones
        are drawn on first use, between ops."""
        sp, smid = self.spec.rg.space_plus, self.spec.rg.space_mid
        while len(self.points) <= i:
            self.points.append((ensembles.unit_field(self.rng, sp, 0.2),
                                ensembles.unit_field(self.rng, sp, 0.2),
                                ensembles.unit_field(self.rng, smid, 0.04),
                                ensembles.unit_field(self.rng, smid, 0.04)))
        return self.points[i]

    def op(self, i: int):
        ts, tu, ds, du = self._point(i)
        psi_star, psi = solvers.newton_critical(self.spec, ts, tu)
        delta = solvers.delta_a_direct(self.spec, ts, tu, ds, du)
        return psi_star, psi, delta

    def check(self, i: int, out) -> str | None:
        psi_star, psi, delta = out
        ts, tu, _, _ = self._point(i)
        r_star, r = solvers.critical_residual(self.spec, psi_star, psi, ts, tu)
        res = max(float(np.abs(r_star.components).max()), float(np.abs(r.components).max()))
        if not res <= self.tol:
            return f"critical residual {res:.3e} above the solver tolerance {self.tol:.1e}"
        if not cmath.isfinite(complex(delta)):
            return f"delta_a_direct is not finite: {delta!r}"
        return None

    def fingerprint(self, out) -> bytes:
        psi_star, psi, delta = out
        return (psi_star.components.tobytes() + psi.components.tobytes()
                + repr(complex(delta)).encode())


WORKLOADS = {w.name: w for w in (Verify, SeriesOrder7, SolveLattice)}
