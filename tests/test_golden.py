"""Golden outputs: report blocks and lattice solves that must keep every bit.

``golden.json`` holds the sha256 of each suite's json block for
``default.json`` and ``srm.json`` at seeds 1 and 90210, and the sha256 of
the ``SolveLattice`` fingerprints (``perfbench/workloads.py``) of ops 0-15
at seed 1, with the numpy and BLAS build that produced them.  A changed
digest names the scenario, the seed and the suite that moved.

``gaussian-quadrature`` is the slow suite and its block does not depend on
the seed, so it runs once, on ``srm.json``, and is compared with that
scenario's stored block at every seed.  On ``default.json`` it takes the
reference-family branch, which no tier-1 digest covers.

The digests hold only for the recorded build.  Elsewhere the test fails
and names both builds.  ``python tests/test_golden.py`` rewrites the file;
a rewrite is a change to a check and belongs in ``CHANGES.md``.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from blockspin.harness import ScenarioConfig, emit_report, run_scenario

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
SCENARIOS = ("default.json", "srm.json")
SEEDS = (1, 90210)
SLOW = "gaussian-quadrature"
LATTICE_OPS = 16


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_configuration": blas.get("openblas configuration")}


def suite_digests(report) -> dict:
    """The sha256 of each suite's block of the json report."""
    doc = json.loads(emit_report(report, "json"))
    return {s["name"]: hashlib.sha256(json.dumps(s, sort_keys=True).encode()).hexdigest()
            for s in doc["suites"]}


def solve_lattice_digest() -> str:
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    bench = workloads.SolveLattice(REPO, 1)
    digest = hashlib.sha256()
    for i in range(LATTICE_OPS):
        digest.update(bench.fingerprint(bench.op(i)))
    return digest.hexdigest()


def observe() -> dict:
    suites = {}
    for name in SCENARIOS:
        path = REPO / "scenarios" / name
        raw = json.loads(path.read_text())
        for seed in SEEDS:
            cfg = ScenarioConfig.from_dict(dict(raw, seed=seed), base_dir=path.parent)
            cfg = cfg.with_suites([s for s in cfg.suites if s != SLOW])
            suites.setdefault(name, {})[str(seed)] = suite_digests(run_scenario(cfg))
    srm = ScenarioConfig.from_file(REPO / "scenarios" / "srm.json").with_suites([SLOW])
    slow = suite_digests(run_scenario(srm))[SLOW]
    for digests in suites["srm.json"].values():
        digests[SLOW] = slow
    return {"environment": environment(), "suites": suites,
            "solve-lattice": solve_lattice_digest()}


def moved(want: dict, got: dict) -> list[str]:
    """Each scenario, seed and suite whose digest differs or is missing."""
    def flat(suites):
        return {f"{name} seed {seed} {suite}": digest for name, seeds in suites.items()
                for seed, digests in seeds.items() for suite, digest in digests.items()}
    a, b = flat(want), flat(got)
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def test_outputs_match_golden():
    want = json.loads(GOLDEN.read_text())
    env = environment()
    assert env == want["environment"], (
        f"golden.json was recorded on {want['environment']}; this run is on {env}")
    got = observe()
    changed = moved(want["suites"], got["suites"])
    assert not changed, "suites that moved: " + "; ".join(changed)
    assert got["solve-lattice"] == want["solve-lattice"], (
        f"SolveLattice fingerprints of ops 0-{LATTICE_OPS - 1} at seed 1 moved")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(observe(), indent=2, sort_keys=True) + "\n")
