"""Golden outputs: report blocks and lattice solves that must keep every bit.

``golden.json`` holds the sha256 of each suite's json block for
``default.json`` and ``srm.json`` at seeds 1 and 90210, and the sha256 of
the ``SolveLattice`` fingerprints (``perfbench/workloads.py``) of ops 0-15
at seed 1, with the numpy and BLAS build that produced them.  A changed
digest names the scenario, the seed and the suite that moved.

Every suite but ``gaussian-quadrature`` draws only from the seed, so its
block is the same on both scenarios: those suites run once per seed, on
``srm.json``, and are compared with the stored blocks of both scenarios.
``gaussian-quadrature`` is the slow suite and its block does not depend on
the seed, so it runs once per scenario and is compared with that
scenario's stored block at every seed.  On ``default.json`` it takes the
reference-family branch.

Both shipped scenarios use identity forms, where the adjoint of d has the
bits of d and the starred kernels are the unstarred ones.  The
``starred`` digest covers the other branch: random-gram action specs at
(3,2,1), (4,3,2) and (6,4,2), hashed through the maps of their step and
their kernels, kernel diagnostics, next-scale delta and kernel identity
residuals.  The
``kernels-dump`` digests hold ``blockspin kernels --dump`` on both
scenarios.

The ``full`` section is the pre-submit set, too slow for every test run:
the json and text reports of both scenarios at seeds 1, 2, 3, 2026 and
90210, the ``SolveLattice`` fingerprints of ops 0-63 at seeds 1 and 2, the
``solve-*`` replies on the points of ``test_cli.py``, and ``kernels --dump``
plus ``solve-critical`` on a random-gram (4,3,2) scenario.

The digests hold only for the recorded build.  Elsewhere the test fails
and names both builds.  ``python tests/test_golden.py --check`` compares
every section, ``--write`` rewrites the file; a rewrite is a change to a
check and belongs in ``CHANGES.md``.
"""

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from blockspin.cli import main as cli_main
from blockspin.ensembles import random_spec, stream
from blockspin.errors import BlockspinError
from blockspin.harness import ScenarioConfig, emit_report, run_scenario
from blockspin.kernels import identity_suite, next_scale_delta

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
SCENARIOS = ("default.json", "srm.json")
SEEDS = (1, 90210)
SLOW = "gaussian-quadrature"
LATTICE_OPS = 16

STARRED_DIMS = ((3, 2, 1), (4, 3, 2), (6, 4, 2))

FULL_SEEDS = (1, 2, 3, 2026, 90210)
FULL_LATTICE_SEEDS = (1, 2)
FULL_LATTICE_OPS = 64
RANDOM_GRAMS = {"seed": 1, "dims": [4, 3, 2], "grams": "random",
                "interaction": {"bidegrees": [[1, 2], [0, 3]], "scale": 0.2},
                "suites": []}
# command, config, point file contents
CLI_POINTS = {
    "srm.json solve-background": (
        "solve-background", "srm.json",
        {"psi_star": {"re": [0.2], "im": [0.05]}, "psi": [0.3]}),
    "srm.json solve-critical": (
        "solve-critical", "srm.json", {"theta_star": [0.4], "theta": [0.1]}),
    "random-grams solve-critical": (
        "solve-critical", RANDOM_GRAMS,
        {"theta_star": {"re": [0.2, -0.1], "im": [0.05, 0.0]}, "theta": [0.1, 0.3]}),
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_configuration": blas.get("openblas configuration")}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def suite_digests(report) -> dict:
    """The sha256 of each suite's block of the json report."""
    doc = json.loads(emit_report(report, "json"))
    return {s["name"]: sha(json.dumps(s, sort_keys=True).encode()) for s in doc["suites"]}


def solve_lattice_digest(seed: int, ops: int) -> str:
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    bench = workloads.SolveLattice(REPO, seed)
    digest = hashlib.sha256()
    for i in range(ops):
        digest.update(bench.fingerprint(bench.op(i)))
    return digest.hexdigest()


def scenario_config(name: str, seed: int) -> ScenarioConfig:
    path = REPO / "scenarios" / name
    return ScenarioConfig.from_dict(dict(json.loads(path.read_text()), seed=seed),
                                    base_dir=path.parent)


def cli_reply(*args, config, point=None) -> bytes:
    """The bytes ``blockspin`` writes for ``args``; ``config`` is a shipped
    scenario name or a config dict, ``point`` the point file's object."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if isinstance(config, dict):
            path = tmp / "scenario.json"
            path.write_text(json.dumps(config))
        else:
            path = REPO / "scenarios" / config
        argv = [*args, "--config", str(path), "--out", str(tmp / "out")]
        if point is not None:
            (tmp / "point.json").write_text(json.dumps(point))
            argv += ["--point", str(tmp / "point.json")]
        assert cli_main(argv) == 0, f"blockspin {' '.join(args)} failed"
        return (tmp / "out").read_bytes()


def step_maps(spec) -> dict:
    """The 22 maps that the starred digest hashes, from the step data and
    the kernels of ``spec``, under the labels and in the order of the
    recording; a map added later stays out, so the digest keeps comparing
    the same arrays."""
    rg, ks = spec.rg, spec.kernels
    return {"qm": rg.q_minus.entries, "q": rg.q.entries, "qms": rg.qms, "qs": rg.qs,
            "qcm": rg.qcm, "qcms": rg.qcms, "fq": rg.fq.entries, "d": rg.d.entries,
            "dstar": rg.dstar, "qc": ks.qcheck.entries, "qc_star": ks.qc_star.entries,
            "s": ks.s.entries, "s_star": ks.s_star.entries,
            "scheck": ks.scheck.entries, "scheck_star": ks.scheck_star.entries,
            "delta": ks.delta.entries, "delta_star": ks.delta_star.entries,
            "cov": ks.cov.entries, "cov_star": ks.cov_star.entries,
            "crit_lhs": rg.crit_lhs, "fq_qm": rg.fq_qm, "qms_fq": rg.qms_fq}


def starred_digest() -> str:
    """Random-gram specs, two per dims, from one fixed stream."""
    rng = stream(1, "golden-starred")
    digest = hashlib.sha256()
    for dims in STARRED_DIMS * 2:
        spec = random_spec(rng, dims, identity_grams=False)
        for key, entries in step_maps(spec).items():
            arr = np.ascontiguousarray(entries)
            digest.update(f"{key} {arr.dtype} {arr.shape}".encode() + arr.tobytes())
        digest.update(json.dumps(spec.kernels.diagnostics, sort_keys=True).encode())
        digest.update(next_scale_delta(spec.rg, spec.kernels).entries.tobytes())
        try:
            residuals = json.dumps(identity_suite(spec.rg, spec.kernels), sort_keys=True)
        except BlockspinError as exc:
            residuals = f"{type(exc).__name__}: {exc}"
        digest.update(residuals.encode())
    return digest.hexdigest()


def observe() -> dict:
    suites = {name: {} for name in SCENARIOS}
    for seed in SEEDS:
        cfg = scenario_config("srm.json", seed)
        digests = suite_digests(run_scenario(cfg.with_suites(
            [s for s in cfg.suites if s != SLOW])))
        for name in SCENARIOS:
            suites[name][str(seed)] = dict(digests)
    for name in SCENARIOS:
        cfg = scenario_config(name, SEEDS[0]).with_suites([SLOW])
        slow = suite_digests(run_scenario(cfg))[SLOW]
        for digests in suites[name].values():
            digests[SLOW] = slow
    return {"environment": environment(), "suites": suites,
            "solve-lattice": solve_lattice_digest(1, LATTICE_OPS)}


def observe_kernels() -> dict:
    return {"starred": starred_digest(),
            "kernels-dump": {name: sha(cli_reply("kernels", "--dump", config=name))
                             for name in SCENARIOS}}


def observe_full() -> dict:
    """The pre-submit set: whole reports, 64 lattice ops per seed, CLI replies."""
    out = {}
    for name in SCENARIOS:
        for seed in FULL_SEEDS:
            report = run_scenario(scenario_config(name, seed))
            for fmt in ("json", "text"):
                out[f"{name} seed {seed} {fmt} report"] = sha(emit_report(report, fmt))
    for seed in FULL_LATTICE_SEEDS:
        out[f"solve-lattice seed {seed} ops 0-{FULL_LATTICE_OPS - 1}"] = (
            solve_lattice_digest(seed, FULL_LATTICE_OPS))
    for label, (command, config, point) in CLI_POINTS.items():
        out[label] = sha(cli_reply(command, config=config, point=point))
    out["random-grams kernels --dump"] = sha(cli_reply("kernels", "--dump",
                                                       config=RANDOM_GRAMS))
    return out


def moved(want: dict, got: dict) -> list[str]:
    """Each scenario, seed and suite whose digest differs or is missing."""
    def flat(suites):
        return {f"{name} seed {seed} {suite}": digest for name, seeds in suites.items()
                for seed, digests in seeds.items() for suite, digest in digests.items()}
    a, b = flat(want), flat(got)
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def recorded() -> dict:
    want = json.loads(GOLDEN.read_text())
    env = environment()
    assert env == want["environment"], (
        f"golden.json was recorded on {want['environment']}; this run is on {env}")
    return want


def kernel_moves(want: dict, got: dict) -> list[str]:
    changed = [f"kernels --dump {name}" for name in SCENARIOS
               if got["kernels-dump"][name] != want["kernels-dump"].get(name)]
    if got["starred"] != want["starred"]:
        changed.append("starred kernels of the random-gram specs")
    return changed


def test_outputs_match_golden():
    want = recorded()
    got = observe()
    changed = moved(want["suites"], got["suites"])
    assert not changed, "suites that moved: " + "; ".join(changed)
    assert got["solve-lattice"] == want["solve-lattice"], (
        f"SolveLattice fingerprints of ops 0-{LATTICE_OPS - 1} at seed 1 moved")


def test_kernel_paths_match_golden():
    want = recorded()
    changed = kernel_moves(want, observe_kernels())
    assert not changed, "moved: " + "; ".join(changed)


def check() -> list[str]:
    want = recorded()
    got = observe()
    changed = moved(want["suites"], got["suites"])
    if got["solve-lattice"] != want["solve-lattice"]:
        changed.append(f"solve-lattice seed 1 ops 0-{LATTICE_OPS - 1}")
    changed += kernel_moves(want, observe_kernels())
    full = observe_full()
    changed += sorted(k for k in want["full"].keys() | full.keys()
                      if want["full"].get(k) != full.get(k))
    return changed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare every section")
    mode.add_argument("--write", action="store_true", help="rewrite golden.json")
    if parser.parse_args().write:
        golden = {**observe(), **observe_kernels(), "full": observe_full()}
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    else:
        changed = check()
        print("moved: " + "; ".join(changed) if changed else "all golden digests match")
        sys.exit(1 if changed else 0)
