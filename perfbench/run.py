"""Benchmark entry point for blockspin.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: verify, series-order7,
solve-lattice (see README.md; BENCHMARK.json lists the first and the
last).  Every worker process runs with one BLAS
thread.  With ``--trace 0`` set-up is timed in several fresh processes and
the median reported, and one of them then runs the timed closed loop.
With ``--trace 1`` one process reports the per-layer split.

Prints one json line describing the run (environment, failures, op count,
90th-percentile latency where a run holds 100 ops or more), then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.  Exits 2
without a result when the checkout lacks the package or its scenarios, and
1 when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "series-order7", "solve-lattice")
NEEDED = ("src/blockspin/__init__.py", "scenarios/default.json",
          "scenarios/srm.json", "scenarios/srm_cubic.json")
SETUP_SAMPLES = 7    # fresh processes timed for setup_s, the measuring one included
SLACK_S = 120.0      # every worker is stopped this long after --seconds


def git_commit() -> str:
    git = shutil.which("git")
    if git is None:
        return "unknown"
    # the ceiling keeps git from reporting an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run([git, "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_worker(args: list, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=max(deadline - time.monotonic(), 1.0))
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="blockspin benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds + SLACK_S

    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a blockspin checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("perfbench: --seed must be in [0, 2^64)", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        setup = [] if args.trace else [
            run_worker([*common, "--setup-only"], env, deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker([*common, "--trace", str(args.trace)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": dict(result.pop("env"), git_commit=git_commit()),
            **result.pop("info")}
    if not args.trace:
        setup.append(result["metrics"]["setup_s"]["value"])
        info["setup_samples_s"] = setup
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
