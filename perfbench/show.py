"""Print every benchmark metric by name with its unit, for every workload.

    python3 perfbench/show.py --seed N

Runs ``run.py`` untraced and then traced for each workload it offers
(``series-order7`` too, which BENCHMARK.json leaves out), for
BENCHMARK.json's ``run_seconds``, with the given seed.  Prints the
end-to-end metrics, the run's op count, fail share and 90th-percentile
latency (where a run holds 100 ops or more), then the per-layer metrics.
Exits 1 if any run fails or reports incorrect output.  To check a result
on a held-out seed, rerun with a seed not used before, e.g.
``--seed 90210``; inputs depend on the seed alone.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        return None, None
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    ok = True
    info = None
    for workload in WORKLOADS:
        for trace in (0, 1):
            info, result = run(workload, args.seed, spec["run_seconds"], trace)
            kind = "per-layer (traced run)" if trace else "end-to-end"
            print(f"== {workload}  seed {args.seed}  {kind}")
            if result is None:
                print("   run failed")
                ok = False
                continue
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                print(f"   {name:<48} {m['value']:>16.6g} {m['unit']}")
            if not trace:
                p90 = info["op_p90_ms"]
                print(f"   {'op_p90_ms':<48} "
                      f"{'n/a (<100 ops)' if p90 is None else f'{p90:.6g}':>16} ms")
            phases = [("untraced ", info["untraced"]), ("traced ", info["traced"])] \
                if trace else [("", info)]
            for label, tally in phases:
                print(f"   {label + 'fail_share':<48} {tally['fail_share']:>16.6g} "
                      f"of {tally['ops']} ops")
                if tally["first_failure"]:
                    print(f"   {label}first failure: {tally['first_failure']}")
            print(f"   {'correct':<48} {str(result['correct']):>16}")
    if info is not None:
        print(f"environment: {json.dumps(info['env'])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
