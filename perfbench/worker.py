"""One benchmark process: set up one workload, run it, print one json line.

``run.py`` starts this file in fresh processes with the BLAS thread count
pinned; see README.md.  Modes:

- ``--setup-only``: time the set-up and stop;
- ``--trace 0``: time the set-up, then run ops in a closed loop for
  ``--seconds`` and report the end-to-end metrics;
- ``--trace 1``: alternate untraced and traced passes for ``--seconds``
  (a pass is a set-up plus one round of ops) and report the per-layer
  metrics, the tracing overhead and whether tracing changed any output.
"""

import time

T0 = time.perf_counter()  # set-up is timed from before ``import blockspin``

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# the public functions wrapped per layer in a traced run
LAYERS = {
    "linalg": ("gated_solve", "cond", "woodbury_left", "woodbury_right"),
    "lattice": ("build_tower",),
    "kernels": ("build_kernels", "starred_kernels", "identity_suite"),
    "tensorpoly": ("compose", "jacobians", "eval_map", "symmetrize"),
    "series": ("compose_pair",),
    "action": ("make_action_spec", "effective_action", "preparation_check"),
    "solvers": ("fps_background", "fps_critical", "fps_nextscale", "compose_cp",
                "delta_phi_plus_series", "newton_background", "newton_critical",
                "delta_a_direct", "delta_a_formula"),
    "gaussian": ("prop_d_quadrature_check", "prop_d_gaussian_check"),
    "ensembles": ("random_spec", "random_rg_data"),
    "harness": ("run_scenario", "emit_report"),
}

# (name, numerator, denominator); a name alone counts calls, a pair counts
# calls of the second made directly under the first
RATIOS = (
    ("solvers.newton_background.per_critical",
     ("solvers.newton_critical", "solvers.newton_background"), "solvers.newton_critical"),
    ("ensembles.random_spec.accept_ratio",
     "ensembles.random_spec", ("ensembles.random_spec", "ensembles.random_rg_data")),
    ("kernels.starred_kernels.per_spec",
     "kernels.starred_kernels", "action.make_action_spec"),
)

# end-to-end metrics of an untraced run, with their units
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

clock = time.perf_counter


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def per_layer_units(suite_names) -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, names in LAYERS.items():
        for fname in names:
            units[f"{module}.{fname}.calls"] = "calls/pass"
            units[f"{module}.{fname}.self_s"] = "s/pass"
    for suite in suite_names:
        units[f"harness.suite.{suite}.s"] = "s/op"
    units["gaussian.quad_nodes"] = "nodes/op"
    for name, _, _ in RATIOS:
        units[name] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.output_mismatches"] = "count"
    return units


class Tally:
    """Attempted and failed ops, and the latencies of the ops that returned
    (a wrong output is a failure, but its latency is still measured)."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()
        self.first_failure = None
        self.latencies: list = []
        self.indices: list = []  # the op index of each latency
        self.cpu_times: list = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def _fail(self, kind: str, note: str):
        self.failures[kind] += 1
        if self.first_failure is None:
            self.first_failure = note
        return None

    def run(self, wl, i: int):
        """Op i timed, then its gate untimed; the output, or None on failure."""
        self.attempted += 1
        start, cpu_start = clock(), time.process_time()
        try:
            out = wl.op(i)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed op, not the end of the run
            return self._fail(f"crash:{type(exc).__name__}", f"op {i}: {type(exc).__name__}: {exc}")
        self.latencies.append(clock() - start)
        self.indices.append(i)
        self.cpu_times.append(time.process_time() - cpu_start)
        try:
            note = wl.check(i, out)
        except Exception as exc:  # noqa: BLE001
            note = f"check raised {type(exc).__name__}: {exc}"
        if note is not None:
            return self._fail("gate", f"op {i}: {note}")
        return out

    def info(self) -> dict:
        lat = self.latencies
        return {"ops": self.attempted, "timed_ops": len(lat),
                "fail_share": self.failed / max(self.attempted, 1),
                "failures": dict(self.failures), "first_failure": self.first_failure,
                "op_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[8]
                              if len(lat) >= 100 else None),
                "op_cpu_p50_ms": 1e3 * statistics.median(self.cpu_times) if lat else None}


def timed_loop(wl, seconds: float) -> Tally:
    """Closed loop, one client: ops until the next one would end past the
    window, and at least one of each kind (an op's gate counts towards the
    window, not towards its time)."""
    tally = Tally()
    begin = clock()
    last = 0.0
    i = 0
    while i < wl.kinds or clock() - begin + last <= seconds:
        start = clock()
        tally.run(wl, i)
        last = clock() - start
        i += 1
    return tally


def by_kind(tally: Tally, kinds: int) -> list:
    """The latencies of each kind of op that returned at least once."""
    groups: list = [[] for _ in range(kinds)]
    for i, t in zip(tally.indices, tally.latencies):
        groups[i % kinds].append(t)
    return [g for g in groups if g]


# Both figures weigh every kind of op alike, so that the mix of kinds in
# them does not depend on how many ops fit into a run.
def op_p50_ms(tally: Tally, kinds: int) -> float:
    """Mean over the kinds of op of each kind's median latency."""
    groups = by_kind(tally, kinds)
    return 1e3 * statistics.fmean(map(statistics.median, groups)) if groups else 0.0


def ops_per_s(tally: Tally, kinds: int) -> float:
    """Ops per second of op time for an even mix of the kinds of op."""
    groups = by_kind(tally, kinds)
    return 1.0 / statistics.fmean(map(statistics.fmean, groups)) if groups else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_info() -> dict:
    import numpy as np

    info: dict = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (TypeError, KeyError):
        pass
    libs = []
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "blas" in line.lower()})
    except OSError:
        pass
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes = []
                get.restype = ctypes.c_int
                info["blas_threads"] = get()
                return info
    return info


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version()}
    env.update(blas_info())
    env["thread_env"] = {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return env


def run_untraced(factory, seconds: float) -> dict:
    wl = factory()
    setup_s = clock() - T0
    tally = timed_loop(wl, seconds)
    values = {"setup_s": setup_s,
              "op_p50_ms": op_p50_ms(tally, wl.kinds),
              "ops_per_s": ops_per_s(tally, wl.kinds),
              "peak_rss_mb": peak_rss_mb()}
    metrics = {k: metric(values[k], u) for k, u in END_TO_END.items()}
    return {"correct": tally.failed == 0 and bool(tally.latencies),
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "info": tally.info()}


def run_pass(factory, tally: Tally, fingerprints: dict, on_output=None) -> int:
    """One set-up plus one round of ops; every output's fingerprint is
    compared with the first one seen for its op index.  Returns the number
    of mismatches."""
    wl = factory()
    mismatches = 0
    for i in range(wl.round):
        out = tally.run(wl, i)
        if out is None:
            continue
        fp = wl.fingerprint(out)
        if fingerprints.setdefault(i, fp) != fp:
            mismatches += 1
        if on_output is not None:
            on_output(wl, out)
    return mismatches


def run_traced(factory, seconds: float, kinds: int) -> dict:
    """Untraced and traced passes, alternating so that drift in machine
    speed affects both alike, until the next pass would end past the
    window (at least one of each)."""
    from blockspin import gaussian, harness
    from tracer import Tracer

    fingerprints: dict = {}
    suite_s: Counter = Counter()  # summed over the untraced verify ops that passed

    def collect(wl, out):
        if hasattr(wl, "suite_seconds"):
            suite_s.update(wl.suite_seconds(out))
            suite_s["ops"] += 1

    # quadrature nodes are counted where the package builds its grids
    grid = getattr(gaussian, "_polar_grid", None)
    nodes = [0]

    def counted_grid(*args, **kwargs):
        pts, wts = grid(*args, **kwargs)
        nodes[0] += len(pts)
        return pts, wts

    tracer = Tracer()
    plain, traced = Tally(), Tally()
    begin = clock()
    last = 0.0
    passes = mismatches = 0
    while passes < 2 or clock() - begin + last <= seconds:
        start = clock()
        if passes % 2 == 0:
            mismatches += run_pass(factory, plain, fingerprints, collect)
        else:
            tracer.install("blockspin", LAYERS)
            if grid is not None:
                gaussian._polar_grid = counted_grid
            try:
                mismatches += run_pass(factory, traced, fingerprints)
            finally:
                tracer.uninstall()
                if grid is not None:
                    gaussian._polar_grid = grid
        passes += 1
        last = clock() - start
    traced_passes = passes // 2

    units = per_layer_units(harness.SUITE_NAMES)
    values = {}
    for module, names in LAYERS.items():
        for fname in names:
            span = f"{module}.{fname}"
            values[f"{span}.calls"] = tracer.calls[span] / traced_passes
            values[f"{span}.self_s"] = tracer.self_s[span] / traced_passes
    for suite in harness.SUITE_NAMES:
        values[f"harness.suite.{suite}.s"] = suite_s[suite] / max(suite_s["ops"], 1)
    values["gaussian.quad_nodes"] = nodes[0] / max(traced.attempted, 1)

    def count(key):
        return tracer.edges[key] if isinstance(key, tuple) else tracer.calls[key]

    for name, num, den in RATIOS:
        values[name] = count(num) / count(den) if count(den) else 0.0
    if plain.latencies and traced.latencies:
        values["trace.overhead_ratio"] = (op_p50_ms(traced, kinds)
                                          / op_p50_ms(plain, kinds))
    else:
        values["trace.overhead_ratio"] = 0.0
    values["trace.output_mismatches"] = mismatches

    failed = plain.failed + traced.failed
    info = {"untraced": plain.info(), "traced": traced.info(), "traced_passes": traced_passes,
            "output_mismatches": mismatches,
            "quad_nodes_counted": grid is not None}
    return {"correct": failed == 0 and mismatches == 0 and bool(traced.latencies),
            "attempted": plain.attempted + traced.attempted, "failed": failed,
            "metrics": {k: metric(values[k], u) for k, u in units.items()}, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    cls = workloads.WORKLOADS[args.workload]

    def factory():
        return cls(ROOT, args.seed)

    if args.setup_only:
        factory()
        result = {"setup_s": clock() - T0}
    elif args.trace:
        result = run_traced(factory, args.seconds, cls.kinds)
    else:
        result = run_untraced(factory, args.seconds)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
