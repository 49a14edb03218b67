"""Command line front end.

    blockspin verify --config scenario.json [--suite NAME]...
                     [--format json|text] [--out FILE] [--timings]
    blockspin solve-background --config scenario.json --point point.json
    blockspin solve-critical  --config scenario.json --point point.json
    blockspin kernels --config scenario.json [--dump]

Exit codes: 0 all checks pass, 1 at least one check failed, 2 config error
or an error outside the suites.  Config errors, which name their field,
include malformed point files, non-finite numbers (json NaN, Infinity),
unknown keys in nested objects, a bad lattice profile, a lattice whose
extents the block does not divide, an invalid operator table, dims that
disagree with the operator shapes, an interaction bidegree of total degree
below 2, and malformed polynomial records.  Every command catches them
alike, when it reads the config or point file.  An exception inside a suite
is reported as a failed "suite-execution" check whose note names the
exception type, so verify exits 1.  Point files hold one vector per field,
either a plain list (real) or {"re": [...], "im": [...]}.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import BlockspinError, ConfigError
from .harness import (ScenarioConfig, _fmt, _list_of, _need, _read_json, _real,
                      emit_report, run_scenario, scenario_spec)
from .linalg import FieldVector
from .solvers import (background_residual, critical_residual,
                      newton_background, newton_critical)


def _parse_field(raw, space, name: str) -> FieldVector:
    if isinstance(raw, dict):
        parts = (raw.get("re"), raw.get("im", [0.0] * space.dim))
        _need(set(raw) <= {"re", "im"} and all(isinstance(p, list) for p in parts),
              name, "need lists under 're' and 'im'", "point")
    else:
        _need(isinstance(raw, list), name,
              "need a list or an object with 're' and 'im'", "point")
        parts = (raw,)
    for part in parts:
        _need(_list_of(part, _real), name, "need finite real numbers", "point")
        _need(len(part) == space.dim, name,
              f"need {space.dim} entries, got {(len(part),)}", "point")
    re, *im = (np.asarray(part, dtype=float) for part in parts)
    return FieldVector(space, re + 1j * im[0] if im else re.astype(complex))


def _load_point(path: str, space, names: tuple[str, str]) -> tuple[FieldVector, FieldVector]:
    raw = _read_json(path, "point file ")
    if not isinstance(raw, dict):
        raise ConfigError(f"point file '{path}': need a json object")
    for key in raw:
        if key not in names:
            raise ConfigError(f"point file '{path}': unknown field '{key}' "
                              f"(expected {names[0]}, {names[1]})")
    for key in names:
        if key not in raw:
            raise ConfigError(f"point file '{path}': missing field '{key}'")
    return tuple(_parse_field(raw[name], space, name) for name in names)


def _complex_out(a: np.ndarray) -> dict:
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def _emit(payload: dict | bytes, out: str | None) -> None:
    """Write a report, or a dict as stable-key-ordered json, to ``out`` or stdout."""
    if isinstance(payload, dict):
        payload = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    if out:
        Path(out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)


def _cmd_verify(args) -> int:
    cfg = ScenarioConfig.from_file(args.config)
    if args.suite:
        cfg = cfg.with_suites(args.suite)
    report = run_scenario(cfg, timings=args.timings)
    _emit(emit_report(report, args.format), args.out)
    return 0 if report.passed else 1


# command -> source space, point fields, solution fields, solver, residual
_SOLVES = {
    "solve-background": ("space_mid", ("psi_star", "psi"), ("phi_star", "phi"),
                         newton_background, background_residual),
    "solve-critical": ("space_plus", ("theta_star", "theta"), ("psi_star", "psi"),
                       newton_critical, critical_residual),
}


def _cmd_solve(args) -> int:
    space, point_names, out_names, solve, residual = _SOLVES[args.command]
    spec = scenario_spec(ScenarioConfig.from_file(args.config))
    source = _load_point(args.point, getattr(spec.rg, space), point_names)
    solution = solve(spec, *source)
    worst = max(float(np.abs(r.components).max())
                for r in residual(spec, *solution, *source))
    _emit(dict(zip(out_names, (_complex_out(v.components) for v in solution)),
               residual=_fmt(worst)), args.out)
    return 0


def _cmd_kernels(args) -> int:
    spec = scenario_spec(ScenarioConfig.from_file(args.config))
    ks = spec.kernels
    payload = {"diagnostics": {k: _fmt(v) for k, v in sorted(ks.diagnostics.items())}}
    if args.dump:
        for name in ("qcheck", "s", "scheck", "delta", "cov"):
            payload[name] = _complex_out(getattr(ks, name).entries)
    _emit(payload, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockspin", description="verify one-step block-spin identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the configured check suites")
    p.add_argument("--config", required=True)
    p.add_argument("--suite", action="append", default=None, metavar="NAME",
                   help="restrict to this suite (repeatable)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock times (breaks byte-for-byte "
                        "report reproducibility)")
    p.set_defaults(func=_cmd_verify)

    for name in _SOLVES:
        p = sub.add_parser(name, help=f"solve the {name.removeprefix('solve-')} "
                                      "equations at one point")
        p.add_argument("--config", required=True)
        p.add_argument("--point", required=True)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("kernels", help="derived kernels of the scenario step")
    p.add_argument("--config", required=True)
    p.add_argument("--dump", action="store_true",
                   help="include the kernel matrices, not just diagnostics")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_kernels)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlockspinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
