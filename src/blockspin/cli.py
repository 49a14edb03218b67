"""Command line front end.

    blockspin verify --config scenario.json [--suite NAME]...
                     [--format json|text] [--out FILE] [--timings]
    blockspin solve-background --config scenario.json --point point.json
    blockspin solve-critical  --config scenario.json --point point.json
    blockspin kernels --config scenario.json [--dump]

Exit codes: 0 all checks pass, 1 at least one check failed, 2 config error
or an error outside the suites.  An exception inside a suite is reported as
a failed "suite-execution" check whose note names the exception type, so
verify exits 1.  Point files hold one vector per field, either a plain list
(real) or {"re": [...], "im": [...]}.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import BlockspinError, ConfigError
from .harness import ScenarioConfig, emit_report, run_scenario, scenario_spec
from .linalg import FieldVector
from .solvers import (background_residual, critical_residual,
                      newton_background, newton_critical)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_field(raw, space, name: str) -> FieldVector:
    if isinstance(raw, dict):
        re = raw.get("re")
        im = raw.get("im", [0.0] * space.dim)
        if not isinstance(re, list) or not isinstance(im, list):
            raise ConfigError(f"point field '{name}': need lists under 're' and 'im'")
        vals = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    elif isinstance(raw, list):
        vals = np.asarray(raw, dtype=float).astype(complex)
    else:
        raise ConfigError(f"point field '{name}': need a list or an object "
                          "with 're' and 'im'")
    if vals.shape != (space.dim,):
        raise ConfigError(f"point field '{name}': need {space.dim} entries, "
                          f"got {vals.shape}")
    return FieldVector(space, vals)


def _load_point(path: str, space, names: tuple[str, str]) -> tuple[FieldVector, FieldVector]:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read point file '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"point file '{path}' is not valid json: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"point file '{path}': need a json object")
    for key in raw:
        if key not in names:
            raise ConfigError(f"point file '{path}': unknown field '{key}' "
                              f"(expected {names[0]}, {names[1]})")
    for key in names:
        if key not in raw:
            raise ConfigError(f"point file '{path}': missing field '{key}'")
    return (_parse_field(raw[names[0]], space, names[0]),
            _parse_field(raw[names[1]], space, names[1]))


def _vector_out(v: FieldVector) -> dict:
    return {"re": [float(x) for x in v.components.real],
            "im": [float(x) for x in v.components.imag]}


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_bytes(text.encode())
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    cfg = ScenarioConfig.from_file(args.config)
    if args.suite:
        cfg = cfg.with_suites(args.suite)
    report = run_scenario(cfg, timings=args.timings)
    blob = emit_report(report, args.format)
    if args.out:
        Path(args.out).write_bytes(blob)
    else:
        sys.stdout.buffer.write(blob)
    return 0 if report.passed else 1


def _cmd_solve_background(args) -> int:
    spec = scenario_spec(ScenarioConfig.from_file(args.config))
    ps, pu = _load_point(args.point, spec.rg.space_mid, ("psi_star", "psi"))
    phi_star, phi = newton_background(spec, ps, pu)
    r_star, r_unstar = background_residual(spec, phi_star, phi, ps, pu)
    worst = max(float(np.abs(r_star.components).max()),
                float(np.abs(r_unstar.components).max()))
    _emit({"phi_star": _vector_out(phi_star), "phi": _vector_out(phi),
           "residual": _fmt(worst)}, args.out)
    return 0


def _cmd_solve_critical(args) -> int:
    spec = scenario_spec(ScenarioConfig.from_file(args.config))
    ts, tu = _load_point(args.point, spec.rg.space_plus, ("theta_star", "theta"))
    psi_star, psi = newton_critical(spec, ts, tu)
    r_star, r_unstar = critical_residual(spec, psi_star, psi, ts, tu)
    worst = max(float(np.abs(r_star.components).max()),
                float(np.abs(r_unstar.components).max()))
    _emit({"psi_star": _vector_out(psi_star), "psi": _vector_out(psi),
           "residual": _fmt(worst)}, args.out)
    return 0


def _matrix_out(op) -> dict:
    return {"re": [[float(x) for x in row] for row in op.entries.real],
            "im": [[float(x) for x in row] for row in op.entries.imag]}


def _cmd_kernels(args) -> int:
    spec = scenario_spec(ScenarioConfig.from_file(args.config))
    ks = spec.kernels
    payload = {"diagnostics": {k: _fmt(v) for k, v in sorted(ks.diagnostics.items())}}
    if args.dump:
        for name in ("qcheck", "s", "scheck", "delta", "cov"):
            payload[name] = _matrix_out(getattr(ks, name))
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

    p = sub.add_parser("solve-background",
                       help="solve the background equations at one point")
    p.add_argument("--config", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve_background)

    p = sub.add_parser("solve-critical",
                       help="solve the critical equations at one point")
    p.add_argument("--config", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve_critical)

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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlockspinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
