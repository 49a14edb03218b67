"""Scenario-driven verification harness.

A scenario file (json) fixes the seed, the spaces, how the step data is
generated, tolerances, and which suites run.  Each suite draws its own
pinned ensemble from a stream labeled by the suite name, so suites are
self-contained and insensitive to each other or to listing order; the
scenario's dims/forms/operators/polynomial define the data used by the
solve and kernel commands, and by the gaussian-quadrature suite whenever
the scenario is a one-dimensional identity-form setup (otherwise that
suite falls back to its pinned reference family).

Reports are deterministic: suites are assembled in name order, residuals
are serialized as decimal strings with 17 significant digits, and timings
are excluded unless explicitly requested.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .action import make_action_spec, preparation_check
from .ensembles import (random_field, random_polynomial, random_rg_data,
                        random_spd, random_spec, stream, unit_field)
from .errors import BlockspinError, ConfigError
from .gaussian import prop_d_gaussian_check, prop_d_quadrature_check
from .kernels import RGData, identity_suite, qcheck_alt, qcheck_recursion
from .lattice import BlockScheme, TorusLattice, build_tower, sublattice
from .linalg import (FieldVector, Operator, SpaceSpec, adjoint, cond,
                     pairing, rel_opnorm, woodbury_left, woodbury_right)
from .poly import PolynomialP, load_polynomial
from .reference import scalar_reference_data, scalar_reference_spec
from .solvers import (compose_cp, delta_a_direct, delta_a_formula,
                      fps_background, fps_critical, newton_background,
                      newton_critical, verify_composition,
                      verify_crit_representation)

__all__ = ["ScenarioConfig", "Check", "SuiteResult", "Report",
           "SUITE_NAMES", "run_scenario", "emit_report",
           "scenario_data", "scenario_spec"]

SUITE_NAMES = ("crit-representation", "deltaA", "edA", "fps-composition",
               "gaussian-detd", "gaussian-quadrature", "lattice",
               "newton-vs-fps", "preparation", "qcheck", "woodbury")

# defaults; a scenario's "tolerances" table overrides by key
TOLERANCES = {
    "woodbury": 1e-11,
    "qcheck": 1e-11,
    "edA": 1e-11,
    "preparation": 1e-11,
    "preparation-gradient": 1e-9,
    "fps-composition": 1e-10,
    "crit-representation": 1e-10,
    "reference-coefficients": 1e-12,
    "newton-vs-fps": 1e-7,
    "deltaA": 1e-8,
    "deltaA-free": 1e-13,
    "gaussian-detd": 1e-10,
    "gaussian-reference": 1e-12,
    "gaussian-quadrature": 1e-3,
    "lattice": 1e-12,
}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# input checks shared by scenario configs and point files

def _real(x) -> bool:
    """A finite json number: not a bool, NaN, Infinity or an int past float range."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _int_in(x, lo: int, hi: float = math.inf) -> bool:
    return isinstance(x, int) and _real(x) and lo <= x <= hi


def _positive(x) -> bool:
    return _real(x) and x > 0


def _list_of(x, ok, n: int | None = None) -> bool:
    """A list or tuple (of n items, if given) whose items all satisfy ``ok``."""
    return isinstance(x, (list, tuple)) and (n is None or len(x) == n) and all(map(ok, x))


def _need(ok, field: str, what: str, kind: str = "config") -> None:
    if not ok:
        raise ConfigError(f"{kind} field '{field}': {what}")


_POSITIVE = (_positive, "need a positive number")
_EXTENT = (lambda x: bool(x) and _list_of(x, lambda v: _int_in(v, 1)), "need positive integers")

# nested config objects: the predicate and the message of each entry
_ENTRIES = {
    "lattice": {"extents": _EXTENT, "block": _EXTENT,
                "profile": (lambda x: _list_of(x, _real),
                            "need a list of finite real numbers")},
    "interaction": {
        "bidegrees": (lambda x: _list_of(x, lambda p: _list_of(p, lambda v: _int_in(v, 0), 2)
                                         and sum(p) >= 2),
                      "need pairs of nonnegative integers of total degree >= 2"),
        "scale": _POSITIVE},
    "tolerances": dict.fromkeys(TOLERANCES, _POSITIVE),
    "quadrature": {"nodes_per_axis": (lambda x: _int_in(x, 4), "need an integer >= 4"),
                   "theta_cutoff_sigmas": _POSITIVE},
}


def _check_object(obj, field: str, listed: bool = False) -> None:
    """Known keys only, each entry by its row of ``_ENTRIES``."""
    entries = _ENTRIES[field]
    _need(isinstance(obj, dict), field, "need an object")
    hint = f" (known: {', '.join(sorted(entries))})" if listed else ""
    for k, v in obj.items():
        _need(k in entries, field, f"unknown entry '{k}'{hint}")
        ok, what = entries[k]
        _need(ok(v), f"{field}.{k}", what)


def _read_json(path, what: str, prefix: str = ""):
    """Parse a json file; ``prefix`` and ``what`` name it in the error."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{prefix}cannot read {what}'{path}': {exc}") from exc
    except ValueError as exc:  # bad json, or bytes that are not utf-8
        raise ConfigError(f"{prefix}{what}'{path}' is not valid json: {exc}") from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario.  Every way of building one (direct, ``from_dict``,
    ``from_file``, ``with_suites``, ``replace``) runs the checks and the
    normalization in ``__post_init__``; a bad field raises ConfigError."""

    seed: int
    suites: tuple[str, ...] = SUITE_NAMES
    dims: tuple[int, int, int] | None = None
    lattice: dict | None = None
    grams: str = "identity"
    b: float = 1.0
    operators: dict | None = None
    polynomial: str | None = None
    interaction: dict | None = None
    max_order: int = 4
    tolerances: dict = field(default_factory=dict)
    radii: tuple[float, float] = (1.0, 1.0)
    quadrature: dict = field(default_factory=dict)
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self):
        _need(_int_in(self.seed, 0, 2 ** 64 - 1), "seed", "need an integer in [0, 2^64)")

        _need(_list_of(self.suites, lambda s: isinstance(s, str)), "suites",
              "need a list of suite names")
        for s in self.suites:
            _need(s in SUITE_NAMES, "suites",
                  f"unknown suite '{s}' (known: {', '.join(SUITE_NAMES)})")
        object.__setattr__(self, "suites", tuple(self.suites))

        if self.dims is not None:
            _need(_list_of(self.dims, lambda d: _int_in(d, 1), 3), "dims",
                  "need three positive integers")
            object.__setattr__(self, "dims", tuple(self.dims))

        lattice = self.lattice
        dim_minus = (self.dims or (3, 2, 1))[0]  # dimension of the fine space, where P lives
        if lattice is not None:
            _need(self.dims is None, "lattice", "give dims or lattice, not both")
            _need(isinstance(lattice, dict) and "extents" in lattice and "block" in lattice,
                  "lattice", "need an object with 'extents' and 'block' (optional 'profile')")
            _check_object(lattice, "lattice")
            scheme = _block_scheme(lattice)
            fine = TorusLattice(tuple(lattice["extents"]))
            try:  # both steps of the scenario's two-step tower
                sublattice(sublattice(fine, scheme, 1), scheme, 2)
            except ValueError as exc:
                raise ConfigError(f"config field 'lattice': {exc}") from exc
            dim_minus = fine.size

        _need(self.grams in ("identity", "random"), "grams", "need 'identity' or 'random'")

        _need(_positive(self.b), "b", "need a positive number")
        object.__setattr__(self, "b", float(self.b))

        operators = self.operators
        if operators is not None:
            _need(lattice is None, "operators", "not allowed with a lattice scenario")
            _need(isinstance(operators, dict) and set(operators) == {"q_minus", "q", "fq", "d"},
                  "operators", "need exactly the matrices q_minus, q, fq, d")
            _need(self.grams == "identity", "grams", "explicit operators require identity forms")
            dim_minus = _operator_step(operators, self.dims, self.b).space_minus.dim

        polynomial, interaction = self.polynomial, self.interaction
        _need(polynomial is None or isinstance(polynomial, str), "polynomial",
              "need a file path string")
        if interaction is not None:
            _need(polynomial is None, "interaction",
                  "give a polynomial file or an interaction ensemble, not both")
            _need(isinstance(interaction, dict)
                  and isinstance(interaction.get("bidegrees"), list), "interaction",
                  "need an object with 'bidegrees' (and optional 'scale')")
            _check_object(interaction, "interaction")
        object.__setattr__(self, "base_dir", Path(self.base_dir))
        if polynomial is not None:
            resolved = self.base_dir / polynomial
            _need(resolved.is_file(), "polynomial", f"file '{resolved}' does not exist")
            _polynomial(resolved, SpaceSpec(dim_minus))

        _need(_int_in(self.max_order, 1, 8), "max_order", "need an integer in [1, 8]")

        _check_object(self.tolerances, "tolerances", listed=True)
        object.__setattr__(self, "tolerances", dict(self.tolerances))

        _need(_list_of(self.radii, _positive, 2), "radii", "need two positive numbers")
        object.__setattr__(self, "radii", (float(self.radii[0]), float(self.radii[1])))

        _check_object(self.quadrature, "quadrature")
        object.__setattr__(self, "quadrature", dict(self.quadrature))

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str | Path = ".") -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a json object")
        known = {f.name for f in fields(cls)} - {"base_dir"}
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown config field '{key}'")
        return cls(**{"seed": None, **raw}, base_dir=base_dir)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        return cls.from_dict(_read_json(path, "config "), base_dir=Path(path).parent)

    def with_suites(self, names) -> "ScenarioConfig":
        return replace(self, suites=names)

    def tolerance(self, key: str) -> float:
        return float(self.tolerances.get(key, TOLERANCES[key]))

    def echo(self) -> dict:
        out = {"seed": self.seed, "suites": list(self.suites),
               "grams": self.grams, "b": self.b, "max_order": self.max_order,
               "radii": list(self.radii)}
        if self.dims is not None:
            out["dims"] = list(self.dims)
        for key in ("lattice", "operators", "polynomial", "interaction"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        if self.tolerances:
            out["tolerances"] = {k: _fmt(v) for k, v in sorted(self.tolerances.items())}
        if self.quadrature:
            out["quadrature"] = self.quadrature
        return out


# ---------------------------------------------------------------------------
# scenario data assembly (used by the solve/kernel commands and the
# quadrature suite; the other suites draw their own pinned ensembles)

def _entries(raw, name: str) -> np.ndarray:
    field = f"operators.{name}"
    _need(_list_of(raw, lambda row: isinstance(row, list)) and raw, field,
          "need a 2-d matrix")
    _need(all(_list_of(row, _real, len(raw[0])) for row in raw), field,
          "not a real matrix")
    return np.array(raw, dtype=float)


def _operator_step(operators: dict, dims, b: float) -> RGData:
    """The step of an explicit operator table, cross-checked against ``dims``."""
    qm, q, fq, d = (_entries(operators[k], k) for k in ("q_minus", "q", "fq", "d"))
    dm, dmid, dp = qm.shape[1], qm.shape[0], q.shape[0]
    if dims is not None and dims != (dm, dmid, dp):
        raise ConfigError(f"config field 'dims': {list(dims)} does not match "
                          f"the operator shapes ({dm}, {dmid}, {dp})")
    sm, smid, sp = SpaceSpec(dm), SpaceSpec(dmid), SpaceSpec(dp)
    try:
        return RGData(space_minus=sm, space_mid=smid, space_plus=sp,
                      q_minus=Operator(sm, smid, qm), q=Operator(smid, sp, q),
                      b=b, fq=Operator(smid, smid, fq), d=Operator(sm, sm, d))
    except (ValueError, BlockspinError) as exc:
        raise ConfigError(f"config field 'operators': {exc}") from exc


def _step_dims(cfg: ScenarioConfig) -> tuple[int, int, int]:
    """The step's dimensions when the scenario has no lattice: ``dims``,
    else the shapes of the operator table, else the default (3, 2, 1)."""
    if cfg.dims is None and cfg.operators is not None:
        qm, q = cfg.operators["q_minus"], cfg.operators["q"]
        return len(qm[0]), len(qm), len(q)
    return cfg.dims or (3, 2, 1)


def _block_scheme(lattice: dict) -> BlockScheme:
    """The scenario's block scheme; BlockScheme's own rules check the profile."""
    profile = lattice.get("profile")
    try:
        return BlockScheme(tuple(lattice["block"]),
                           None if profile is None else np.asarray(profile, dtype=float))
    except ValueError as exc:
        raise ConfigError(f"config field 'lattice.profile': {exc}") from exc


def _polynomial(path: Path, space: SpaceSpec) -> PolynomialP:
    """The interaction in a polynomial file; a malformed record is a ConfigError."""
    records = _read_json(path, "", "config field 'polynomial': ")
    try:
        return load_polynomial(records, space)
    except ValueError as exc:
        raise ConfigError(f"config field 'polynomial': {exc}") from exc


def scenario_data(cfg: ScenarioConfig) -> RGData:
    if cfg.lattice is not None:
        tower = build_tower(TorusLattice(tuple(cfg.lattice["extents"])),
                            _block_scheme(cfg.lattice), 2)
        sm = tower[0].lattice.space()
        smid = tower[1].lattice.space()
        rng = stream(cfg.seed, "lattice-kernels")
        fq = Operator(smid, smid, random_spd(rng, smid.dim) + 0.5 * np.eye(smid.dim))
        d = Operator(sm, sm, random_spd(rng, sm.dim) + 0.5 * np.eye(sm.dim))
        return RGData(space_minus=sm, space_mid=smid,
                      space_plus=tower[2].lattice.space(),
                      q_minus=tower[1].step, q=tower[2].step,
                      b=cfg.b, fq=fq, d=d)
    if cfg.operators is not None:
        return _operator_step(cfg.operators, cfg.dims, cfg.b)
    return random_rg_data(stream(cfg.seed, "scenario"), _step_dims(cfg), b=cfg.b,
                          identity_grams=(cfg.grams == "identity"))


def scenario_spec(cfg: ScenarioConfig):
    data = scenario_data(cfg)
    p = None
    if cfg.polynomial is not None:
        p = _polynomial(cfg.base_dir / cfg.polynomial, data.space_minus)
    elif cfg.interaction is not None:
        bidegrees = [tuple(pair) for pair in cfg.interaction["bidegrees"]]
        p = random_polynomial(stream(cfg.seed, "interaction"), data.space_minus,
                              bidegrees, float(cfg.interaction.get("scale", 0.3)))
    return make_action_spec(data, p)


# ---------------------------------------------------------------------------
# report structures

@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None
    note: str = ""

    def __post_init__(self):
        # numpy comparisons yield np.bool_, which json refuses
        object.__setattr__(self, "passed", bool(self.passed))

    @classmethod
    def within(cls, name: str, residual, tol: float, note: str = "") -> "Check":
        """Passes when ``residual <= tol``, so a NaN residual fails."""
        return cls(name, residual <= tol, residual, tol, note)


@dataclass
class SuiteResult:
    name: str
    checks: list
    condition_numbers: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass
class Report:
    config: dict
    suites: list
    timings: bool = False

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def as_dict(self) -> dict:
        suites = []
        for s in self.suites:
            checks = []
            for c in s.checks:
                entry = {"name": c.name, "passed": c.passed,
                         "residual": None if c.residual is None else _fmt(c.residual),
                         "tolerance": None if c.tolerance is None else _fmt(c.tolerance)}
                if c.note:
                    entry["note"] = c.note
                checks.append(entry)
            one = {"name": s.name, "passed": s.passed, "checks": checks}
            if s.condition_numbers:
                one["condition_numbers"] = {k: _fmt(v) for k, v
                                            in sorted(s.condition_numbers.items())}
            if self.timings:
                one["seconds"] = f"{s.seconds:.3f}"
            suites.append(one)
        total = sum(len(s.checks) for s in self.suites)
        failures = sum(1 for s in self.suites for c in s.checks if not c.passed)
        return {"artifact": {"name": "blockspin", "version": __version__},
                "config": self.config,
                "suites": suites,
                "summary": {"suites": len(self.suites), "checks": total,
                            "failures": failures, "passed": self.passed}}


# ---------------------------------------------------------------------------
# suites

def _merge_max(into: dict, values: dict) -> None:
    """Keep the larger of the held and the new value at each key."""
    for k, v in values.items():
        into[k] = max(into.get(k, 0.0), v)


def _specs_per_dims(rng, conds: dict, **draw):
    """Yield ("3x2x1", spec) and then ("4x3x2", spec), each spec drawn with
    kernel condition numbers up to 1e4 and its diagnostics merged into
    ``conds``.  Lazy: a suite may draw from ``rng`` between the two specs."""
    for dims in ((3, 2, 1), (4, 3, 2)):
        spec = random_spec(rng, dims, max_cond=1e4, **draw)
        _merge_max(conds, spec.kernels.diagnostics)
        yield "x".join(map(str, dims)), spec


def _reference_checks(pair, tol: float, linear, quadratic) -> list:
    """The theta and theta^2 coefficients of ``pair.unstarred`` against
    frozen values; ``linear`` and ``quadratic`` are (value, note) pairs."""
    return [Check.within(f"reference-{kind}-coefficient",
                         abs(complex(pair.unstarred.coefficient(0, order).flat[0]) - value),
                         tol, note)
            for order, kind, (value, note) in ((1, "linear", linear),
                                               (2, "quadratic", quadratic))]


def _suite_woodbury(cfg: ScenarioConfig) -> SuiteResult:
    """Both inversion identities on 100 draws with dims up to 12.

    q and q_star are independent, so the composite can come out nearly
    singular; such draws are rejected on conditioning (the exact identity
    still holds there, but no float check at 1e-11 can see it).
    """
    tol = cfg.tolerance("woodbury")
    rng = stream(cfg.seed, "woodbury")
    worst_left = worst_right = 0.0
    accepted = 0
    while accepted < 100:
        nv = 2 + accepted % 11
        nw = 1 + accepted % 6
        v, w = SpaceSpec(nv), SpaceSpec(nw)
        f = Operator(v, v, random_spd(rng, nv) + 0.5 * np.eye(nv))
        g = Operator(w, w, random_spd(rng, nw) + 0.5 * np.eye(nw))
        scale = np.sqrt(max(nv, nw))
        q = Operator(v, w, rng.standard_normal((nw, nv)) / scale)
        q_star = Operator(w, v, rng.standard_normal((nv, nw)) / scale)
        f_inv = np.linalg.solve(f.entries, np.eye(nv))
        eye = np.eye(nw)
        m_left = eye + g.entries @ q.entries @ f_inv @ q_star.entries
        m_right = eye + q.entries @ f_inv @ q_star.entries @ g.entries
        inner = f.entries + q_star.entries @ g.entries @ q.entries
        if max(cond(m_left), cond(m_right), cond(inner)) > 1e4:
            continue
        accepted += 1
        got_left = woodbury_left(f, g, q, q_star).entries
        worst_left = max(worst_left, rel_opnorm(m_left @ got_left - eye, eye))
        got_right = woodbury_right(f, g, q, q_star).entries
        worst_right = max(worst_right, rel_opnorm(m_right @ got_right - eye, eye))
    return SuiteResult("woodbury", [Check.within("inverts-left-form", worst_left, tol),
                                    Check.within("inverts-right-form", worst_right, tol)])


def _suite_qcheck(cfg: ScenarioConfig) -> SuiteResult:
    """Constraint-form recursion against its inversion-identity dual."""
    rng = stream(cfg.seed, "qcheck")
    dims_cycle = ((3, 2, 1), (4, 3, 2), (6, 4, 2), (5, 4, 3))
    worst = 0.0
    for i in range(100):
        data = random_rg_data(rng, dims_cycle[i % 4])
        direct = qcheck_recursion(data).entries
        dual = qcheck_alt(data).entries
        worst = max(worst, rel_opnorm(dual - direct, direct))
    return SuiteResult("qcheck", [
        Check.within("dual-representations-agree", worst, cfg.tolerance("qcheck"))])


def _suite_eda(cfg: ScenarioConfig) -> SuiteResult:
    """Closed-form kernel identities (a)-(e) on well-conditioned draws."""
    tol = cfg.tolerance("edA")
    rng = stream(cfg.seed, "edA")
    worst: dict[str, float] = {}
    conds: dict[str, float] = {}
    for _ in range(25):
        spec = random_spec(rng, (4, 3, 2), bidegrees=(), max_cond=1e6)
        _merge_max(worst, identity_suite(spec.rg, spec.kernels))
        _merge_max(conds, spec.kernels.diagnostics)
    checks = [Check.within(f"identity-{k}", v, tol) for k, v in sorted(worst.items())]
    return SuiteResult("edA", checks, condition_numbers=conds)


def _suite_preparation(cfg: ScenarioConfig) -> SuiteResult:
    """Value and gradient identities at 20 points, cubic plus quartic P."""
    rng = stream(cfg.seed, "preparation")
    spec = random_spec(rng, (3, 2, 1),
                       bidegrees=((1, 2), (0, 3), (2, 2), (1, 3), (0, 4)),
                       scale=0.3, max_cond=1e4)
    sp, sm = spec.rg.space_plus, spec.rg.space_minus
    worst_v = worst_g = 0.0
    for _ in range(20):
        ts = random_field(rng, sp, 0.5)
        tu = random_field(rng, sp, 0.5)
        fs = random_field(rng, sm, 0.5)
        fu = random_field(rng, sm, 0.5)
        v, g = preparation_check(spec, ts, tu, fs, fu)
        worst_v = max(worst_v, v)
        worst_g = max(worst_g, g)
    return SuiteResult("preparation", [
        Check.within("value-identity", worst_v, cfg.tolerance("preparation")),
        Check.within("gradient-identity", worst_g, cfg.tolerance("preparation-gradient"))],
        condition_numbers=dict(spec.kernels.diagnostics))


def _suite_fps_composition(cfg: ScenarioConfig) -> SuiteResult:
    """Composition rule coefficientwise, plus frozen reference coefficients."""
    tol = cfg.tolerance("fps-composition")
    conds: dict[str, float] = {}
    checks = [Check.within(f"order-{cfg.max_order}-dims-{tag}",
                           verify_composition(spec, max_order=cfg.max_order)["max_residual"],
                           tol)
              for tag, spec in _specs_per_dims(stream(cfg.seed, "fps-composition"), conds,
                                               scale=0.3)]
    g = 0.05
    spec = scalar_reference_spec(g=g)
    bg = fps_background(spec, max_order=2)
    comp = compose_cp(bg, fps_critical(spec, bg, max_order=2), max_order=2)
    checks += _reference_checks(comp, cfg.tolerance("reference-coefficients"),
                                (1.0 / 3.0, "composed next-scale background, theta/3"),
                                (-2.0 * g / 27.0, "-(2g/27) theta^2 at g = 0.05"))
    return SuiteResult("fps-composition", checks, condition_numbers=conds)


def _suite_crit_representation(cfg: ScenarioConfig) -> SuiteResult:
    """Critical series as covariance response, plus frozen reference values."""
    tol = cfg.tolerance("crit-representation")
    checks = []
    conds: dict[str, float] = {}
    for tag, spec in _specs_per_dims(stream(cfg.seed, "crit-representation"), conds,
                                     scale=0.3):
        out = verify_crit_representation(spec, max_order=cfg.max_order)
        checks += [Check.within(f"order-{cfg.max_order}-dims-{tag}", out["max_residual"], tol),
                   Check.within(f"leading-term-dims-{tag}", out["leading_vs_covariance"], tol)]
    g = 0.05
    checks += _reference_checks(fps_critical(scalar_reference_spec(g=g), max_order=2),
                                cfg.tolerance("reference-coefficients"),
                                (2.0 / 3.0, "critical field, (2/3) theta"),
                                (-g / 27.0, "-(g/27) theta^2 at g = 0.05"))
    return SuiteResult("crit-representation", checks, condition_numbers=conds)


def _suite_newton_vs_fps(cfg: ScenarioConfig) -> SuiteResult:
    """Newton solutions against order-4 series under field doubling.

    The ratio is measured between field scales 0.1 and 0.2: one octave
    below, the truncation error of a tame order-4 series can drop under
    the solver tolerance and the ratio would measure noise.
    """
    tol = cfg.tolerance("newton-vs-fps")
    rng = stream(cfg.seed, "newton-vs-fps")
    checks = []
    conds: dict[str, float] = {}
    for tag, spec in _specs_per_dims(rng, conds, bidegrees=((1, 2), (0, 3)), scale=0.2):
        bg = fps_background(spec, max_order=4)
        cr = fps_critical(spec, bg, max_order=4)
        cases = (("background", spec.rg.space_mid, bg, newton_background),
                 ("critical", spec.rg.space_plus, cr, newton_critical))
        for kind, space, series, solver in cases:
            dir_star = unit_field(rng, space)
            dir_u = unit_field(rng, space)

            def discrepancy(h):
                src_star = h * dir_star.components
                src_u = h * dir_u.components
                got_star, got_u = solver(spec, src_star, src_u, tol=1e-13)
                want_star, want_u = series.evaluate(src_star, src_u)
                return max(float(np.abs(got_star.components - want_star.components).max()),
                           float(np.abs(got_u.components - want_u.components).max()))

            lo = discrepancy(0.1)
            hi = discrepancy(0.2)
            ratio = hi / lo if lo > 0 else float("inf")
            checks.append(Check.within(f"{kind}-agreement-dims-{tag}", lo, tol,
                                       note="series vs Newton at field scale 0.1"))
            checks.append(Check(f"{kind}-doubling-dims-{tag}",
                                2.0 ** 4 <= ratio <= 2.0 ** 6, ratio, None,
                                note="scale 0.1 -> 0.2, expected in [2^4, 2^6]"))
    return SuiteResult("newton-vs-fps", checks, condition_numbers=conds)


def _suite_delta_a(cfg: ScenarioConfig) -> SuiteResult:
    """Increment identity at 20 points; exact quadratic reduction for P = 0."""
    rng = stream(cfg.seed, "deltaA")
    spec = random_spec(rng, (3, 2, 1), scale=0.3, max_cond=1e4)
    sp, smid = spec.rg.space_plus, spec.rg.space_mid
    worst = 0.0
    for _ in range(20):
        ts = unit_field(rng, sp, 0.2)
        tu = unit_field(rng, sp, 0.2)
        ds = unit_field(rng, smid, 0.04)
        du = unit_field(rng, smid, 0.04)
        direct = delta_a_direct(spec, ts, tu, ds, du)
        formula = delta_a_formula(spec, ts, tu, ds, du, max_degree=4)
        worst = max(worst, abs(direct - formula))
    free = make_action_spec(random_rg_data(rng, (3, 2, 1)))
    worst_free = 0.0
    for _ in range(10):
        ts = unit_field(rng, free.rg.space_plus, 0.2)
        tu = unit_field(rng, free.rg.space_plus, 0.2)
        ds = unit_field(rng, free.rg.space_mid, 0.1)
        du = unit_field(rng, free.rg.space_mid, 0.1)
        direct = delta_a_direct(free, ts, tu, ds, du)
        want = pairing(ds, free.kernels.cov_inv.apply(du))
        worst_free = max(worst_free, abs(direct - want))
    return SuiteResult("deltaA", [
        Check.within("formula-vs-direct", worst, cfg.tolerance("deltaA"),
                     note="absolute difference at 20 points"),
        Check.within("free-quadratic-reduction", worst_free, cfg.tolerance("deltaA-free"))],
        condition_numbers=dict(spec.kernels.diagnostics))


def _suite_gaussian_detd(cfg: ScenarioConfig) -> SuiteResult:
    """Determinant form of the Gaussian split on random draws plus the
    reference instance 2 = 1 * 3 * (2/3)."""
    rng = stream(cfg.seed, "gaussian-detd")
    dims_cycle = ((3, 2, 1), (4, 3, 2), (6, 4, 2))
    worst = 0.0
    accepted = 0
    while accepted < 25:
        try:
            out = prop_d_gaussian_check(random_rg_data(rng, dims_cycle[accepted % 3]))
        except BlockspinError:
            continue
        worst = max(worst, out["residual"])
        accepted += 1
    ref = prop_d_gaussian_check(scalar_reference_data())
    ref_err = max(abs(ref["lhs"] - 2.0), abs(ref["rhs"] - 2.0)) / 2.0
    return SuiteResult("gaussian-detd", [
        Check.within("random-draws", worst, cfg.tolerance("gaussian-detd")),
        Check.within("reference-instance", ref_err, cfg.tolerance("gaussian-reference"),
                     note="det delta^{-1} = 2 = 1 * 3 * (2/3)")])


def _suite_gaussian_quadrature(cfg: ScenarioConfig) -> SuiteResult:
    """Disc-quadrature form of the split; scenario data when it is a
    one-dimensional identity-form setup, the reference family otherwise."""
    tol = cfg.tolerance("gaussian-quadrature")
    if cfg.lattice is None and cfg.grams == "identity" and _step_dims(cfg) == (1, 1, 1):
        spec, note = scenario_spec(cfg), "scenario data"
    else:
        spec, note = scalar_reference_spec(g=0.05), "reference family, g = 0.05"
    quad = cfg.quadrature
    try:
        out = prop_d_quadrature_check(
            spec, cfg.radii,
            nodes_per_axis=int(quad.get("nodes_per_axis", 64)),
            theta_cutoff_sigmas=float(quad.get("theta_cutoff_sigmas", 6.0)),
            tolerance=tol)
    except BlockspinError as exc:
        return SuiteResult("gaussian-quadrature", [
            Check("two-sided-agreement", False, None, tol,
                  note=f"{note}; {exc}")])
    return SuiteResult("gaussian-quadrature", [
        Check.within("two-sided-agreement", out["relative_difference"], tol, note=note),
        Check.within("node-consistency", max(out["node_deviation"].values()), 0.5 * tol,
                     note="nodes-per-axis refined by 1.5x")])


def _suite_lattice(cfg: ScenarioConfig) -> SuiteResult:
    """Averaging-operator invariants: normalization, tower composition,
    adjoint pairing, and block-disjoint row orthogonality."""
    tol = cfg.tolerance("lattice")
    rng = stream(cfg.seed, "lattice")
    if cfg.lattice is not None:
        cases = [("config", tuple(cfg.lattice["extents"]), _block_scheme(cfg.lattice))]
    else:
        cases = [("1d", (8,), BlockScheme((2,))), ("2d", (4, 4), BlockScheme((2, 2)))]
    checks = []
    for tag, extents, scheme in cases:
        lat = TorusLattice(extents)
        tower = build_tower(lat, scheme, 2)
        q1 = tower[1].step
        q2 = tower[2].step
        ones = np.ones(lat.size)
        norm_res = float(np.abs(q1.entries @ ones - 1.0).max())
        checks.append(Check.within(f"{tag}-constants-preserved", norm_res, tol))
        composed = q2 @ q1
        comp_res = rel_opnorm(tower[2].cumulative.entries - composed.entries,
                              composed.entries)
        checks.append(Check.within(f"{tag}-tower-composition", comp_res, tol))
        pair_res = 0.0
        q1_star = adjoint(q1)
        fine, coarse = q1.domain, q1.codomain
        for _ in range(5):
            phi = random_field(rng, fine)
            theta = random_field(rng, coarse)
            lhs = pairing(FieldVector(coarse, q1.entries @ phi.components), theta)
            rhs = pairing(phi, FieldVector(fine, q1_star.entries @ theta.components))
            pair_res = max(pair_res, abs(lhs - rhs))
        checks.append(Check.within(f"{tag}-adjoint-pairing", pair_res, tol))
        c = float(scheme.profile @ scheme.profile)
        eye = c * np.eye(coarse.dim)
        orth_res = rel_opnorm(q1.entries @ q1_star.entries - eye, eye)
        checks.append(Check.within(f"{tag}-disjoint-rows", orth_res, tol,
                                   note="Q Q* = |profile|^2 identity on disjoint blocks"))
    return SuiteResult("lattice", checks)


_SUITES = {
    "crit-representation": _suite_crit_representation,
    "deltaA": _suite_delta_a,
    "edA": _suite_eda,
    "fps-composition": _suite_fps_composition,
    "gaussian-detd": _suite_gaussian_detd,
    "gaussian-quadrature": _suite_gaussian_quadrature,
    "lattice": _suite_lattice,
    "newton-vs-fps": _suite_newton_vs_fps,
    "preparation": _suite_preparation,
    "qcheck": _suite_qcheck,
    "woodbury": _suite_woodbury,
}


def run_scenario(cfg: ScenarioConfig, timings: bool = False) -> Report:
    """Execute the configured suites and assemble the report in name order.

    A suite that raises is recorded as a failed check, not propagated, so
    one broken scenario cannot hide the results of the others.
    """
    results = []
    for name in sorted(set(cfg.suites)):
        start = time.perf_counter()
        try:
            result = _SUITES[name](cfg)
        except Exception as exc:  # noqa: BLE001 - recorded, not silenced
            result = SuiteResult(name, [
                Check("suite-execution", False,
                      note=f"{type(exc).__name__}: {exc}")])
        result.seconds = time.perf_counter() - start
        results.append(result)
    return Report(config=cfg.echo(), suites=results, timings=timings)


def emit_report(report: Report, format: str = "json") -> bytes:
    """Serialize a report; json is stable-key-ordered, text is a table."""
    if format == "json":
        return (json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n").encode()
    if format == "text":
        return _text_report(report).encode()
    raise ConfigError(f"unknown report format '{format}' (known: json, text)")


def _text_report(report: Report) -> str:
    d = report.as_dict()
    s = d["summary"]
    lines = [f"blockspin {d['artifact']['version']} verification report",
             f"summary: {s['suites']} suites, {s['checks']} checks, "
             f"{s['failures']} failures -> {'PASS' if s['passed'] else 'FAIL'}",
             ""]
    header = f"{'suite':<22}{'check':<38}{'status':<8}{'residual':<13}tolerance"
    lines.append(header)
    lines.append("-" * len(header))
    for suite in d["suites"]:
        for c in suite["checks"]:
            resid = "-" if c["residual"] is None else f"{float(c['residual']):.3e}"
            tolr = "-" if c["tolerance"] is None else f"{float(c['tolerance']):.3e}"
            status = "pass" if c["passed"] else "FAIL"
            lines.append(f"{suite['name']:<22}{c['name']:<38}{status:<8}{resid:<13}{tolr}")
            if c.get("note"):
                lines.append(f"{'':<22}  note: {c['note']}")
        if report.timings and "seconds" in suite:
            lines.append(f"{'':<22}  elapsed: {suite['seconds']} s")
    lines.append("")
    return "\n".join(lines)
