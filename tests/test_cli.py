"""End-to-end runs of the command line interface.

Most tests call ``cli.main`` in this process, which is what a fresh
``python -m blockspin`` runs (the package keeps no state between calls).
Two tests run the module in a subprocess, so the entry point and real
process exit codes stay covered.
"""

import contextlib
import io
import json
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from blockspin import cli
from blockspin.errors import ConfigError
from blockspin.harness import ScenarioConfig

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
SRM = SCENARIOS / "srm.json"


def run_cli(*args):
    """``cli.main(args)`` from the repo directory, with stdout and stderr
    captured, as the interpreter would run it: a ``SystemExit`` gives its
    code, and any other exception a traceback on stderr and code 1."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.chdir(REPO), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    out.flush()
    return subprocess.CompletedProcess(args, code, out.buffer.getvalue().decode(),
                                       err.getvalue())


def run_module(*args):
    """``python -m blockspin args`` in a fresh process."""
    return subprocess.run([sys.executable, "-m", "blockspin", *args],
                          capture_output=True, text=True, cwd=REPO)


def write_config(tmp_path, **overrides):
    raw = {"seed": 4, "suites": ["qcheck", "lattice"]}
    raw.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


def test_verify_passes_and_emits_json(tmp_path):
    cfg = write_config(tmp_path)
    out = run_cli("verify", "--config", str(cfg))
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["summary"]["passed"] is True
    assert [s["name"] for s in report["suites"]] == ["lattice", "qcheck"]


def test_verify_reference_scenario_passes():
    out = run_module("verify", "--config", str(SRM), "--suite", "woodbury",
                  "--suite", "gaussian-detd")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["summary"]["checks"] == 4
    assert report["config"]["seed"] == 1


def test_verify_exit_1_on_check_failure(tmp_path):
    cfg = write_config(tmp_path, suites=["qcheck"],
                       tolerances={"qcheck": 1e-20})
    out = run_cli("verify", "--config", str(cfg))
    assert out.returncode == 1
    assert json.loads(out.stdout)["summary"]["failures"] == 1


def test_verify_exit_2_names_bad_field(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"seed": "one"}))
    out = run_cli("verify", "--config", str(cfg))
    assert out.returncode == 2
    assert "'seed'" in out.stderr


def test_verify_exit_2_on_missing_config(tmp_path):
    out = run_cli("verify", "--config", str(tmp_path / "gone.json"))
    assert out.returncode == 2
    assert "cannot read config" in out.stderr


def test_verify_reports_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, suites=["woodbury", "edA"])
    a = run_cli("verify", "--config", str(cfg))
    b = run_cli("verify", "--config", str(cfg))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_text_format_and_out_file(tmp_path):
    cfg = write_config(tmp_path, suites=["qcheck"])
    dest = tmp_path / "report.txt"
    out = run_cli("verify", "--config", str(cfg), "--format", "text",
                  "--out", str(dest))
    assert out.returncode == 0
    assert out.stdout == ""
    text = dest.read_text()
    assert "dual-representations-agree" in text
    assert "PASS" in text


def test_verify_rejects_unknown_suite_flag(tmp_path):
    cfg = write_config(tmp_path)
    out = run_cli("verify", "--config", str(cfg), "--suite", "nonsense")
    assert out.returncode == 2
    assert "unknown suite" in out.stderr


def test_solve_background_round_trip(tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps(
        {"psi_star": {"re": [0.2], "im": [0.05]}, "psi": [0.3]}))
    out = run_cli("solve-background", "--config", str(SRM),
                  "--point", str(point))
    assert out.returncode == 0, out.stderr
    sol = json.loads(out.stdout)
    assert float(sol["residual"]) < 1e-10
    # reference closed form: phi*_bg = psi*/2 (1 + g psi)^{-1/2}, g = 0.05
    want = complex(0.2, 0.05) / 2.0 / (1.0 + 0.05 * 0.3) ** 0.5
    assert abs(complex(sol["phi_star"]["re"][0], sol["phi_star"]["im"][0]) - want) < 1e-12


def test_solve_critical_round_trip(tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"theta_star": [0.4], "theta": [0.1]}))
    out = run_cli("solve-critical", "--config", str(SRM),
                  "--point", str(point))
    assert out.returncode == 0, out.stderr
    sol = json.loads(out.stdout)
    assert float(sol["residual"]) < 1e-10
    # leading terms: psi_cr = 2 theta / 3 - g theta^2 / 27 + ...
    approx = 2 * 0.1 / 3 - 0.05 * 0.01 / 27
    assert abs(sol["psi"]["re"][0] - approx) < 1e-6


def test_solve_rejects_malformed_point(tmp_path):
    point = tmp_path / "point.json"
    for theta_star in ([0.1, 0.2], [None], ["a"]):
        point.write_text(json.dumps({"theta_star": theta_star, "theta": [0.1]}))
        out = run_cli("solve-critical", "--config", str(SRM), "--point", str(point))
        assert out.returncode == 2
        assert "theta_star" in out.stderr
        assert "Traceback" not in out.stderr


def test_solve_rejects_unknown_point_field(tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"psi_star": [0.1], "psi": [0.1], "junk": 1}))
    out = run_cli("solve-background", "--config", str(SRM), "--point", str(point))
    assert out.returncode == 2
    assert "junk" in out.stderr


def test_kernels_diagnostics_only():
    out = run_cli("kernels", "--config", str(SRM))
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert set(payload) == {"diagnostics"}
    assert payload["diagnostics"]["cond_cov"] == "1"


def test_kernels_dump_includes_reference_values():
    out = run_cli("kernels", "--config", str(SRM), "--dump")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["qcheck"]["re"][0][0] == 0.5
    assert payload["s"]["re"][0][0] == 0.5
    assert abs(payload["scheck"]["re"][0][0] - 2 / 3) < 1e-15
    assert payload["delta"]["re"][0][0] == 0.5
    assert abs(payload["cov"]["re"][0][0] - 2 / 3) < 1e-15


def test_kernels_exit_2_on_bad_input(tmp_path):
    ops = {"q_minus": [[None]], "q": [[1.0]], "fq": [[1.0]], "d": [[1.0]]}
    for field, overrides in (
            ("lattice.profile", {"lattice": {"extents": [4, 4], "block": [2, 2],
                                             "profile": [0.5, 0.5, 0.5]}}),
            ("b", {"b": float("inf")}),
            ("operators.q_minus", {"dims": [1, 1, 1], "operators": ops})):
        cfg = write_config(tmp_path, **overrides)
        out = run_cli("kernels", "--config", str(cfg))
        assert out.returncode == 2
        assert f"'{field}'" in out.stderr
        assert "Traceback" not in out.stderr


def test_verify_exit_2_on_nondivisible_lattice(tmp_path):
    cfg = write_config(tmp_path, lattice={"extents": [6], "block": [4]})
    out = run_cli("verify", "--config", str(cfg), "--suite", "lattice")
    assert out.returncode == 2
    assert "'lattice'" in out.stderr and "not divisible" in out.stderr
    assert "Traceback" not in out.stderr


def test_verify_exit_2_on_bad_operator_table(tmp_path):
    ops = {"q_minus": [[1.0]], "q": [[1.0]], "fq": [[1.0]], "d": [[1.0]]}
    for overrides, detail in (
            ({"dims": [1, 1, 1], "operators": dict(ops, fq=[[-1.0]])},
             "'operators': fq must be positive definite"),
            ({"dims": [2, 1, 1], "operators": ops}, "'dims': [2, 1, 1] does not match")):
        cfg = write_config(tmp_path, suites=["gaussian-quadrature"], **overrides)
        out = run_cli("verify", "--config", str(cfg))
        assert out.returncode == 2, out.stdout
        assert detail in out.stderr
        assert "Traceback" not in out.stderr


def test_kernels_exit_2_with_inf_cond_when_the_svd_overflows(tmp_path):
    """q = 1e300 overflows (1/b) + q fq^{-1} q*; its condition number is
    reported as inf, not nan, and the typed error speaks alone, without
    numpy's overflow warning."""
    raw = json.loads(SRM.read_text())
    raw["operators"]["q"] = [[1e300]]
    raw["polynomial"] = str(SRM.parent / raw["polynomial"])
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run_cli("kernels", "--config", str(cfg))
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert out.returncode == 2
    assert ("(1/b) + q fq^{-1} q*: estimated condition number inf exceeds the limit"
            in out.stderr), out.stderr
    assert "nan" not in out.stderr and "Traceback" not in out.stderr


BAD_RECORDS = [
    ([{"kstar": 1}], "record 0: 'k'"),
    ([{"kstar": True, "k": 2}], "record 0: 'kstar'"),
    ([{"kstar": 1, "k": 2.5}], "record 0: 'k'"),
    ([{"kstar": 1, "k": 2, "entries": {}}], "record 0: 'entries'"),
    ([{"kstar": 1, "k": 2, "entries": [
        {"multi_index_star": [5], "multi_index": [0, 0], "re": 0.1}]}],
     "record 0 entry 0: 'multi_index_star'"),
    ([{"kstar": 1, "k": 2, "entries": [
        {"multi_index_star": [0], "multi_index": [0], "re": 0.1}]}],
     "record 0 entry 0: 'multi_index'"),
    ([{"kstar": 1, "k": 2, "entries": []},
      {"kstar": 0, "k": 3, "entries": [
          {"multi_index": [0, 0, 0], "re": float("nan")}]}],
     "record 1 entry 0: 're'"),
    ([{"kstar": 1, "k": 2, "entries": [
        {"multi_index_star": [0], "multi_index": [0, 0], "im": float("inf")}]}],
     "record 0 entry 0: 'im'"),
]


def test_kernels_exit_2_on_bad_polynomial_records(tmp_path):
    """Every command rejects a bad polynomial file when it reads the config,
    also where no suite that runs would read the file."""
    cases = [(records, where, [1, 1, 1]) for records, where in BAD_RECORDS]
    cases.append(([{"kstar": 1}], "record 0: 'k'", [3, 2, 1]))
    for records, where, dims in cases:
        (tmp_path / "p.json").write_text(json.dumps(records))
        cfg = write_config(tmp_path, dims=dims, polynomial="p.json")
        for command in ("kernels", "verify"):
            out = run_cli(command, "--config", str(cfg))
            assert out.returncode == 2, (command, records)
            assert "'polynomial'" in out.stderr and where in out.stderr, out.stderr
            assert "Traceback" not in out.stderr


def test_unknown_format_is_usage_error(tmp_path):
    cfg = write_config(tmp_path)
    out = run_cli("verify", "--config", str(cfg), "--format", "yaml")
    assert out.returncode == 2


LOW_DEGREE = {"bidegrees": [[1, 2], [0, 1]]}
FIELD = "'interaction.bidegrees'"


def test_low_degree_bidegree_is_a_config_error(tmp_path):
    """A bidegree of total degree below 2 is a config error for every
    command, also for a verify whose suites never build the interaction."""
    cfg = write_config(tmp_path, suites=["lattice"], interaction=LOW_DEGREE)
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"theta_star": [0.1], "theta": [0.1]}))
    for args in (("kernels",), ("solve-critical", "--point", str(point)), ("verify",)):
        out = run_cli(*args, "--config", str(cfg))
        assert out.returncode == 2, (args, out.stderr)
        assert FIELD in out.stderr and "total degree >= 2" in out.stderr
        assert "Traceback" not in out.stderr


def test_module_exits_2_on_config_error(tmp_path):
    cfg = write_config(tmp_path, interaction=LOW_DEGREE)
    out = run_module("kernels", "--config", str(cfg))
    assert out.returncode == 2
    assert FIELD in out.stderr
    assert "Traceback" not in out.stderr


# The mutable fields and their values; a case mutates at most two of them.
MUTATIONS = {
    "b": st.sampled_from([1e-8, 0.5, 2.0, 1e6, 1e300, 0.0, -1.0]),
    "dims": st.sampled_from([[1, 1, 1], [3, 2, 1], [4, 3, 2], [2, 2, 2], [0, 1, 1], "drop"]),
    "grams": st.sampled_from(["identity", "random", "diagonal"]),
    "max_order": st.integers(0, 9),
    "interaction": st.fixed_dictionaries({
        "bidegrees": st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2),
                              max_size=3),
        "scale": st.sampled_from([0.0, 0.05, 0.2, 1.0, -0.5])}),
    "operator": st.tuples(st.sampled_from(["q_minus", "q", "fq", "d"]),
                          st.sampled_from([0.0, -1.0, 1e-12, 1e300])),
    "radii": st.lists(st.sampled_from([1e-3, 0.5, 1.0, 3.0, 1000.0, 0.0, -1.0]),
                      min_size=2, max_size=2),
}


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario with some fields mutated, cheap quadrature nodes,
    and a point for its coarse field."""
    raw = json.loads((SCENARIOS / draw(st.sampled_from(["default.json", "srm.json"])))
                     .read_text())
    if "polynomial" in raw:
        raw["polynomial"] = str(SCENARIOS / raw["polynomial"])
    for key in draw(st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=2, unique=True)):
        value = draw(MUTATIONS[key])
        if key == "dims" and value == "drop":
            raw.pop("dims", None)
        elif key == "operator":
            if "operators" in raw:
                raw["operators"][value[0]] = [[value[1]]]
        else:
            if key == "interaction":
                raw.pop("polynomial", None)
            raw[key] = value
    raw["quadrature"] = dict(raw.get("quadrature", {}), nodes_per_axis=draw(st.integers(4, 8)))
    dims = raw.get("dims")
    dim_plus = dims[2] if dims else len(raw["operators"]["q"]) if "operators" in raw else 1
    scale = draw(st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e6]))
    point = {"theta_star": [0.6 * scale] * dim_plus, "theta": [0.8 * scale] * dim_plus}
    return raw, point


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=mutated_scenarios())
def test_fuzzed_configs_exit_0_1_or_2(case, tmp_path_factory):
    """Each command ends in a verdict, never a traceback, and a config that
    fails to load exits 2 from every command.  kernels and verify may
    legitimately differ: b = 1e300 on default.json exits 2 from kernels and
    0 from verify, whose suites here never build the scenario's step."""
    raw, point = case
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg, pt = tmp / "scenario.json", tmp / "point.json"
    cfg.write_text(json.dumps(raw))
    pt.write_text(json.dumps(point))
    try:
        ScenarioConfig.from_file(cfg)
        rejected = False
    except ConfigError:
        rejected = True
    for args in (("kernels",), ("solve-critical", "--point", str(pt)),
                 ("verify", "--suite", "lattice", "--suite", "gaussian-quadrature")):
        out = run_cli(*args, "--config", str(cfg))
        assert out.returncode in (0, 1, 2), (args, raw, point, out.stderr)
        assert "Traceback" not in out.stderr, (args, raw, point, out.stderr)
        if rejected:
            assert out.returncode == 2, (args, raw, out.stderr)
