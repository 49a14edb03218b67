"""Scenario config validation, suite execution, report determinism."""

import json

import numpy as np
import pytest

from blockspin.ensembles import stream, unit_field
from blockspin.errors import ConfigError
from blockspin.harness import (
    SUITE_NAMES,
    Check,
    Report,
    ScenarioConfig,
    SuiteResult,
    _specs_per_dims,
    emit_report,
    run_scenario,
    scenario_data,
    scenario_spec,
)
from blockspin.solvers import (fps_background, fps_critical, newton_background,
                               newton_critical)


def cfg_from(**overrides):
    raw = {"seed": 11}
    raw.update(overrides)
    return ScenarioConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# config parsing


def test_defaults_fill_in():
    cfg = cfg_from()
    assert cfg.suites == SUITE_NAMES
    assert cfg.dims is None
    assert cfg.grams == "identity"
    assert cfg.b == 1.0
    assert cfg.max_order == 4
    assert cfg.radii == (1.0, 1.0)


def test_rejects_unknown_field():
    with pytest.raises(ConfigError, match="unknown config field 'extra'"):
        cfg_from(extra=1)


@pytest.mark.parametrize("seed", ["7", 1.5, -1, 2**64, True, None])
def test_rejects_bad_seed(seed):
    with pytest.raises(ConfigError, match="'seed'"):
        ScenarioConfig.from_dict({"seed": seed})


def test_rejects_unknown_suite():
    with pytest.raises(ConfigError, match="unknown suite 'bogus'"):
        cfg_from(suites=["woodbury", "bogus"])


@pytest.mark.parametrize("dims", [[3, 2], [3, 2, 0], [3, 2, 1, 1], ["a", 2, 1],
                                  [True, 1, 1]])
def test_rejects_bad_dims(dims, ):
    with pytest.raises(ConfigError, match="'dims'"):
        cfg_from(dims=dims)


def test_rejects_dims_and_lattice_together():
    with pytest.raises(ConfigError, match="dims or lattice, not both"):
        cfg_from(dims=[3, 2, 1], lattice={"extents": [8], "block": [2]})


def test_rejects_lattice_without_block():
    with pytest.raises(ConfigError, match="'lattice'"):
        cfg_from(lattice={"extents": [8]})


def test_rejects_bad_grams():
    with pytest.raises(ConfigError, match="'grams'"):
        cfg_from(grams="fancy")


@pytest.mark.parametrize("b", [0, -1.0, "x", True, float("inf"), float("nan")])
def test_rejects_bad_b(b):
    with pytest.raises(ConfigError, match="'b'"):
        cfg_from(b=b)


def test_rejects_partial_operator_table():
    with pytest.raises(ConfigError, match="'operators'"):
        cfg_from(operators={"q": [[1.0]]})


def test_rejects_operators_with_random_grams():
    ops = {"q_minus": [[1.0]], "q": [[1.0]], "fq": [[1.0]], "d": [[1.0]]}
    with pytest.raises(ConfigError, match="identity forms"):
        cfg_from(grams="random", operators=ops)


def test_rejects_polynomial_and_interaction_together():
    with pytest.raises(ConfigError, match="'interaction'"):
        cfg_from(polynomial="p.json", interaction={"bidegrees": [[1, 2]]})


def test_rejects_bad_bidegrees():
    with pytest.raises(ConfigError, match="'interaction.bidegrees'"):
        cfg_from(interaction={"bidegrees": [[1, 2, 3]]})


def test_rejects_boolean_bidegree():
    with pytest.raises(ConfigError, match="'interaction.bidegrees'"):
        cfg_from(interaction={"bidegrees": [[True, 2]]})


@pytest.mark.parametrize("profile", [[0.5, 0.5, 0.5], ["a", 0.25, 0.25, 0.25], None,
                                     [None, 0.5, 0.25, 0.25], [0.5, 0.5, 0.5, 0.5],
                                     [0.25, 0.25, 0.25, float("nan")]])
def test_rejects_bad_lattice_profile(profile):
    with pytest.raises(ConfigError, match="'lattice.profile'"):
        cfg_from(lattice={"extents": [4, 4], "block": [2, 2], "profile": profile})


def test_lattice_profile_is_used():
    cfg = cfg_from(lattice={"extents": [4, 4], "block": [2, 2],
                            "profile": [0.4, 0.1, 0.1, 0.4]})
    assert scenario_data(cfg).q_minus.entries[0, 0] == 0.4


@pytest.mark.parametrize("field, raw", [
    ("lattice", {"extents": [8], "block": [2], "profil": [0.5, 0.5]}),
    ("interaction", {"bidegrees": [[1, 2]], "scael": 5}),
])
def test_rejects_unknown_nested_entry(field, raw):
    with pytest.raises(ConfigError, match=f"config field '{field}': unknown entry"):
        cfg_from(**{field: raw})


def test_rejects_null_in_operator_matrix():
    ops = {"q_minus": [[None]], "q": [[1.0]], "fq": [[1.0]], "d": [[1.0]]}
    with pytest.raises(ConfigError, match="'operators.q_minus'"):
        cfg_from(dims=[1, 1, 1], operators=ops)


@pytest.mark.parametrize("order", [0, 9, "4", None])
def test_rejects_bad_max_order(order):
    with pytest.raises(ConfigError, match="'max_order'"):
        cfg_from(max_order=order)


def test_rejects_unknown_tolerance_key():
    with pytest.raises(ConfigError, match="unknown entry 'woodburry'"):
        cfg_from(tolerances={"woodburry": 1e-9})


def test_rejects_nonpositive_tolerance():
    with pytest.raises(ConfigError, match="'tolerances.woodbury'"):
        cfg_from(tolerances={"woodbury": 0})


@pytest.mark.parametrize("radii", [[1.0], [1.0, -2.0], [1.0, 0], "wide",
                                   [1.0, float("inf")]])
def test_rejects_bad_radii(radii):
    with pytest.raises(ConfigError, match="'radii'"):
        cfg_from(radii=radii)


def test_rejects_unknown_quadrature_key():
    with pytest.raises(ConfigError, match="'quadrature'"):
        cfg_from(quadrature={"nodes": 32})


def test_tolerance_override_wins():
    cfg = cfg_from(tolerances={"woodbury": 1e-5})
    assert cfg.tolerance("woodbury") == 1e-5
    assert cfg.tolerance("qcheck") == 1e-11


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"seed": 3, "suites": ["qcheck"]}))
    cfg = ScenarioConfig.from_file(path)
    assert cfg.seed == 3
    assert cfg.suites == ("qcheck",)
    assert cfg.base_dir == tmp_path


def test_from_file_reports_bad_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid json"):
        ScenarioConfig.from_file(path)


# every case rejected through from_dict above, with tuples where a direct
# caller would pass them
OPS = {"q_minus": [[1.0]], "q": [[1.0]], "fq": [[1.0]], "d": [[1.0]]}
DIRECT_CASES = {
    "seed": {"seed": -1},
    "seed-bool": {"seed": True},
    "seed-none": {"seed": None},
    "suites": {"suites": ("woodbury", "bogus")},
    "suites-string": {"suites": "woodbury"},
    "dims": {"dims": (3, 2, 0)},
    "dims-length": {"dims": (3, 2)},
    "dims-and-lattice": {"dims": (3, 2, 1), "lattice": {"extents": [8], "block": [2]}},
    "lattice-without-block": {"lattice": {"extents": [8]}},
    "lattice-profile": {"lattice": {"extents": [4, 4], "block": [2, 2],
                                    "profile": [0.5, 0.5, 0.5]}},
    "lattice-unknown-entry": {"lattice": {"extents": [8], "block": [2], "profil": [0.5]}},
    "lattice-step-1": {"suites": ("lattice",), "lattice": {"extents": [6], "block": [4]}},
    "lattice-step-2": {"lattice": {"extents": [8], "block": [4]}},
    "lattice-rank": {"lattice": {"extents": [8, 8], "block": [2]}},
    "grams": {"grams": "fancy"},
    "b": {"b": 0},
    "b-infinite": {"b": float("inf")},
    "operators-partial": {"operators": {"q": [[1.0]]}},
    "operators-random-grams": {"grams": "random", "operators": OPS},
    "operators-null-entry": {"dims": (1, 1, 1), "operators": dict(OPS, q_minus=[[None]])},
    "operators-negative-fq": {"dims": (1, 1, 1), "operators": dict(OPS, fq=[[-1.0]])},
    "operators-dims-mismatch": {"dims": (2, 1, 1), "operators": OPS},
    "interaction-and-polynomial": {"polynomial": "p.json", "interaction": {"bidegrees": [[1, 2]]}},
    "interaction-bidegrees": {"interaction": {"bidegrees": [[1, 2, 3]]}},
    "interaction-bool-bidegree": {"interaction": {"bidegrees": [[True, 2]]}},
    "interaction-unknown-entry": {"interaction": {"bidegrees": [[1, 2]], "scael": 5}},
    "polynomial-missing": {"polynomial": "gone.json"},
    "max_order": {"max_order": 9},
    "max_order-string": {"max_order": "4"},
    "tolerances-unknown-key": {"tolerances": {"woodburry": 1e-9}},
    "tolerances-zero": {"tolerances": {"woodbury": 0}},
    "radii": {"radii": (1.0, -2.0)},
    "radii-length": {"radii": (1.0,)},
    "quadrature": {"quadrature": {"nodes": 32}},
}


@pytest.mark.parametrize("kwargs", DIRECT_CASES.values(), ids=DIRECT_CASES)
def test_direct_construction_runs_the_config_checks(kwargs):
    raw = {"seed": 11, **kwargs}
    with pytest.raises(ConfigError) as via_dict:
        ScenarioConfig.from_dict(json.loads(json.dumps(raw)))
    with pytest.raises(ConfigError) as direct:
        ScenarioConfig(**raw)
    assert str(direct.value) == str(via_dict.value)


def test_direct_construction_normalizes_like_from_dict():
    raw = {"seed": 3, "suites": ["qcheck"], "dims": [3, 2, 1], "b": 2,
           "radii": [1, 2], "tolerances": {"qcheck": 1e-9}}
    cfg = ScenarioConfig(**raw)
    assert cfg == ScenarioConfig.from_dict(raw)
    assert (cfg.suites, cfg.dims, cfg.radii) == (("qcheck",), (3, 2, 1), (1.0, 2.0))
    assert isinstance(cfg.b, float) and cfg.tolerances is not raw["tolerances"]


def test_with_suites_runs_the_suite_check():
    with pytest.raises(ConfigError, match="config field 'suites': unknown suite 'bogus'"):
        cfg_from().with_suites(["bogus"])
    assert cfg_from().with_suites(["qcheck"]).suites == ("qcheck",)


# ---------------------------------------------------------------------------
# scenario data assembly


def test_explicit_operators_build_the_step():
    ops = {"q_minus": [[1.0]], "q": [[1.0]], "fq": [[1.0]], "d": [[1.0]]}
    data = scenario_data(cfg_from(dims=[1, 1, 1], operators=ops, b=2.0))
    assert data.b == 2.0
    assert data.q.entries[0, 0] == 1.0


def test_explicit_operators_cross_check_dims():
    ops = {"q_minus": [[1.0]], "q": [[1.0]], "fq": [[1.0]], "d": [[1.0]]}
    with pytest.raises(ConfigError, match="does not match"):
        scenario_data(cfg_from(dims=[2, 1, 1], operators=ops))


def test_random_data_is_seed_deterministic():
    a = scenario_data(cfg_from(dims=[3, 2, 1]))
    b = scenario_data(cfg_from(dims=[3, 2, 1]))
    c = scenario_data(cfg_from(seed=12, dims=[3, 2, 1]))
    assert np.array_equal(a.q.entries, b.q.entries)
    assert not np.array_equal(a.q.entries, c.q.entries)


def test_lattice_scenario_builds_tower_step():
    cfg = cfg_from(lattice={"extents": [8], "block": [2]})
    data = scenario_data(cfg)
    assert (data.space_minus.dim, data.space_mid.dim, data.space_plus.dim) == (8, 4, 2)
    # level-one step averages pairs
    assert np.allclose(data.q_minus.entries @ np.ones(8), np.ones(4))


def test_lattice_rejects_nondivisible_block():
    with pytest.raises(ConfigError, match="'lattice'"):
        scenario_data(cfg_from(lattice={"extents": [6], "block": [4]}))


@pytest.mark.parametrize("lattice, detail", [
    ({"extents": [6], "block": [4]}, "not divisible by block 4 at tower step 1"),
    ({"extents": [8], "block": [4]}, "not divisible by block 4 at tower step 2"),
    ({"extents": [8, 8], "block": [2]}, "block rank 1 does not match lattice rank 2"),
], ids=["step-1", "step-2", "rank"])
def test_config_checks_both_tower_steps(lattice, detail):
    with pytest.raises(ConfigError, match="'lattice'") as err:
        ScenarioConfig.from_dict({"seed": 1, "lattice": lattice})
    assert detail in str(err.value)


def test_polynomial_file_is_relative_to_config(tmp_path):
    poly = [{"kstar": 1, "k": 2,
             "entries": [{"multi_index_star": [0], "multi_index": [0, 0],
                          "re": 0.05, "im": 0.0}]}]
    (tmp_path / "p.json").write_text(json.dumps(poly))
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"seed": 5, "dims": [1, 1, 1],
                                "polynomial": "p.json"}))
    spec = scenario_spec(ScenarioConfig.from_file(path))
    assert spec.p.monomials[(1, 2)][0, 0, 0] == 0.05


def test_missing_polynomial_file_names_the_field(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"seed": 5, "polynomial": "gone.json"}))
    with pytest.raises(ConfigError, match="'polynomial'"):
        scenario_spec(ScenarioConfig.from_file(path))


@pytest.mark.parametrize("space, dim", [
    ({}, 3),
    ({"lattice": {"extents": [4], "block": [2]}}, 4),
    ({"dims": [1, 1, 1],
      "operators": {"q_minus": [[1.0]], "q": [[1.0]], "fq": [[1.0]], "d": [[1.0]]}}, 1),
], ids=["default-dims", "lattice", "operators"])
def test_polynomial_records_are_checked_on_the_fine_space(tmp_path, space, dim):
    def config(index):
        (tmp_path / "p.json").write_text(json.dumps([{"kstar": 0, "k": 2, "entries": [
            {"multi_index": [0, index], "re": 0.1}]}]))
        raw = {"seed": 5, "suites": [], "polynomial": "p.json", **space}
        return ScenarioConfig.from_dict(raw, base_dir=tmp_path)

    config(dim - 1)
    with pytest.raises(ConfigError, match=rf"'multi_index' needs 2 indices in \[0, {dim}\)"):
        config(dim)


def test_interaction_ensemble_populates_p():
    spec = scenario_spec(cfg_from(dims=[3, 2, 1],
                                  interaction={"bidegrees": [[1, 2]], "scale": 0.1}))
    assert (1, 2) in spec.p.monomials
    assert not spec.p.is_zero


# ---------------------------------------------------------------------------
# suite execution


def test_single_suite_runs_and_passes():
    report = run_scenario(cfg_from(suites=["woodbury"]))
    assert report.passed
    assert [s.name for s in report.suites] == ["woodbury"]
    names = [c.name for s in report.suites for c in s.checks]
    assert names == ["inverts-left-form", "inverts-right-form"]


def test_empty_suites_pass_with_zero_checks():
    report = run_scenario(cfg_from(suites=[]))
    assert report.passed
    d = report.as_dict()
    assert d["summary"]["checks"] == 0
    assert d["summary"]["passed"] is True


def test_suites_assemble_in_name_order():
    report = run_scenario(cfg_from(suites=["qcheck", "edA", "lattice"]))
    assert [s.name for s in report.suites] == ["edA", "lattice", "qcheck"]


def test_duplicate_suites_run_once():
    report = run_scenario(cfg_from(suites=["qcheck", "qcheck"]))
    assert len(report.suites) == 1


def test_tolerance_override_can_fail_a_suite():
    report = run_scenario(cfg_from(suites=["woodbury"],
                                   tolerances={"woodbury": 1e-20}))
    assert not report.passed
    check = report.suites[0].checks[0]
    assert check.tolerance == 1e-20
    assert check.residual is not None


def test_failures_are_recorded_not_raised():
    # a 1-dim setup but huge radii with few nodes: the two-sided comparison
    # inside the quadrature suite reports rather than raises
    cfg = cfg_from(suites=["gaussian-quadrature"], radii=[40.0, 40.0],
                   quadrature={"nodes_per_axis": 4})
    report = run_scenario(cfg)
    assert not report.passed
    assert all(isinstance(c, Check) for s in report.suites for c in s.checks)


def test_eda_suite_records_condition_numbers():
    report = run_scenario(cfg_from(suites=["edA"]))
    conds = report.suites[0].condition_numbers
    assert conds and all(v >= 1.0 for v in conds.values())


@pytest.mark.parametrize("dims", [[1, 1, 1], None], ids=["dims", "no-dims"])
def test_quadrature_suite_uses_scenario_when_scalar(dims):
    """Without dims the step's dimensions are the operator shapes."""
    ops = {"q_minus": [[1.0]], "q": [[1.0]], "fq": [[2.0]], "d": [[1.0]]}

    def first_check(**extra):
        report = run_scenario(cfg_from(operators=ops, suites=["gaussian-quadrature"],
                                       quadrature={"nodes_per_axis": 24}, **extra))
        assert report.passed
        return report.suites[0].checks[0]

    check = first_check(**({} if dims is None else {"dims": dims}))
    assert check.note == "scenario data"
    assert check.residual == first_check(dims=[1, 1, 1]).residual


def test_quadrature_suite_falls_back_to_reference():
    cfg = cfg_from(dims=[3, 2, 1], suites=["gaussian-quadrature"],
                   quadrature={"nodes_per_axis": 24})
    report = run_scenario(cfg)
    assert report.passed
    assert "reference family" in report.suites[0].checks[0].note


@pytest.mark.parametrize("seed", [14, 24, 54])
def test_newton_vs_fps_fails_by_truncation_at_known_seeds(seed):
    """Criterion 6 fails at these seeds because of the order-4 truncation,
    not because of a solver.  The one failing agreement gap lies just above
    the 1e-7 tolerance.  Its doubling ratio is that of an order-5 remainder.
    On the same draw and directions the order-6 series cuts the gap at
    least 100-fold.  This pins the diagnosis; it is not a pass."""
    suite = run_scenario(ScenarioConfig(seed=seed, suites=("newton-vs-fps",))).suites[0]
    failed = [c for c in suite.checks if not c.passed]
    assert len(failed) == 1 and "-agreement-dims-" in failed[0].name
    gap = failed[0].residual
    assert 1e-7 < gap < 3e-7
    kind, tag = failed[0].name.split("-agreement-dims-")
    ratio = {c.name: c.residual for c in suite.checks}[f"{kind}-doubling-dims-{tag}"]
    assert 2.0 ** 4 <= ratio <= 2.0 ** 6

    # replay the suite's draws: each spec, then two directions per kind
    rng = stream(seed, "newton-vs-fps")
    for drawn, spec in _specs_per_dims(rng, {}, bidegrees=((1, 2), (0, 3)), scale=0.2):
        spaces = {"background": spec.rg.space_mid, "critical": spec.rg.space_plus}
        dirs = {k: (unit_field(rng, s), unit_field(rng, s)) for k, s in spaces.items()}
        if drawn == tag:
            break
    src = [0.1 * d.components for d in dirs[kind]]
    solver = newton_background if kind == "background" else newton_critical
    got = solver(spec, *src, tol=1e-13)

    def series_gap(order):
        series = fps_background(spec, max_order=order)
        if kind == "critical":
            series = fps_critical(spec, series, max_order=order)
        want = series.evaluate(*src)
        return max(float(np.abs(g.components - w.components).max())
                   for g, w in zip(got, want))

    assert series_gap(4) == gap
    assert 100.0 * series_gap(6) <= gap


def test_full_default_scenario_passes():
    report = run_scenario(cfg_from())
    assert report.passed
    assert len(report.suites) == len(SUITE_NAMES)
    d = report.as_dict()
    assert d["summary"]["failures"] == 0
    # every configured suite appears exactly once
    assert sorted(s["name"] for s in d["suites"]) == sorted(SUITE_NAMES)


# ---------------------------------------------------------------------------
# reports


def test_json_report_is_byte_identical_across_runs():
    cfg = cfg_from(suites=["woodbury", "qcheck", "lattice"])
    a = emit_report(run_scenario(cfg), "json")
    b = emit_report(run_scenario(cfg), "json")
    assert a == b


def test_json_report_round_trips():
    report = run_scenario(cfg_from(suites=["qcheck"]))
    d = json.loads(emit_report(report, "json").decode())
    assert d["artifact"]["name"] == "blockspin"
    assert d["config"]["seed"] == 11
    assert d["suites"][0]["checks"][0]["passed"] is True


def test_residuals_serialize_as_17_digit_strings():
    report = run_scenario(cfg_from(suites=["qcheck"]))
    d = json.loads(emit_report(report, "json").decode())
    r = d["suites"][0]["checks"][0]["residual"]
    assert isinstance(r, str)
    assert float(r) == report.suites[0].checks[0].residual


def test_timings_are_opt_in():
    cfg = cfg_from(suites=["qcheck"])
    plain = json.loads(emit_report(run_scenario(cfg), "json").decode())
    timed = json.loads(emit_report(run_scenario(cfg, timings=True), "json").decode())
    assert "seconds" not in plain["suites"][0]
    assert float(timed["suites"][0]["seconds"]) >= 0.0


def test_text_report_mentions_every_check():
    report = run_scenario(cfg_from(suites=["woodbury", "lattice"]))
    text = emit_report(report, "text").decode()
    for suite in report.suites:
        for check in suite.checks:
            assert check.name in text
    assert "PASS" in text


def test_unknown_format_is_an_error():
    report = Report(config={}, suites=[])
    with pytest.raises(ConfigError, match="unknown report format"):
        emit_report(report, "yaml")


def test_crashing_suite_is_reported_not_raised(monkeypatch):
    import blockspin.harness as hz

    def boom(cfg):
        raise RuntimeError("synthetic breakage")

    monkeypatch.setitem(hz._SUITES, "qcheck", boom)
    report = run_scenario(cfg_from(suites=["qcheck", "woodbury"]))
    assert not report.passed
    broken = report.suites[0]
    assert broken.name == "qcheck"
    assert broken.checks[0].name == "suite-execution"
    assert "synthetic breakage" in broken.checks[0].note
    assert report.suites[1].passed


@pytest.mark.parametrize("residual, passed", [
    (float("nan"), False),  # a NaN residual fails
    (1e-3, True),  # a residual equal to the tolerance passes
    (np.float64(1e-4), True),  # a numpy residual still gives a plain bool
    (np.float64(2e-3), False),
], ids=["nan", "equal", "float64-below", "float64-above"])
def test_check_within_is_the_le_test(residual, passed):
    check = Check.within("x", residual, 1e-3)
    assert check.passed is passed
    assert check.residual is residual and check.tolerance == 1e-3 and check.note == ""


def test_suite_result_passed_reflects_checks():
    good = SuiteResult("x", [Check("a", True), Check("b", True)])
    bad = SuiteResult("x", [Check("a", True), Check("b", False)])
    assert good.passed and not bad.passed
