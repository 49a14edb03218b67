"""Acceptance gate: the ten headline checks, one visible line each.

Every criterion pins its tolerance literally here, independent of the
harness defaults, so a drive-by change to the defaults cannot quietly
weaken the gate.  Lines print through the capture so a plain pytest run
shows the verdicts as they happen.
"""

import time

from blockspin.ensembles import stream
from blockspin.gaussian import prop_d_gaussian_check, prop_d_quadrature_check
from blockspin.harness import ScenarioConfig, emit_report, run_scenario
from blockspin.reference import scalar_reference_data, scalar_reference_spec
from blockspin.solvers import (
    compose_cp,
    fps_background,
    fps_critical,
    verify_composition,
    verify_crit_representation,
)

SEED = 2026


def announce(capsys, num, text, ok):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {text} -> {'PASS' if ok else 'FAIL'}")
    assert ok


def suite_report(name, **overrides):
    raw = {"seed": SEED, "suites": [name]}
    raw.update(overrides)
    report = run_scenario(ScenarioConfig.from_dict(raw))
    (suite,) = report.suites
    return suite


def check_map(suite):
    return {c.name: c for c in suite.checks}


def test_criterion_1_woodbury(capsys):
    suite = suite_report("woodbury")
    worst = max(c.residual for c in suite.checks)
    ok = all(c.residual <= 1e-11 for c in suite.checks) and suite.seconds < 1.0
    announce(capsys, 1,
             f"woodbury identities, 100 draws dims <= 12: worst residual "
             f"{worst:.2e} <= 1e-11, {suite.seconds:.2f} s < 1 s", ok)


def test_criterion_2_qcheck_dual(capsys):
    suite = suite_report("qcheck")
    r = suite.checks[0].residual
    announce(capsys, 2,
             f"coarse-kernel dual representations, 100 draws: {r:.2e} <= 1e-11",
             r <= 1e-11)


def test_criterion_3_kernel_identity_suite(capsys):
    suite = suite_report("edA")
    worst = max(c.residual for c in suite.checks)
    conds = max(suite.condition_numbers.values())
    ok = (len(suite.checks) == 5
          and all(c.residual <= 1e-11 for c in suite.checks)
          and conds <= 1e6)
    announce(capsys, 3,
             f"kernel identities (a)-(e), 25 draws: worst {worst:.2e} <= 1e-11, "
             f"max cond {conds:.1e} <= 1e6", ok)


def test_criterion_4_preparation(capsys):
    cm = check_map(suite_report("preparation"))
    v = cm["value-identity"].residual
    g = cm["gradient-identity"].residual
    announce(capsys, 4,
             f"preparation at 20 points, cubic+quartic P: value {v:.2e} <= 1e-11, "
             f"gradient {g:.2e} <= 1e-9", v <= 1e-11 and g <= 1e-9)


def test_criterion_5_composition_and_representation(capsys):
    worst = 0.0
    rng = stream(SEED, "acceptance-five")
    from blockspin.ensembles import random_spec

    for dims in ((3, 2, 1), (4, 3, 2)):
        spec = random_spec(rng, dims, scale=0.3, max_cond=1e4)
        worst = max(worst, verify_composition(spec, max_order=4)["max_residual"])
        worst = max(worst, verify_crit_representation(spec, max_order=4)["max_residual"])
    g = 0.05
    spec = scalar_reference_spec(g=g)
    bg = fps_background(spec, max_order=2)
    cr = fps_critical(spec, bg, max_order=2)
    comp = compose_cp(bg, cr, max_order=2)
    coeff_err = max(
        abs(complex(comp.unstarred.coefficient(0, 1).flat[0]) - 1 / 3),
        abs(complex(comp.unstarred.coefficient(0, 2).flat[0]) + 2 * g / 27),
        abs(complex(cr.unstarred.coefficient(0, 1).flat[0]) - 2 / 3),
        abs(complex(cr.unstarred.coefficient(0, 2).flat[0]) + g / 27),
    )
    ok = worst <= 1e-10 and coeff_err <= 1e-12
    announce(capsys, 5,
             f"composition + critical representation through order 4, dims "
             f"(3,2,1)/(4,3,2): worst {worst:.2e} <= 1e-10; hand coefficients "
             f"{coeff_err:.2e} <= 1e-12", ok)


def test_criterion_6_newton_vs_series(capsys):
    cm = check_map(suite_report("newton-vs-fps"))
    agree = max(c.residual for n, c in cm.items() if "agreement" in n)
    ratios = [c.residual for n, c in cm.items() if "doubling" in n]
    ok = agree <= 1e-7 and all(2**4 <= r <= 2**6 for r in ratios)
    announce(capsys, 6,
             f"Newton vs order-4 series: agreement {agree:.2e} <= 1e-7 at scale "
             f"0.1; doubling ratios {[f'{r:.1f}' for r in ratios]} in [16, 64]", ok)


def test_criterion_7_action_increment(capsys):
    cm = check_map(suite_report("deltaA"))
    direct = cm["formula-vs-direct"].residual
    free = cm["free-quadratic-reduction"].residual
    announce(capsys, 7,
             f"action increment: formula vs direct {direct:.2e} <= 1e-8 at 20 "
             f"points; free-field quadratic reduction {free:.2e} <= 1e-13",
             direct <= 1e-8 and free <= 1e-13)


def test_criterion_8_determinant_split(capsys):
    suite = suite_report("gaussian-detd")
    worst = check_map(suite)["random-draws"].residual
    ref = prop_d_gaussian_check(scalar_reference_data())
    ref_err = max(abs(ref["lhs"] - 2.0), abs(ref["rhs"] - 2.0))
    ok = worst <= 1e-10 and ref_err <= 1e-12
    announce(capsys, 8,
             f"Gaussian split, determinant form: 25 draws {worst:.2e} <= 1e-10; "
             f"reference instance 2 = 1*3*(2/3) to {ref_err:.2e}", ok)


def test_criterion_9_quadrature_split(capsys):
    start = time.perf_counter()
    out = prop_d_quadrature_check(scalar_reference_spec(g=0.05), (1.0, 1.0),
                                  nodes_per_axis=64, tolerance=1e-3)
    seconds = time.perf_counter() - start
    rel = out["relative_difference"]
    dev = max(out["node_deviation"].values())
    ok = rel <= 1e-3 and dev <= 5e-4 and seconds < 300.0
    announce(capsys, 9,
             f"Gaussian split by disc quadrature, dims (1,1,1), g=0.05, radius 1: "
             f"two sides {rel:.2e} <= 1e-3; 64-vs-96-node deviation {dev:.2e} "
             f"<= 5e-4; {seconds:.1f} s < 300 s", ok)


def test_criterion_10_byte_identical_reports(capsys):
    cfg = ScenarioConfig.from_dict({"seed": SEED})
    first = emit_report(run_scenario(cfg), "json")
    second = emit_report(run_scenario(cfg), "json")
    ok = first == second and len(first) > 0
    announce(capsys, 10,
             f"full 11-suite run twice at one seed: reports byte-identical "
             f"({len(first)} bytes)", ok)
