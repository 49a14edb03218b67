"""Series and Newton solvers for the three field equations.

Scalar-model coefficients asserted here are frozen from an independent
symbolic derivation (see test_srm_oracle.py, which re-derives them with
exact rational arithmetic).
"""

import numpy as np
import pytest

from blockspin import solvers
from blockspin.errors import ConvergenceError, NearSingularError
from blockspin.poly import PolynomialP, p_gradients
from blockspin.reference import scalar_reference_data, scalar_reference_spec
from blockspin.action import make_action_spec
from conftest import general_spec, make_rng


def rng_for(tag: int) -> np.random.Generator:
    return make_rng(557, tag)


def sc(arr) -> complex:
    """The single entry of a scalar-model coefficient tensor."""
    flat = np.asarray(arr).reshape(-1)
    assert flat.size == 1
    return complex(flat[0])


def degree2_scalar_spec(c: float, g: float = 0.0):
    """Scalar model with an extra phi*phi term of weight c."""
    data = scalar_reference_data()
    monomials = {(1, 1): np.array([[complex(c)]])}
    if g:
        monomials[(1, 2)] = np.full((1, 1, 1), complex(g))
    return make_action_spec(data, PolynomialP(data.space_minus, monomials))


# ---------------------------------------------------------------------------
# background series


def test_background_scalar_series_through_order_six():
    g = 0.3
    spec = scalar_reference_spec(g=g)
    bg = solvers.fps_background(spec, max_order=6)
    expect_unstar = [0.5, -g / 8, g**2 / 16, -5 * g**3 / 128,
                     7 * g**4 / 256, -21 * g**5 / 1024]
    expect_star = [0.5, -g / 4, 3 * g**2 / 16, -5 * g**3 / 32,
                   35 * g**4 / 256, -63 * g**5 / 512]
    for k, want in enumerate(expect_unstar, start=1):
        assert sc(bg.unstarred.coeffs[(0, k)]) == pytest.approx(want, abs=1e-15)
    for k, want in enumerate(expect_star):
        assert sc(bg.starred.coeffs[(1, k)]) == pytest.approx(want, abs=1e-15)
    # the interaction phi* phi^2 never feeds any other bidegree
    for (a, b), t in bg.unstarred.coeffs.items():
        if a != 0:
            assert np.max(np.abs(t)) == 0.0
    for (a, b), t in bg.starred.coeffs.items():
        if a != 1:
            assert np.max(np.abs(t)) == 0.0


def test_background_p_zero_is_linear():
    spec = general_spec(rng_for(1), (3, 2, 1), bidegrees=())
    assert spec.p.is_zero
    bg = solvers.fps_background(spec, max_order=4)
    rg, ks = spec.rg, spec.kernels
    assert np.allclose(bg.unstarred.coeffs[(0, 1)], ks.s.entries @ rg.qms_fq,
                       atol=1e-14)
    assert np.allclose(bg.starred.coeffs[(1, 0)], ks.s_star.entries @ rg.qms_fq,
                       atol=1e-14)
    for key, t in bg.unstarred.coeffs.items():
        if key != (0, 1):
            assert np.max(np.abs(t)) == 0.0
    for key, t in bg.starred.coeffs.items():
        if key != (1, 0):
            assert np.max(np.abs(t)) == 0.0


def test_background_linear_coefficient_general():
    # with interactions of degree >= 3 the linear response is untouched
    spec = general_spec(rng_for(2), (4, 3, 2))
    bg = solvers.fps_background(spec, max_order=3)
    rg, ks = spec.rg, spec.kernels
    assert np.allclose(bg.unstarred.coeffs[(0, 1)], ks.s.entries @ rg.qms_fq,
                       atol=1e-13)
    assert np.allclose(bg.starred.coeffs[(1, 0)], ks.s_star.entries @ rg.qms_fq,
                       atol=1e-13)


def test_background_equation_residuals():
    for tag, dims in ((3, (3, 2, 1)), (4, (4, 3, 2))):
        spec = general_spec(rng_for(tag), dims,
                            bidegrees=((1, 2), (0, 3), (2, 2), (1, 3)))
        bg = solvers.fps_background(spec, max_order=4)
        res = solvers.background_series_residuals(spec, bg)
        assert max(res.values()) <= 1e-12


def test_background_degree_two_coupling():
    # phi* phi term folds into the linear solve: phi = (1 + c s)^{-1} s psi
    spec = degree2_scalar_spec(0.5)
    bg = solvers.fps_background(spec, max_order=3)
    assert sc(bg.unstarred.coeffs[(0, 1)]) == pytest.approx(0.4, abs=1e-15)
    assert sc(bg.starred.coeffs[(1, 0)]) == pytest.approx(0.4, abs=1e-15)
    for key, t in bg.unstarred.coeffs.items():
        if key != (0, 1):
            assert np.max(np.abs(t)) == 0.0
    assert max(solvers.background_series_residuals(spec, bg).values()) <= 1e-14


def test_background_degree_two_singular_gate():
    # c = -2 zeroes out 1 + c s exactly; one scale up, c = -1.5 zeroes
    # 1 + c scheck (scheck = 2/3) in the next-scale background equation
    for c, solve, green in ((-2.0, solvers.fps_background, "s"),
                            (-1.5, solvers.fps_nextscale, "scheck")):
        with pytest.raises(NearSingularError,
                           match=rf"1 \+ {green}\^\(\*\) P' \(degree-two interaction coupling\)"):
            solve(degree2_scalar_spec(c), max_order=2)


# ---------------------------------------------------------------------------
# critical series


def test_critical_scalar_series_through_order_five():
    g = 0.3
    spec = scalar_reference_spec(g=g)
    cr = solvers.fps_critical(spec, solvers.fps_background(spec, 6), max_order=6)
    expect_unstar = [2 / 3, -g / 27, 4 * g**2 / 243, -20 * g**3 / 2187,
                     112 * g**4 / 19683]
    expect_star = [2 / 3, -2 * g / 27, 4 * g**2 / 81, -80 * g**3 / 2187,
                   560 * g**4 / 19683]
    for k, want in enumerate(expect_unstar, start=1):
        assert sc(cr.unstarred.coeffs[(0, k)]) == pytest.approx(want, abs=1e-15)
    for k, want in enumerate(expect_star):
        assert sc(cr.starred.coeffs[(1, k)]) == pytest.approx(want, abs=1e-15)


def test_critical_equation_residuals():
    spec = general_spec(rng_for(5), (3, 2, 1),
                        bidegrees=((1, 2), (0, 3), (2, 2)))
    bg = solvers.fps_background(spec, max_order=4)
    cr = solvers.fps_critical(spec, bg, max_order=4)
    res = solvers.critical_series_residuals(spec, bg, cr)
    assert max(res.values()) <= 1e-12


def test_critical_p_zero_linear():
    spec = general_spec(rng_for(6), (3, 2, 1), bidegrees=())
    cr = solvers.fps_critical(spec, solvers.fps_background(spec, 3), max_order=3)
    rg, ks = spec.rg, spec.kernels
    assert np.allclose(cr.unstarred.coeffs[(0, 1)],
                       rg.b * ks.cov.entries @ rg.qs, atol=1e-13)
    assert np.allclose(cr.starred.coeffs[(1, 0)],
                       rg.b * ks.cov_star.entries @ rg.qs, atol=1e-13)
    for key, t in cr.unstarred.coeffs.items():
        if key != (0, 1):
            assert np.max(np.abs(t)) == 0.0


def test_critical_singular_gate():
    # c = -1.5 makes the background response L = 2 and the linearized
    # critical block b q*q + fq - fq qm L = 2 - 2 vanish
    spec = degree2_scalar_spec(-1.5)
    bg = solvers.fps_background(spec, max_order=2)
    with pytest.raises(NearSingularError, match="linearized critical system"):
        solvers.fps_critical(spec, bg, max_order=2)


# ---------------------------------------------------------------------------
# next-scale series


def test_nextscale_scalar_series():
    g = 0.3
    spec = scalar_reference_spec(g=g)
    ns = solvers.fps_nextscale(spec, max_order=4)
    expect_unstar = [1 / 3, -2 * g / 27, 8 * g**2 / 243, -40 * g**3 / 2187]
    expect_star = [1 / 3, -4 * g / 27, 8 * g**2 / 81, -160 * g**3 / 2187]
    for k, want in enumerate(expect_unstar, start=1):
        assert sc(ns.unstarred.coeffs[(0, k)]) == pytest.approx(want, abs=1e-15)
    for k, want in enumerate(expect_star):
        assert sc(ns.starred.coeffs[(1, k)]) == pytest.approx(want, abs=1e-15)


def test_nextscale_leading_coefficient_general():
    spec = general_spec(rng_for(7), (4, 3, 2))
    ns = solvers.fps_nextscale(spec, max_order=2)
    rg, ks = spec.rg, spec.kernels
    assert np.allclose(ns.unstarred.coeffs[(0, 1)],
                       ks.scheck.entries @ rg.qcms @ ks.qcheck.entries, atol=1e-13)
    assert np.allclose(ns.starred.coeffs[(1, 0)],
                       ks.scheck_star.entries @ rg.qcms @ ks.qcheck.entries, atol=1e-13)


def test_nextscale_equation_residuals():
    spec = general_spec(rng_for(8), (3, 2, 1),
                        bidegrees=((1, 2), (0, 3), (1, 3)))
    ns = solvers.fps_nextscale(spec, max_order=4)
    res = solvers.nextscale_series_residuals(spec, ns)
    assert max(res.values()) <= 1e-12


# ---------------------------------------------------------------------------
# composition and the critical representation


def test_compose_linear_product():
    spec = general_spec(rng_for(9), (3, 2, 1), bidegrees=())
    bg = solvers.fps_background(spec, max_order=2)
    cr = solvers.fps_critical(spec, bg, max_order=2)
    cp = solvers.compose_cp(bg, cr, max_order=2)
    rg, ks = spec.rg, spec.kernels
    want_u = ks.s.entries @ rg.qms_fq @ (rg.b * ks.cov.entries @ rg.qs)
    want_s = ks.s_star.entries @ rg.qms_fq @ (rg.b * ks.cov_star.entries @ rg.qs)
    assert np.allclose(cp.unstarred.coeffs[(0, 1)], want_u, atol=1e-13)
    assert np.allclose(cp.starred.coeffs[(1, 0)], want_s, atol=1e-13)


def test_compose_quadratic_from_linear_background():
    # quartic-only interaction: background has no quadratic part, so the
    # quadratic term of the composite is the linear response of the
    # critical quadratic term
    spec = general_spec(rng_for(10), (3, 2, 1), bidegrees=((2, 2),))
    bg = solvers.fps_background(spec, max_order=3)
    assert np.max(np.abs(bg.unstarred.coefficient(0, 2))) == 0.0
    assert np.max(np.abs(bg.unstarred.coefficient(1, 1))) == 0.0
    cr = solvers.fps_critical(spec, bg, max_order=3)
    cp = solvers.compose_cp(bg, cr, max_order=3)
    lin_u = bg.unstarred.coeffs[(0, 1)]
    lin_s = bg.starred.coeffs[(1, 0)]
    for key in ((0, 2), (1, 1), (2, 0)):
        want = np.tensordot(lin_u, cr.unstarred.coefficient(*key), axes=([1], [0]))
        assert np.allclose(cp.unstarred.coefficient(*key), want, atol=1e-13)
        want_s = np.tensordot(lin_s, cr.starred.coefficient(*key), axes=([1], [0]))
        assert np.allclose(cp.starred.coefficient(*key), want_s, atol=1e-13)


def test_verify_composition_p_zero():
    spec = general_spec(rng_for(11), (3, 2, 1), bidegrees=())
    report = solvers.verify_composition(spec, max_order=3)
    assert report["max_residual"] <= 1e-13


def test_verify_composition_scalar_order_two():
    spec = scalar_reference_spec(g=0.25)
    report = solvers.verify_composition(spec, max_order=2)
    assert report["max_residual"] <= 1e-12
    ns = solvers.fps_nextscale(spec, max_order=2)
    assert sc(ns.unstarred.coeffs[(0, 1)]) == pytest.approx(1 / 3, abs=1e-14)
    assert sc(ns.unstarred.coeffs[(0, 2)]) == pytest.approx(-2 * 0.25 / 27,
                                                            abs=1e-14)


def test_verify_composition_random():
    for tag, dims in ((12, (3, 2, 1)), (13, (4, 3, 2))):
        spec = general_spec(rng_for(tag), dims,
                            bidegrees=((1, 2), (0, 3), (2, 2)),
                            max_cond=1e4)
        report = solvers.verify_composition(spec, max_order=4)
        assert report["max_residual"] <= 1e-10
        assert set(report) == {"max_residual"}


def test_verify_crit_representation_random():
    for tag, dims in ((14, (3, 2, 1)), (15, (4, 3, 2))):
        spec = general_spec(rng_for(tag), dims,
                            bidegrees=((1, 2), (0, 3), (2, 2)),
                            max_cond=1e4)
        report = solvers.verify_crit_representation(spec, max_order=4)
        assert report["max_residual"] <= 1e-10
        assert report["leading_vs_covariance"] <= 1e-11


def test_scalar_representation_p_zero():
    # 2/3 = (1/2)(1 + 1/3) for the unit scalar data
    spec = scalar_reference_spec(g=0.0)
    report = solvers.verify_crit_representation(spec, max_order=2)
    assert report["max_residual"] <= 1e-14
    assert report["leading_vs_covariance"] <= 1e-14


# ---------------------------------------------------------------------------
# determinism


def test_series_deterministic_under_monomial_order():
    rng = rng_for(16)
    spec = general_spec(rng, (3, 2, 1), bidegrees=((1, 2), (0, 3), (2, 2)))
    forward = dict(sorted(spec.p.monomials.items()))
    backward = dict(sorted(spec.p.monomials.items(), reverse=True))
    spec_fwd = make_action_spec(spec.rg, PolynomialP(spec.rg.space_minus, forward))
    spec_bwd = make_action_spec(spec.rg, PolynomialP(spec.rg.space_minus, backward))
    for a, b in ((solvers.fps_background(spec_fwd, 4),
                  solvers.fps_background(spec_bwd, 4)),
                 (solvers.fps_nextscale(spec_fwd, 4),
                  solvers.fps_nextscale(spec_bwd, 4))):
        for key in a.unstarred.coeffs:
            assert np.array_equal(a.unstarred.coeffs[key], b.unstarred.coeffs[key])
            assert np.array_equal(a.starred.coeffs[key], b.starred.coeffs[key])


def test_series_deterministic_on_repeat():
    spec = general_spec(rng_for(17), (3, 2, 1))
    bg1 = solvers.fps_background(spec, max_order=4)
    bg2 = solvers.fps_background(spec, max_order=4)
    cr1 = solvers.fps_critical(spec, bg1, max_order=4)
    cr2 = solvers.fps_critical(spec, bg2, max_order=4)
    for key in cr1.unstarred.coeffs:
        assert np.array_equal(cr1.unstarred.coeffs[key], cr2.unstarred.coeffs[key])
        assert np.array_equal(cr1.starred.coeffs[key], cr2.starred.coeffs[key])


# ---------------------------------------------------------------------------
# Newton solvers


def test_newton_background_p_zero_exact():
    spec = general_spec(rng_for(18), (3, 2, 1), bidegrees=())
    rng = rng_for(118)
    psi_star = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    fs, fu = solvers.newton_background(spec, psi_star, psi)
    rg, ks = spec.rg, spec.kernels
    assert np.array_equal(fu.components, ks.s.entries @ rg.qms_fq @ psi)
    assert np.array_equal(fs.components, ks.s_star.entries @ rg.qms_fq @ psi_star)


def test_newton_background_scalar_exact_root():
    # 2 phi + phi^2 = psi  =>  phi = sqrt(1 + psi) - 1
    spec = scalar_reference_spec(g=1.0)
    psi = np.array([0.01 + 0j])
    fs, fu = solvers.newton_background(spec, psi, psi)
    root = np.sqrt(1.01) - 1.0
    assert abs(fu.components[0] - root) <= 1e-12
    assert abs(fs.components[0] - 0.01 / (2 * np.sqrt(1.01))) <= 1e-12


def test_newton_background_matches_series():
    spec = scalar_reference_spec(g=0.1)
    point = np.array([0.2 + 0j])
    fs, fu = solvers.newton_background(spec, point, point)
    sv, uv = solvers.fps_background(spec, 6).evaluate(point, point)
    assert abs(fu.components[0] - uv.components[0]) <= 1e-8
    assert abs(fs.components[0] - sv.components[0]) <= 1e-8


def test_newton_background_residual_general():
    spec = general_spec(rng_for(19), (3, 2, 1))
    rng = rng_for(119)
    psi_star = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    psi = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    fs, fu = solvers.newton_background(spec, psi_star, psi, tol=1e-13)
    r_star, r_unstar = solvers.background_residual(
        spec, fs.components, fu.components, psi_star, psi)
    assert np.max(np.abs(r_star.components)) <= 1e-13
    assert np.max(np.abs(r_unstar.components)) <= 1e-13


def test_newton_background_no_convergence_error():
    spec = scalar_reference_spec(g=1.0)
    psi = np.array([0.3 + 0j])
    with pytest.raises(ConvergenceError, match="no convergence after 0"):
        solvers.newton_background(spec, psi, psi, max_iter=0)


def test_newton_vs_series_doubling_background():
    spec = general_spec(rng_for(20), (3, 2, 1), bidegrees=((1, 2), (0, 3)),
                        scale=0.2, max_cond=1e4)
    series = solvers.fps_background(spec, max_order=4)
    rng = rng_for(120)
    direction_star = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    direction_star /= np.linalg.norm(direction_star)
    direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    direction /= np.linalg.norm(direction)

    def discrepancy(scale):
        ps, pu = scale * direction_star, scale * direction
        fs, fu = solvers.newton_background(spec, ps, pu, tol=1e-14)
        sv, uv = series.evaluate(ps, pu)
        return np.linalg.norm(np.concatenate([
            fs.components - sv.components, fu.components - uv.components]))

    lo, hi = discrepancy(0.05), discrepancy(0.1)
    assert hi <= 1e-7
    ratio = hi / lo
    assert 2**4 <= ratio <= 2**6


def test_newton_critical_p_zero_exact():
    spec = general_spec(rng_for(21), (3, 2, 1), bidegrees=())
    rng = rng_for(121)
    theta_star = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    theta = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    ps, pu = solvers.newton_critical(spec, theta_star, theta)
    rg, ks = spec.rg, spec.kernels
    assert np.array_equal(pu.components, rg.b * ks.cov.entries @ rg.qs @ theta)
    assert np.array_equal(ps.components,
                          rg.b * ks.cov_star.entries @ rg.qs @ theta_star)


def test_newton_critical_matches_series():
    spec = scalar_reference_spec(g=0.1)
    theta = np.array([0.3 + 0j])
    ps, pu = solvers.newton_critical(spec, theta, theta)
    series = solvers.fps_critical(spec, solvers.fps_background(spec, 6), 6)
    sv, uv = series.evaluate(theta, theta)
    assert abs(pu.components[0] - uv.components[0]) <= 1e-7
    assert abs(ps.components[0] - sv.components[0]) <= 1e-7


def test_newton_critical_residual_general():
    spec = general_spec(rng_for(22), (3, 2, 1))
    rng = rng_for(122)
    theta_star = 0.3 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    theta = 0.3 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    ps, pu = solvers.newton_critical(spec, theta_star, theta, tol=1e-12)
    r_star, r_unstar = solvers.critical_residual(
        spec, ps.components, pu.components, theta_star, theta)
    assert np.max(np.abs(r_star.components)) <= 1e-12
    assert np.max(np.abs(r_unstar.components)) <= 1e-12


def test_newton_critical_composes_to_nextscale():
    # numerical composition rule: background at the critical point equals
    # the next-scale series evaluated at the boundary sources
    spec = scalar_reference_spec(g=0.1)
    theta = np.array([0.3 + 0j])
    theta_star = np.array([0.25 + 0j])
    ps, pu = solvers.newton_critical(spec, theta_star, theta)
    fs, fu = solvers.newton_background(spec, ps.components, pu.components)
    sv, uv = solvers.fps_nextscale(spec, max_order=6).evaluate(theta_star, theta)
    assert abs(fu.components[0] - uv.components[0]) <= 1e-7
    assert abs(fs.components[0] - sv.components[0]) <= 1e-7


def test_newton_critical_solves_each_inner_point_once(monkeypatch):
    # the jacobian reuses the inner background solve of the residual at the
    # same iterate instead of repeating it
    from pathlib import Path

    from blockspin.harness import ScenarioConfig, scenario_spec
    from blockspin.linalg import components

    srm = Path(__file__).resolve().parent.parent / "scenarios" / "srm.json"
    inner = solvers.newton_background
    solved = []

    def counted(spec, psi_star, psi, tol=1e-12, **kwargs):
        solved.append((components(psi_star).tobytes(), components(psi).tobytes(), tol))
        return inner(spec, psi_star, psi, tol=tol, **kwargs)

    monkeypatch.setattr(solvers, "newton_background", counted)
    rng = rng_for(140)
    for spec in (scenario_spec(ScenarioConfig.from_file(srm)),
                 general_spec(rng_for(141), (4, 3, 2), max_cond=1e4)):
        dim = spec.rg.space_plus.dim
        theta_star = 0.3 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        theta = 0.3 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        solved.clear()
        solvers.newton_critical(spec, theta_star, theta)
        assert len(solved) >= 2  # the start point and at least one Newton step
        assert len(set(solved)) == len(solved)


def test_newton_vs_series_doubling_critical():
    spec = general_spec(rng_for(23), (3, 2, 1), bidegrees=((1, 2), (0, 3)),
                        scale=0.2, max_cond=1e4)
    bg = solvers.fps_background(spec, max_order=4)
    series = solvers.fps_critical(spec, bg, max_order=4)
    rng = rng_for(123)
    direction_star = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    direction_star /= np.linalg.norm(direction_star)
    direction = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    direction /= np.linalg.norm(direction)

    def discrepancy(scale):
        ts, tu = scale * direction_star, scale * direction
        fs, fu = solvers.newton_critical(spec, ts, tu, tol=1e-14)
        sv, uv = series.evaluate(ts, tu)
        return np.linalg.norm(np.concatenate([
            fs.components - sv.components, fu.components - uv.components]))

    lo, hi = discrepancy(0.05), discrepancy(0.1)
    assert hi <= 1e-7
    ratio = hi / lo
    assert 2**4 <= ratio <= 2**6


# ---------------------------------------------------------------------------
# increment machinery


def test_delta_phi_p_zero():
    spec = general_spec(rng_for(24), (3, 2, 1), bidegrees=())
    rng = rng_for(124)
    theta_star = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    theta = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    dpsi_star = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    dpsi = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    dbs, dbu, dps, dpu = solvers.delta_phi_variants(
        spec, theta_star, theta, dpsi_star, dpsi)
    rg, ks = spec.rg, spec.kernels
    assert np.allclose(dbu.components, ks.s.entries @ rg.qms_fq @ dpsi, atol=1e-14)
    assert np.allclose(dbs.components, ks.s_star.entries @ rg.qms_fq @ dpsi_star,
                       atol=1e-14)
    assert np.max(np.abs(dpu.components)) <= 1e-14
    assert np.max(np.abs(dps.components)) <= 1e-14


def test_delta_phi_zero_increment():
    spec = general_spec(rng_for(25), (3, 2, 1))
    rng = rng_for(125)
    theta_star = 0.2 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    theta = 0.2 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    zero = np.zeros(2, dtype=complex)
    out = solvers.delta_phi_variants(spec, theta_star, theta, zero, zero)
    for piece in out:
        assert np.max(np.abs(piece.components)) == 0.0


def test_delta_phi_scalar_oracle():
    g = 0.1
    spec = scalar_reference_spec(g=g)
    theta_star = np.array([0.25 + 0j])
    theta = np.array([0.3 + 0j])
    dpsi_star = np.array([0.04 + 0j])
    dpsi = np.array([0.05 + 0j])
    ps, pu = solvers.newton_critical(spec, theta_star, theta, tol=1e-14)

    def phi_of(z):
        return (np.sqrt(1 + g * z) - 1) / g

    def phi_star_of(zs, z):
        return zs / (2 * np.sqrt(1 + g * z))

    base_u = phi_of(pu.components[0])
    base_s = phi_star_of(ps.components[0], pu.components[0])
    shift_u = phi_of(pu.components[0] + dpsi[0])
    shift_s = phi_star_of(ps.components[0] + dpsi_star[0],
                          pu.components[0] + dpsi[0])
    dbs, dbu, dps, dpu = solvers.delta_phi_variants(
        spec, theta_star, theta, dpsi_star, dpsi)
    assert abs(dbu.components[0] - (shift_u - base_u)) <= 1e-14
    assert abs(dbs.components[0] - (shift_s - base_s)) <= 1e-14
    assert abs(dpu.components[0] - (shift_u - base_u - dpsi[0] / 2)) <= 1e-14
    assert abs(dps.components[0] - (shift_s - base_s - dpsi_star[0] / 2)) <= 1e-14


def test_delta_phi_linear_split_general():
    # the increment of the background equals the free response in the
    # source increment minus the free response in the interaction change
    spec = general_spec(rng_for(26), (3, 2, 1))
    rng = rng_for(126)
    psi_star = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    psi = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    dpsi_star = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    dpsi = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    b0s, b0u = solvers.newton_background(spec, psi_star, psi, tol=1e-13)
    b1s, b1u = solvers.newton_background(
        spec, psi_star + dpsi_star, psi + dpsi, tol=1e-13)
    d_phi0, d_phi_star0 = p_gradients(spec.p, b0s.components, b0u.components)
    d_phi1, d_phi_star1 = p_gradients(spec.p, b1s.components, b1u.components)
    rg, ks = spec.rg, spec.kernels
    lhs_u = b1u.components - b0u.components
    rhs_u = ks.s.entries @ (rg.qms_fq @ dpsi
                            - (d_phi_star1.components - d_phi_star0.components))
    lhs_s = b1s.components - b0s.components
    rhs_s = ks.s_star.entries @ (rg.qms_fq @ dpsi_star
                                 - (d_phi1.components - d_phi0.components))
    assert np.max(np.abs(lhs_u - rhs_u)) <= 1e-10
    assert np.max(np.abs(lhs_s - rhs_s)) <= 1e-10


def test_delta_phi_plus_series_scalar_coefficients():
    g = 0.1
    spec = scalar_reference_spec(g=g)
    theta = np.array([0.3 + 0j])
    theta_star = np.array([0.25 + 0j])
    _, pu = solvers.newton_critical(spec, theta_star, theta, tol=1e-14)
    z = pu.components[0]
    series = solvers.delta_phi_plus_series(spec, theta_star, theta, max_degree=3)
    # phi(z) = (sqrt(1+g z) - 1)/g, expanded around the critical source
    assert sc(series.unstarred.coeffs[(0, 1)]) == pytest.approx(
        0.5 / np.sqrt(1 + g * z) - 0.5, abs=1e-13)
    assert sc(series.unstarred.coeffs[(0, 2)]) == pytest.approx(
        -g / (8 * (1 + g * z) ** 1.5), abs=1e-13)
    for key, t in series.unstarred.coeffs.items():
        if key[0] != 0:
            assert np.max(np.abs(t)) <= 1e-15


def test_delta_phi_plus_series_matches_pointwise():
    spec = general_spec(rng_for(27), (3, 2, 1), max_cond=1e4)
    rng = rng_for(127)
    theta_star = 0.2 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    theta = 0.2 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    series = solvers.delta_phi_plus_series(spec, theta_star, theta, max_degree=4)
    direction_star = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    direction_star /= np.linalg.norm(direction_star)
    direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    direction /= np.linalg.norm(direction)

    def discrepancy(scale):
        ds, du = scale * direction_star, scale * direction
        _, _, dps, dpu = solvers.delta_phi_variants(
            spec, theta_star, theta, ds, du, tol=1e-14)
        sv, uv = series.evaluate(ds, du)
        return np.linalg.norm(np.concatenate([
            dps.components - sv.components, dpu.components - uv.components]))

    lo, hi = discrepancy(0.05), discrepancy(0.1)
    assert hi <= 1e-6
    ratio = hi / lo
    assert 2**4 <= ratio <= 2**6


# ---------------------------------------------------------------------------
# the quadratic-plus-remainder form of the action increment


def test_delta_a_p_zero_quadratic():
    spec = general_spec(rng_for(28), (3, 2, 1), bidegrees=())
    rng = rng_for(128)
    theta_star = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    theta = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    dpsi_star = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    dpsi = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    direct = solvers.delta_a_direct(spec, theta_star, theta, dpsi_star, dpsi)
    formula = solvers.delta_a_formula(spec, theta_star, theta, dpsi_star, dpsi)
    rg, ks = spec.rg, spec.kernels
    gram = spec.rg.space_mid.gram
    quad = dpsi_star @ gram @ (
        (ks.delta.entries + rg.b * rg.qs @ rg.q.entries) @ dpsi)
    assert abs(direct - quad) <= 1e-13
    assert abs(formula - quad) <= 1e-15


def test_delta_a_scalar_free():
    spec = scalar_reference_spec(g=0.0)
    dpsi_star = np.array([0.04 + 0j])
    dpsi = np.array([0.05 + 0j])
    theta = np.array([0.3 + 0j])
    direct = solvers.delta_a_direct(spec, theta, theta, dpsi_star, dpsi)
    # inverse fluctuation covariance is 3/2 for the unit scalar data
    assert abs(direct - 1.5 * dpsi_star[0] * dpsi[0]) <= 1e-15


def test_delta_a_formula_matches_direct():
    spec = general_spec(rng_for(29), (3, 2, 1),
                        bidegrees=((1, 2), (0, 3), (2, 2)), max_cond=1e4)
    rng = rng_for(129)

    def unit(n):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return z / np.linalg.norm(z)

    for _ in range(5):
        theta_star = 0.2 * unit(1)
        theta = 0.2 * unit(1)
        dpsi_star = 0.04 * unit(2)
        dpsi = 0.04 * unit(2)
        direct = solvers.delta_a_direct(spec, theta_star, theta,
                                        dpsi_star, dpsi)
        formula = solvers.delta_a_formula(spec, theta_star, theta,
                                          dpsi_star, dpsi, max_degree=4)
        assert abs(direct - formula) <= 1e-8


def test_delta_a_formula_scalar():
    spec = scalar_reference_spec(g=0.1)
    theta_star = np.array([0.25 + 0j])
    theta = np.array([0.3 + 0j])
    dpsi_star = np.array([0.04 + 0j])
    dpsi = np.array([0.05 + 0j])
    direct = solvers.delta_a_direct(spec, theta_star, theta, dpsi_star, dpsi)
    formula = solvers.delta_a_formula(spec, theta_star, theta,
                                      dpsi_star, dpsi, max_degree=6)
    assert abs(direct - formula) <= 1e-12


def test_delta_a_node_count_is_sufficient():
    # the default node count integrates the polynomial exactly, so adding
    # nodes does not move the value; a single node visibly does
    spec = general_spec(rng_for(30), (3, 2, 1),
                        bidegrees=((1, 2), (0, 3), (2, 2)), max_cond=1e4)
    rng = rng_for(130)
    theta_star = 0.2 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    theta = 0.2 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    dpsi_star = 0.15 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    dpsi = 0.15 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    args = (spec, theta_star, theta, dpsi_star, dpsi)
    default = solvers.delta_a_formula(*args, max_degree=4)
    more = solvers.delta_a_formula(*args, max_degree=4, nodes=8)
    crude = solvers.delta_a_formula(*args, max_degree=4, nodes=1)
    assert abs(default - more) <= 1e-14
    assert abs(default - crude) > 1e-12


def test_delta_a_first_order_vanishes():
    # the increment starts at second order because the base point is
    # critical for the effective action
    spec = general_spec(rng_for(31), (3, 2, 1), max_cond=1e4)
    rng = rng_for(131)
    theta_star = 0.2 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    theta = 0.2 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    dpsi_star = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    dpsi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    eps = 1e-4

    def at(scale):
        return solvers.delta_a_direct(spec, theta_star, theta,
                                      scale * dpsi_star, scale * dpsi)

    slope = (at(eps) - at(-eps)) / (2 * eps)
    assert abs(slope) <= 1e-7


def test_delta_a_callable_increment():
    # an exact increment oracle drives the formula to match the direct
    # value beyond series-truncation accuracy
    spec = general_spec(rng_for(32), (3, 2, 1),
                        bidegrees=((1, 2), (0, 3)), max_cond=1e4)
    rng = rng_for(132)
    theta_star = 0.2 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    theta = 0.2 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    dpsi_star = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    dpsi = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))

    def exact_increment(ds, du):
        _, _, dps, dpu = solvers.delta_phi_variants(
            spec, theta_star, theta, ds, du, tol=1e-14)
        return dps.components, dpu.components

    direct = solvers.delta_a_direct(spec, theta_star, theta, dpsi_star, dpsi)
    formula = solvers.delta_a_formula(
        spec, theta_star, theta, dpsi_star, dpsi,
        increment_plus=exact_increment, nodes=24)
    assert abs(direct - formula) <= 1e-11
