"""Field solvers: formal power series and Newton iterations.

Two solution families appear throughout.  The background pair solves the
fine-space equations

    phi_(*) = s^(*) qm* fq psi_(*) - s^(*) P'_(*)(phi_star, phi)

for given middle sources, and the critical pair solves

    (b q*q + fq) psi_(*) = b q* theta_(*) + fq qm phi_(*)bg(psi_star, psi)

for given coarse sources.  The next-scale pair solves the background-type
equation one scale up (s -> scheck, qm -> qcm, fq -> qcheck).  All three
are solved jointly over the starred/unstarred pair, one total degree at a
time; interactions with quadratic monomials couple the pair at equal
degree, which shows up as a 2x2 block solve below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorpoly as tp
from .action import ActionSpec, effective_action, grad_base_action
from .errors import ConvergenceError
from .linalg import (
    FieldVector,
    SpaceSpec,
    components,
    gated_solve,
    pairing,
)
from .series import FormalSeries, SeriesPair, compose_pair, series_difference_norms


# ---------------------------------------------------------------------------
# formal power series solvers


@dataclass(frozen=True, eq=False)
class _GradedSystem:
    """The field equation lhs X_(*) = drive_(*) + feed_(*) outer_(*)(X_star, X)
    of a series pair; the drives enter at bidegree (1, 0) starred and (0, 1)
    unstarred, and the outer maps have no constant term."""

    lhs: np.ndarray
    drive_star: np.ndarray
    drive: np.ndarray
    feed_star: np.ndarray
    feed: np.ndarray
    outer_star: dict
    outer: dict
    input_space: SpaceSpec
    target_space: SpaceSpec


def _background_system(spec: ActionSpec, g_unstar_map: dict | None = None,
                       g_star_map: dict | None = None) -> _GradedSystem:
    """The background equation; the starred member is driven by the
    unstarred-slot gradient and vice versa.  Custom gradient maps (with
    linear parts) re-center it around a solved point."""
    rg, ks = spec.rg, spec.kernels
    if g_unstar_map is None:
        g_unstar_map = spec.p.grad_unstar_coeffs()
    if g_star_map is None:
        g_star_map = spec.p.grad_star_coeffs()
    s_star, s = ks.s_star.entries, ks.s.entries
    return _GradedSystem(np.eye(rg.space_minus.dim),
                         s_star @ rg.qms_fq, s @ rg.qms_fq,
                         -s_star, -s, g_unstar_map, g_star_map,
                         rg.space_mid, rg.space_minus)


def _nextscale_system(spec: ActionSpec) -> _GradedSystem:
    """The background equation one scale up: s -> scheck, qm* fq -> qcm* qcheck."""
    rg, ks = spec.rg, spec.kernels
    scheck_star, scheck, qc = ks.scheck_star.entries, ks.scheck.entries, ks.qcheck.entries
    # qcheck is form-symmetric, so the starred drive uses the same matrix
    return _GradedSystem(np.eye(rg.space_minus.dim),
                         scheck_star @ rg.qcms @ qc,
                         scheck @ rg.qcms @ qc,
                         -scheck_star, -scheck,
                         spec.p.grad_unstar_coeffs(), spec.p.grad_star_coeffs(),
                         rg.space_plus, rg.space_minus)


def _critical_system(spec: ActionSpec, background: SeriesPair) -> _GradedSystem:
    """The critical equation, with the background series as its outer map."""
    rg = spec.rg
    drive = rg.b * rg.qs
    return _GradedSystem(rg.crit_lhs, drive, drive, rg.fq_qm, rg.fq_qm,
                         background.starred.coeffs, background.unstarred.coeffs,
                         rg.space_plus, rg.space_mid)


def _paired_block_solve(block: np.ndarray, k_star: np.ndarray, k_unstar: np.ndarray,
                        assumption: str):
    """Solve the 2x2 block system coupling a starred/unstarred tensor pair.

    The tensors share their trailing shape; the block matrix acts on the
    stacked output axis.
    """
    dim = k_star.shape[0]
    rest = k_star.shape[1:]
    rhs = np.concatenate([k_star.reshape(dim, -1), k_unstar.reshape(dim, -1)], axis=0)
    sol = gated_solve(block, rhs, assumption)
    return sol[:dim].reshape((dim,) + rest), sol[dim:].reshape((dim,) + rest)


def _graded_solve(eq: _GradedSystem, max_order: int, assumption: str) -> SeriesPair:
    """Solve a field equation one total degree at a time.

    The degree-one parts of the outer maps fold into the 2x2 block; the
    rest only sees coefficients of lower degree, so each bidegree is one
    gated block solve.
    """
    dim = eq.target_space.dim
    in_dim = eq.input_space.dim
    zero = np.zeros((eq.feed.shape[1], dim), dtype=complex)
    a11, a12, a21, a22 = (np.asarray(outer.get(key, zero), dtype=complex)
                          for outer in (eq.outer_star, eq.outer)
                          for key in ((1, 0), (0, 1)))
    block = np.block([
        [eq.lhs - eq.feed_star @ a11, -eq.feed_star @ a12],
        [-eq.feed @ a21, eq.lhs - eq.feed @ a22],
    ])
    high_star = {k: v for k, v in sorted(eq.outer_star.items()) if k[0] + k[1] >= 2}
    high_unstar = {k: v for k, v in sorted(eq.outer.items()) if k[0] + k[1] >= 2}

    coeffs_star: dict = {}
    coeffs_unstar: dict = {}
    for n in range(1, max_order + 1):
        rhs_star: dict = {(1, 0): eq.drive_star} if n == 1 else {}
        rhs_unstar: dict = {(0, 1): eq.drive} if n == 1 else {}
        for rhs, feed, high in ((rhs_star, eq.feed_star, high_star),
                                (rhs_unstar, eq.feed, high_unstar)):
            if not high:
                continue
            comp = tp.compose(high, coeffs_star, coeffs_unstar, n)
            for key, t in sorted(comp.items()):
                if key[0] + key[1] == n:
                    tp.add_into(rhs, key, tp._dot_axis(feed, t, 1))
        for key in sorted(set(rhs_star) | set(rhs_unstar)):
            empty = np.zeros((dim,) + (in_dim,) * (key[0] + key[1]), dtype=complex)
            coeffs_star[key], coeffs_unstar[key] = _paired_block_solve(
                block, rhs_star.get(key, empty), rhs_unstar.get(key, empty), assumption)
    return SeriesPair(FormalSeries(eq.input_space, eq.target_space, max_order, coeffs_star),
                      FormalSeries(eq.input_space, eq.target_space, max_order, coeffs_unstar))


def fps_background(spec: ActionSpec, max_order: int = 4) -> SeriesPair:
    """Background pair as a series in the middle sources (psi_star, psi)."""
    return _graded_solve(_background_system(spec), max_order,
                         "1 + s^(*) P' (degree-two interaction coupling)")


def fps_nextscale(spec: ActionSpec, max_order: int = 4) -> SeriesPair:
    """Next-scale background pair as a series in the coarse sources."""
    return _graded_solve(_nextscale_system(spec), max_order,
                         "1 + scheck^(*) P' (degree-two interaction coupling)")


def fps_critical(spec: ActionSpec, background: SeriesPair | None = None,
                 max_order: int = 4) -> SeriesPair:
    """Critical middle pair as a series in the coarse sources (theta_star, theta)."""
    if background is None:
        background = fps_background(spec, max_order)
    return _graded_solve(_critical_system(spec, background), max_order,
                         "b q*q + fq - fq qm L (linearized critical system)")


def compose_cp(background: SeriesPair, critical: SeriesPair, max_order: int = 4) -> SeriesPair:
    """Background series evaluated on the critical series: the composed
    next-scale background in the coarse sources."""
    return compose_pair(background, critical, max_order)


def verify_composition(spec: ActionSpec, max_order: int = 4) -> dict:
    """Coefficientwise comparison of the composed and directly solved
    next-scale background series."""
    bg = fps_background(spec, max_order)
    cr = fps_critical(spec, bg, max_order)
    cp = compose_cp(bg, cr, max_order)
    ns = fps_nextscale(spec, max_order)
    res_star = series_difference_norms(cp.starred, ns.starred)
    res_unstar = series_difference_norms(cp.unstarred, ns.unstarred)
    worst = max([*res_star.values(), *res_unstar.values()], default=0.0)
    return {"max_residual": worst}


def verify_crit_representation(spec: ActionSpec, max_order: int = 4) -> dict:
    """Check that the critical series satisfies its closed representation:
    psi_(*)cr = (b q*q + fq)^{-1} (b q* theta_(*) + fq qm phicheck_(*)cp),
    and that its degree-one block is the covariance form b cov^(*) q*."""
    bg = fps_background(spec, max_order)
    cr = fps_critical(spec, bg, max_order)
    cp = compose_cp(bg, cr, max_order)
    rg, ks = spec.rg, spec.kernels
    lhs_inv = rg.crit_inv
    drive = rg.b * lhs_inv @ rg.qs
    rhs_star = tp.apply_matrix(lhs_inv @ rg.fq_qm, cp.starred.coeffs)
    rhs_unstar = tp.apply_matrix(lhs_inv @ rg.fq_qm, cp.unstarred.coeffs)
    tp.add_into(rhs_star, (1, 0), drive.astype(complex))
    tp.add_into(rhs_unstar, (0, 1), drive.astype(complex))
    sp, smid = rg.space_plus, rg.space_mid
    res_star = series_difference_norms(
        cr.starred, FormalSeries(sp, smid, max_order, rhs_star))
    res_unstar = series_difference_norms(
        cr.unstarred, FormalSeries(sp, smid, max_order, rhs_unstar))
    lead_star = cr.starred.coefficient(1, 0) - rg.b * ks.cov_star.entries @ rg.qs
    lead_unstar = cr.unstarred.coefficient(0, 1) - rg.b * ks.cov.entries @ rg.qs
    worst = max([*res_star.values(), *res_unstar.values()], default=0.0)
    return {
        "max_residual": worst,
        "leading_vs_covariance": max(
            float(np.linalg.norm(lead_star, 2)), float(np.linalg.norm(lead_unstar, 2))),
    }


# ---------------------------------------------------------------------------
# Newton solvers


def background_residual(spec: ActionSpec, phi_star, phi, psi_star, psi
                        ) -> tuple[FieldVector, FieldVector]:
    """Residual pair of the fine-space stationarity equations."""
    rg = spec.rg
    fs, fu = components(phi_star), components(phi)
    g_star, g_unstar = grad_base_action(spec, phi_star, phi)
    r_star = rg.qms_fq_qm @ fs + g_unstar.components - rg.qms_fq @ components(psi_star)
    r_unstar = rg.qms_fq_qm @ fu + g_star.components - rg.qms_fq @ components(psi)
    return FieldVector(rg.space_minus, r_star), FieldVector(rg.space_minus, r_unstar)


def _background_jacobian(spec: ActionSpec, fs: np.ndarray, fu: np.ndarray) -> np.ndarray:
    rg = spec.rg
    dm = rg.space_minus.dim
    core = rg.qms_fq_qm
    ju_s, ju_u = tp.jacobians(spec.p.grad_unstar_coeffs(), fs, fu, dm, dm)
    js_s, js_u = tp.jacobians(spec.p.grad_star_coeffs(), fs, fu, dm, dm)
    jac = np.empty((2 * dm, 2 * dm), dtype=complex)
    jac[:dm, :dm] = core + rg.dstar + ju_s
    jac[:dm, dm:] = ju_u
    jac[dm:, :dm] = js_s
    jac[dm:, dm:] = core + rg.d.entries + js_u
    return jac


def _damped_newton(residual, jacobian, z0: np.ndarray, tol: float, max_iter: int,
                   what: str) -> np.ndarray:
    """Newton iteration with step halving; residual is measured sup-norm.

    ``residual(z)`` returns the residual and a state that the jacobian at
    the same iterate reuses: ``jacobian(z, state)``.
    """
    z = z0.copy()
    r, state = residual(z)
    best = float(np.abs(r).max(initial=0.0))
    for _ in range(max_iter):
        if best <= tol:
            return z
        step = gated_solve(jacobian(z, state), -r, f"{what} jacobian")
        scale = 1.0
        for _ in range(20):
            z_try = z + scale * step
            r_try, state_try = residual(z_try)
            n_try = float(np.abs(r_try).max(initial=0.0))
            if n_try < best:
                z, r, state, best = z_try, r_try, state_try, n_try
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                f"{what}: residual stalled at {best:.3e} (tolerance {tol:.3e})")
    if best <= tol:
        return z
    raise ConvergenceError(
        f"{what}: no convergence after {max_iter} iterations "
        f"(residual {best:.3e}, tolerance {tol:.3e})")


def newton_background(spec: ActionSpec, psi_star, psi, tol: float = 1e-12,
                      max_iter: int = 50) -> tuple[FieldVector, FieldVector]:
    """Solve the background equations at one middle-source point.

    Starts from the linear-response solution, which is already exact for a
    vanishing interaction.
    """
    rg, ks = spec.rg, spec.kernels
    dm = rg.space_minus.dim
    ps, pu = components(psi_star), components(psi)
    z0 = np.concatenate([ks.s_star.entries @ rg.qms_fq @ ps, ks.s.entries @ rg.qms_fq @ pu])

    def residual(z):
        r_star, r_unstar = background_residual(spec, z[:dm], z[dm:], ps, pu)
        return np.concatenate([r_star.components, r_unstar.components]), None

    def jacobian(z, _):
        return _background_jacobian(spec, z[:dm], z[dm:])

    z = _damped_newton(residual, jacobian, z0, tol, max_iter, "background solve")
    return FieldVector(rg.space_minus, z[:dm]), FieldVector(rg.space_minus, z[dm:])


def critical_residual(spec: ActionSpec, psi_star, psi, theta_star, theta
                      ) -> tuple[FieldVector, FieldVector]:
    """Residual of the critical equations; solves the inner background to 1e-13."""
    smid = spec.rg.space_mid
    r_star, r_unstar, _ = _critical_residual_and_background(
        spec, psi_star, psi, theta_star, theta, 1e-13)
    return FieldVector(smid, r_star), FieldVector(smid, r_unstar)


def _critical_residual_and_background(spec, psi_star, psi, theta_star, theta, tol):
    """The critical residual pair, plus the inner background solution it used."""
    rg = spec.rg
    ps, pu = components(psi_star), components(psi)
    phi_star, phi = newton_background(spec, ps, pu, tol=tol)
    r_star = (rg.crit_lhs @ ps - rg.b * rg.qs @ components(theta_star)
              - rg.fq_qm @ phi_star.components)
    r_unstar = (rg.crit_lhs @ pu - rg.b * rg.qs @ components(theta)
                - rg.fq_qm @ phi.components)
    return r_star, r_unstar, (phi_star, phi)


def newton_critical(spec: ActionSpec, theta_star, theta, tol: float = 1e-12
                    ) -> tuple[FieldVector, FieldVector]:
    """Solve the critical equations at one coarse-source point.

    The residual solves the inner background problem at each iterate and
    the jacobian at that iterate reuses it; its derivative enters the outer
    jacobian through the implicit function theorem.
    """
    rg, ks = spec.rg, spec.kernels
    d = rg.space_mid.dim
    dm = rg.space_minus.dim
    b = rg.b
    ts, tu = components(theta_star), components(theta)
    inner_tol = min(tol * 1e-1, 1e-13)
    z0 = np.concatenate([b * ks.cov_star.entries @ rg.qs @ ts, b * ks.cov.entries @ rg.qs @ tu])

    def residual(z):
        r_star, r_unstar, bg = _critical_residual_and_background(
            spec, z[:d], z[d:], ts, tu, inner_tol)
        return np.concatenate([r_star, r_unstar]), bg

    def jacobian(z, bg):
        phi_star, phi = bg
        j_bg = _background_jacobian(spec, phi_star.components, phi.components)
        src = np.zeros((2 * dm, 2 * d), dtype=complex)
        src[:dm, :d] = rg.qms_fq
        src[dm:, d:] = rg.qms_fq
        dphi_dpsi = gated_solve(j_bg, src, "background jacobian")
        jac = np.zeros((2 * d, 2 * d), dtype=complex)
        jac[:d, :d] = rg.crit_lhs
        jac[d:, d:] = rg.crit_lhs
        jac[:d, :] -= rg.fq_qm @ dphi_dpsi[:dm, :]
        jac[d:, :] -= rg.fq_qm @ dphi_dpsi[dm:, :]
        return jac

    z = _damped_newton(residual, jacobian, z0, tol, 50, "critical solve")
    return FieldVector(rg.space_mid, z[:d]), FieldVector(rg.space_mid, z[d:])


# ---------------------------------------------------------------------------
# increment fields and the action increment


def delta_phi_variants(spec: ActionSpec, theta_star, theta, dpsi_star, dpsi,
                       tol: float = 1e-13):
    """The two increment fields induced by a middle-field fluctuation.

    Returns (d_bg_star, d_bg, d_plus_star, d_plus): the raw background
    increments between the shifted and critical points, and the same with
    the linear response to the fluctuation removed.
    """
    psi_star_cr, psi_cr, phi_star_base, phi_base = _critical_base(spec, theta_star, theta, tol)
    rg, ks = spec.rg, spec.kernels
    sm = rg.space_minus
    shift_star, shift = newton_background(
        spec, psi_star_cr + components(dpsi_star), psi_cr + components(dpsi),
        tol=tol)
    d_bg_star = FieldVector(sm, shift_star.components - phi_star_base)
    d_bg = FieldVector(sm, shift.components - phi_base)
    lin_star = ks.s_star.entries @ rg.qms_fq @ components(dpsi_star)
    lin = ks.s.entries @ rg.qms_fq @ components(dpsi)
    d_plus_star = FieldVector(sm, d_bg_star.components - lin_star)
    d_plus = FieldVector(sm, d_bg.components - lin)
    return d_bg_star, d_bg, d_plus_star, d_plus


def _critical_base(spec, theta_star, theta, tol):
    psi_star_cr, psi_cr = newton_critical(spec, theta_star, theta, tol=tol)
    phi_star_base, phi_base = newton_background(spec, psi_star_cr, psi_cr, tol=tol)
    return (psi_star_cr.components, psi_cr.components,
            phi_star_base.components, phi_base.components)


def delta_a_direct(spec: ActionSpec, theta_star, theta, dpsi_star, dpsi) -> complex:
    """Action increment by direct evaluation at shifted and critical fields,
    each solved to 1e-13."""
    psi_star_cr, psi_cr, phi_star_base, phi_base = _critical_base(spec, theta_star, theta, 1e-13)
    ps = psi_star_cr + components(dpsi_star)
    pu = psi_cr + components(dpsi)
    phi_star_shift, phi_shift = newton_background(spec, ps, pu, tol=1e-13)
    shifted = effective_action(spec, theta_star, theta, ps, pu,
                               phi_star_shift, phi_shift)
    base = effective_action(spec, theta_star, theta, psi_star_cr, psi_cr,
                            phi_star_base, phi_base)
    return shifted - base


def delta_phi_plus_series(spec: ActionSpec, theta_star, theta, max_degree: int = 4
                          ) -> SeriesPair:
    """Truncated series of the nonlinear background increment around the
    critical point, whose fields are solved to 1e-13.

    Re-centering the background equation at the critical base turns the
    interaction gradients into polynomials in (dpsi_star, dpsi) whose
    coefficients are trailing contractions against the base fields; the
    same per-degree recursion then applies, and subtracting the linear
    response s^(*) qm* fq dpsi_(*) leaves the increment the line-integral
    formula needs.
    """
    _, _, phi_star_base, phi_base = _critical_base(spec, theta_star, theta, 1e-13)
    gu = tp.shift_map(spec.p.grad_unstar_coeffs(), phi_star_base, phi_base)
    gs = tp.shift_map(spec.p.grad_star_coeffs(), phi_star_base, phi_base)
    gu.pop((0, 0), None)
    gs.pop((0, 0), None)
    eq = _background_system(spec, gu, gs)
    pair = _graded_solve(
        eq, max_degree,
        "1 + s^(*) (re-centered interaction) (degree-two interaction coupling)")
    coeffs_star = dict(pair.starred.coeffs)
    coeffs_unstar = dict(pair.unstarred.coeffs)
    tp.add_into(coeffs_star, (1, 0), -eq.drive_star)
    tp.add_into(coeffs_unstar, (0, 1), -eq.drive)
    return SeriesPair(FormalSeries(eq.input_space, eq.target_space, max_degree, coeffs_star),
                      FormalSeries(eq.input_space, eq.target_space, max_degree, coeffs_unstar))


def delta_a_formula(spec: ActionSpec, theta_star, theta, dpsi_star, dpsi,
                    max_degree: int = 4, nodes: int | None = None,
                    increment_plus=None) -> complex:
    """Action increment through the quadratic-plus-line-integral identity:

        delta_a = <dpsi_star, (delta + b q*q) dpsi>
                  - int_0^1 <dpsi_star, fq qm d_plus(t dpsi_star, t dpsi)> dt
                  - int_0^1 <fq qm d_plus_star(t dpsi_star, t dpsi), dpsi> dt

    The increment d_plus is evaluated from its degree-``max_degree`` series
    around the critical point, so the integrand is a polynomial in t and
    ceil((max_degree+1)/2) Gauss-Legendre nodes integrate it exactly; the
    only approximation left is the series truncation.  ``increment_plus``
    overrides the evaluator: a SeriesPair or a callable
    (dpsi_star, dpsi) -> (d_plus_star, d_plus).
    """
    rg = spec.rg
    smid = rg.space_mid
    ds = components(dpsi_star)
    du = components(dpsi)
    value = pairing(FieldVector(smid, ds), spec.kernels.cov_inv.apply(du))
    if increment_plus is None:
        increment_plus = delta_phi_plus_series(spec, theta_star, theta, max_degree)
    if isinstance(increment_plus, SeriesPair):
        series = increment_plus

        def increment_plus(ts, tu):
            return series.evaluate(ts, tu)

    if nodes is None:
        nodes = max(1, (max_degree + 2) // 2)
    x, w = np.polynomial.legendre.leggauss(nodes)
    t_nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    correction = 0.0 + 0.0j
    for t, wt in zip(t_nodes, weights):
        d_plus_star, d_plus = increment_plus(t * ds, t * du)
        correction += wt * (ds @ smid.gram @ (rg.fq_qm @ components(d_plus)))
        correction += wt * ((rg.fq_qm @ components(d_plus_star)) @ smid.gram @ du)
    return complex(value - correction)


# ---------------------------------------------------------------------------
# series residual checks against the defining equations


def _graded_residuals(eq: _GradedSystem, pair: SeriesPair) -> dict:
    """Per-bidegree norms of lhs X_(*) - drive_(*) - feed_(*) outer_(*)(X_star, X)."""
    out = {}
    for label, x, feed, outer, key, drive in (
            ("starred", pair.starred, eq.feed_star, eq.outer_star, (1, 0), eq.drive_star),
            ("unstarred", pair.unstarred, eq.feed, eq.outer, (0, 1), eq.drive)):
        res = tp.apply_matrix(eq.lhs, x.coeffs)
        if outer:
            comp = tp.compose(outer, pair.starred.coeffs, pair.unstarred.coeffs,
                              pair.max_order)
            for k, t in sorted(comp.items()):
                tp.add_into(res, k, -tp._dot_axis(feed, t, 1))
        tp.add_into(res, key, -drive)
        for k, t in sorted(res.items()):
            out[f"{label} ({k[0]},{k[1]})"] = float(np.linalg.norm(t.reshape(-1)))
    return out


def background_series_residuals(spec: ActionSpec, pair: SeriesPair) -> dict:
    """Per-bidegree norms of the fine-space fixed-point equation residual."""
    return _graded_residuals(_background_system(spec), pair)


def nextscale_series_residuals(spec: ActionSpec, pair: SeriesPair) -> dict:
    """Per-bidegree norms of the coarse-space fixed-point equation residual."""
    return _graded_residuals(_nextscale_system(spec), pair)


def critical_series_residuals(spec: ActionSpec, background: SeriesPair,
                              critical: SeriesPair) -> dict:
    """Per-bidegree norms of the stationarity system for the middle pair,
    with the fine pair substituted."""
    return _graded_residuals(_critical_system(spec, background), critical)
