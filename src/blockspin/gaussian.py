"""Gaussian integral identities and their quadrature cross-checks.

Normalization: on a complexified space with bilinear form G the measure is
dmu = det(G) prod_x dRe phi(x) dIm phi(x) / pi, so the identity kernel
integrates to one and int exp(-<phi*, M phi>) dmu = 1/det(M).  Integrals
are evaluated on the conjugate slice phi* = conj(phi); shifting the starred
contour off the slice does not change the value (entire integrand, Gaussian
decay), which is what makes the source formula and the insertion constant
shift-independent.

The quadrature checks are deliberately restricted to one-dimensional spaces
with identity forms and real kernels.  That keeps the integration domain at
two real dimensions per field and lets the background and critical systems
be solved vectorized over whole node grids.
"""

from __future__ import annotations

from numbers import Integral, Real

import numpy as np

from .action import ActionSpec
from .errors import BlockspinError, ConvergenceError, QuadratureError
from .kernels import RGData, build_kernels, next_scale_delta
from .linalg import FieldVector, Operator, components, gated_solve

__all__ = [
    "gaussian_exact", "gaussian_source_exact", "insertion_constant",
    "prop_d_gaussian_check", "fluctuation_integral", "prop_d_quadrature_check",
]

# stopping rule of the batched Newton solves on the quadrature grids
_GRID_TOL, _GRID_MAX_ITER = 1e-12, 60


def _require_positive(space, entries: np.ndarray, what: str) -> float:
    # convergence on the conjugate slice needs Herm(G M) > 0
    h = space.gram @ entries
    h = 0.5 * (h + h.conj().T)
    low = float(np.linalg.eigvalsh(h)[0])
    if low <= 0.0:
        raise BlockspinError(
            f"{what}: hermitian part is not positive definite "
            f"(min eigenvalue {low:.3e}); the Gaussian integral diverges")
    return low


def gaussian_exact(m: Operator) -> complex:
    """Whole-space integral of exp(-<phi*, M phi>).

    The value is 1/det(M), independent of the bilinear form because the
    measure carries the compensating det(G).  M need not be symmetric or
    hermitian; convergence only needs the hermitian part of G M positive.
    """
    m.domain.require_compatible(m.codomain, "gaussian kernel spaces")
    _require_positive(m.domain, m.entries, "quadratic kernel")
    return 1.0 / complex(np.linalg.det(m.entries))


def gaussian_source_exact(m: Operator, j_star, k) -> complex:
    """Integral of exp(-<phi*, M phi> + <j_star, phi> + <phi*, k>).

    Completing the square shifts both contours and leaves
    det(M)^{-1} exp(<j_star, M^{-1} k>).
    """
    base = gaussian_exact(m)
    mk = gated_solve(m.entries, components(k), "gaussian kernel")
    shift = components(j_star) @ m.domain.gram @ mk
    return complex(base * np.exp(shift))


def insertion_constant(data: RGData, rng: np.random.Generator | None = None
                       ) -> tuple[float, float]:
    """Constant produced by inserting the coarse-field delta approximation:

        int dmu_plus exp(-b <theta* - w*, theta - w>) = b**(-dim_plus)

    independent of the shift pair (w*, w).  Returns the constant together
    with the largest relative departure over ten random shift pairs,
    which exercises the completed-square cancellation directly.
    """
    sp = data.space_plus
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=np.array([211, 7], dtype=np.uint64)))
    m = Operator(sp, sp, data.b * np.eye(sp.dim))
    base = gaussian_exact(m).real
    worst = 0.0
    for _ in range(10):
        w_star = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
        w = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
        val = gaussian_source_exact(m, FieldVector(sp, data.b * w_star),
                                    FieldVector(sp, data.b * w))
        val *= np.exp(-data.b * (w_star @ sp.gram @ w))
        worst = max(worst, abs(val - base) / base)
    return float(base), float(worst)


def prop_d_gaussian_check(data: RGData) -> dict:
    """Determinant form of the one-step Gaussian split:

        det(delta)^{-1} = b**dim_plus * det(delta_check)^{-1} * det(cov)

    Returns lhs, rhs and the relative residual.  The averaging map must
    have full row rank: with a degenerate q the coarse field decouples and
    the change of variables behind the identity has no inverse.
    """
    d_plus = data.space_plus.dim
    rank = int(np.linalg.matrix_rank(data.q.entries))
    if rank < d_plus:
        raise BlockspinError(
            f"averaging map q has row rank {rank} < dim {d_plus}; the "
            "coarse change of variables is degenerate")
    ks = build_kernels(data)
    dcheck = next_scale_delta(data, ks)
    _require_positive(data.space_mid, ks.delta.entries, "fluctuation kernel delta")
    _require_positive(data.space_plus, dcheck.entries, "next-scale delta")
    _require_positive(data.space_mid, ks.cov.entries, "covariance cov")
    lhs = 1.0 / complex(np.linalg.det(ks.delta.entries))
    rhs = (data.b ** d_plus * np.linalg.det(ks.cov.entries)
           / complex(np.linalg.det(dcheck.entries)))
    return {"lhs": lhs, "rhs": complex(rhs),
            "residual": float(abs(lhs - rhs) / abs(lhs))}


# ---------------------------------------------------------------------------
# scalar quadrature machinery (dims (1,1,1), identity forms, real kernels)

def _scalar_setup(spec: ActionSpec) -> tuple[dict, dict]:
    rg = spec.rg
    dims = (rg.space_minus.dim, rg.space_mid.dim, rg.space_plus.dim)
    if dims != (1, 1, 1):
        raise BlockspinError(f"quadrature mode needs dims (1, 1, 1), got {dims}")
    for name, sp in (("space_minus", rg.space_minus), ("space_mid", rg.space_mid),
                     ("space_plus", rg.space_plus)):
        if not np.allclose(sp.gram, np.eye(sp.dim), atol=1e-15):
            raise BlockspinError(f"quadrature mode needs the identity form on {name}")
    ks = spec.kernels
    maps = {"qm": rg.q_minus.entries, "q": rg.q.entries, "fq": rg.fq.entries,
            "d": rg.d.entries, "qc": ks.qcheck.entries, "qcm": rg.qcm,
            "cov": ks.cov.entries}
    raw = {k: complex(m[0, 0]) for k, m in maps.items()}
    for k, v in raw.items():
        if abs(v.imag) > 1e-14:
            raise BlockspinError(
                f"quadrature mode needs real kernels; {k} has imaginary part {v.imag:.3e}")
    sc = {k: float(v.real) for k, v in raw.items()}
    for k in ("fq", "d", "qc"):
        if sc[k] <= 0.0:
            raise BlockspinError(f"quadrature mode needs positive {k}, got {sc[k]:.3e}")
    sc["b"] = rg.b
    pc = {key: complex(np.asarray(t, dtype=complex).reshape(-1)[0])
          for key, t in spec.p.monomials.items()}
    return sc, pc


def _disc_grid(radii: dict, nodes) -> tuple:
    """The named disc radii and the node count of a grid, once checked."""
    for name, r in radii.items():
        if not (isinstance(r, Real) and 0 < r < np.inf):
            raise BlockspinError(f"{name} must be a finite positive number, got {r!r}")
    if not (isinstance(nodes, Integral) and nodes >= 1):
        raise BlockspinError(f"nodes_per_axis must be an integer >= 1, got {nodes!r}")
    return (*map(float, radii.values()), int(nodes))


def _diff_star(c: dict) -> dict:
    return {(a - 1, b): a * v for (a, b), v in c.items() if a}


def _diff_unstar(c: dict) -> dict:
    return {(a, b - 1): b * v for (a, b), v in c.items() if b}


def _poly_val(c: dict, z_star, z):
    total = np.zeros(np.broadcast(z_star, z).shape, dtype=complex)
    for (a, b) in sorted(c):
        total = total + c[(a, b)] * z_star ** a * z ** b
    return total


def _polar_grid(r_inner: float, r_outer: float, n_radial: int,
                n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and dmu-weights for an annulus in one complex plane.

    Gauss-Legendre radially, uniform angularly (exact for trigonometric
    polynomials); weights carry the rho dRe dIm / pi normalization.
    """
    x, w = np.polynomial.legendre.leggauss(int(n_radial))
    rho = 0.5 * (r_outer - r_inner) * (x + 1.0) + r_inner
    w_rad = 0.5 * (r_outer - r_inner) * w
    ang = 2.0 * np.pi * np.arange(int(n_angular)) / int(n_angular)
    pts = (rho[:, None] * np.exp(1j * ang)[None, :]).reshape(-1)
    wts = ((rho * w_rad)[:, None] * np.full((1, int(n_angular)), 2.0 / int(n_angular))).reshape(-1)
    return pts, wts


def _background_equations(sc: dict, pc: dict):
    """The pair of background equations on a node grid, for both grid solvers.

    Returns lin, drive, ``rows(phi_star, phi, f_star, f)``, the two residual
    rows against the drive terms, and ``jacobian(phi_star, phi)``, the
    entries (j11, j12, j21, j22) of their complex 2x2 Jacobian.  The system
    is polynomial in the independent unknowns, so the Jacobian is exact."""
    lin = sc["qm"] ** 2 * sc["fq"] + sc["d"]
    drive = sc["qm"] * sc["fq"]
    g_star = _diff_star(pc)      # d P / d phi*, drives the unstarred equation
    g_un = _diff_unstar(pc)      # d P / d phi, drives the starred equation
    g_ss, g_su = _diff_star(g_star), _diff_unstar(g_star)
    g_us, g_uu = _diff_star(g_un), _diff_unstar(g_un)

    def rows(phi_star, phi, f_star, f):
        return (lin * phi_star + _poly_val(g_un, phi_star, phi) - f_star,
                lin * phi + _poly_val(g_star, phi_star, phi) - f)

    def jacobian(phi_star, phi):
        return (lin + _poly_val(g_us, phi_star, phi), _poly_val(g_uu, phi_star, phi),
                _poly_val(g_ss, phi_star, phi), lin + _poly_val(g_su, phi_star, phi))

    return lin, drive, rows, jacobian


def _grid_newton(residual, step, z, what: str):
    """Newton vectorized over a node grid, from the unknowns ``z``:
    ``residual(z)`` is an array of every node's residual rows and
    ``step(z, r)`` the next unknowns.  Stops when the largest residual
    entry is within _GRID_TOL; a NaN anywhere reads as not converged."""
    res = np.inf
    for _ in range(_GRID_MAX_ITER):
        r = residual(z)
        res = float(np.abs(r).max())
        if res <= _GRID_TOL:
            return z
        z = step(z, r)
    raise ConvergenceError(
        f"{what} grid: no convergence after {_GRID_MAX_ITER} iterations "
        f"(max residual {res:.3e}, tolerance {_GRID_TOL:.3e})")


def _background_grid(sc: dict, pc: dict, psi_star, psi):
    """Newton on the pair of background equations, vectorized over nodes;
    the per-node solve is a closed-form Cramer step."""
    lin, drive, rows, jacobian = _background_equations(sc, pc)
    f_star = drive * psi_star
    f_un = drive * psi

    def step(z, r):
        (phi_star, phi), (r_star, r_un) = z, r
        j11, j12, j21, j22 = jacobian(phi_star, phi)
        det = j11 * j22 - j12 * j21
        return (phi_star - (j22 * r_star - j12 * r_un) / det,
                phi - (j11 * r_un - j21 * r_star) / det)

    return _grid_newton(lambda z: np.array(rows(*z, f_star, f_un)), step,
                        (f_star / lin, f_un / lin), "background")


def _critical_grid(sc: dict, pc: dict, theta_star, theta):
    """Joint Newton for (phi_star, phi, psi_star, psi) on a theta grid:
    the background pair coupled to the critical-field pair, solved batched.
    """
    b = sc["b"]
    lin, drive, rows, jacobian = _background_equations(sc, pc)
    cpl = sc["fq"] * sc["qm"]
    m_crit = b * sc["q"] ** 2 + sc["fq"]
    n = theta.size
    psi_star = b * sc["cov"] * sc["q"] * theta_star
    psi = b * sc["cov"] * sc["q"] * theta
    src_star = b * sc["q"] * theta_star
    src = b * sc["q"] * theta
    jac = np.zeros((n, 4, 4), dtype=complex)
    jac[:, 0, 2] = -drive
    jac[:, 1, 3] = -drive
    jac[:, 2, 0] = -cpl
    jac[:, 2, 2] = m_crit
    jac[:, 3, 1] = -cpl
    jac[:, 3, 3] = m_crit

    def residual(z):
        phi_star, phi, psi_star, psi = z
        r = np.empty((n, 4), dtype=complex)
        r[:, 0], r[:, 1] = rows(phi_star, phi, drive * psi_star, drive * psi)
        r[:, 2] = m_crit * psi_star - src_star - cpl * phi_star
        r[:, 3] = m_crit * psi - src - cpl * phi
        return r

    def step(z, r):
        jac[:, 0, 0], jac[:, 0, 1], jac[:, 1, 0], jac[:, 1, 1] = jacobian(*z[:2])
        dz = np.linalg.solve(jac, r[:, :, None])[:, :, 0]
        return tuple(v - dz[:, k] for k, v in enumerate(z))

    return _grid_newton(residual, step, (drive * psi_star / lin, drive * psi / lin,
                                         psi_star, psi), "critical")


def _coupling_rowsum(b: float, q: float, theta: np.ndarray, u: np.ndarray,
                     w_vals: np.ndarray) -> np.ndarray:
    """sum_u exp(-b |theta_j - q u|^2) w_vals[u], blocked over theta rows.

    Each block of at most 16 theta rows is the dense form
    ``np.exp(-b * np.abs(theta[:, None] - q u) ** 2) @ w_vals`` on those
    rows, so the temporaries stay 16 rows long whatever the grid's size.
    A row's bits do not depend on how many rows share the product, except
    that a one-row product takes numpy's dot path, whose bits differ.  So
    the rows split into spans of 256, the dense form's chunks, and no span
    is cut so as to leave a one-row block: only a span of one row gets one.
    """
    rows, span = 16, 256
    out = np.empty(theta.shape, dtype=complex)
    qu = q * u
    lo = 0
    while lo < theta.size:
        end = min(lo - lo % span + span, theta.size)
        hi = min(lo + rows, end)
        if end - hi == 1:
            hi -= 1
        out[lo:hi] = np.exp(-b * np.abs(theta[lo:hi, None] - qu) ** 2) @ w_vals
        lo = hi
    return out


def _fluctuation_weights(sc: dict, pc: dict, radius: float, n: int, e_cb):
    """Nodes u of the disc |u| <= radius and w_u exp(-A_full + E) at the
    background solved there."""
    qm, fq, d = sc["qm"], sc["fq"], sc["d"]
    u, w_u = _polar_grid(0.0, radius, n, n)
    u_star = np.conj(u)
    phs, ph = _background_grid(sc, pc, u_star, u)
    a_mid = ((u_star - qm * phs) * fq * (u - qm * ph)
             + phs * d * ph + _poly_val(pc, phs, ph))
    e_mid = e_cb(u_star, u) if e_cb is not None else 0.0
    return u, w_u * np.exp(-a_mid + e_mid)


def _critical_actions(sc: dict, pc: dict, th_star, th):
    """Next-scale and effective actions at the critical fields of each
    theta node, plus the critical middle pair."""
    b, q, qm, fq, d, qc, qcm = (sc["b"], sc["q"], sc["qm"], sc["fq"],
                                sc["d"], sc["qc"], sc["qcm"])
    cps, cp, pss, ps = _critical_grid(sc, pc, th_star, th)
    p_at_cp = _poly_val(pc, cps, cp)
    a_check = (th_star - qcm * cps) * qc * (th - qcm * cp) + cps * d * cp + p_at_cp
    a_eff = (b * (th_star - q * pss) * (th - q * ps)
             + (pss - qm * cps) * fq * (ps - qm * cp) + cps * d * cp + p_at_cp)
    return a_check, a_eff, pss, ps


def _split_pass(sc: dict, pc: dict, r_mid: float, r_plus: float, n: int,
                sigmas: float, e_cb) -> dict:
    b, q = sc["b"], sc["q"]
    u, w_vals = _fluctuation_weights(sc, pc, r_mid, n, e_cb)
    lhs = complex(np.sum(w_vals))

    # small field: critical re-centering inside |theta| <= r_plus
    th, w_th = _polar_grid(0.0, r_plus, n, n)
    th_star = np.conj(th)
    a_check, a_eff, pss, ps = _critical_actions(sc, pc, th_star, th)
    e_crit = e_cb(pss, ps) if e_cb is not None else np.zeros(th.shape)
    f_vals = np.exp(a_eff - e_crit) * _coupling_rowsum(b, q, th, u, w_vals)
    small = complex(np.sum(w_th * np.exp(-a_check + e_crit) * f_vals))

    # large field: bare coupling over the annulus out to the Gaussian tail
    r_cut = max(abs(q) * r_mid + sigmas / np.sqrt(b), r_plus)
    if r_cut > r_plus * (1.0 + 1e-12):
        ta, w_ta = _polar_grid(r_plus, r_cut, n, n)
        large = complex(np.sum(w_ta * _coupling_rowsum(b, q, ta, u, w_vals)))
    else:
        large = 0.0 + 0.0j
    return {"lhs": lhs, "rhs": b ** 1 * (small + large)}


def _rel_diff(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return float(abs(a - b) / scale)


def prop_d_quadrature_check(spec: ActionSpec, radii, nodes_per_axis: int = 64,
                            theta_cutoff_sigmas: float = 6.0,
                            tolerance: float = 1e-3, e_callback=None) -> dict:
    """Both sides of the one-step Gaussian split over finite discs.

    LHS integrates exp(-A + E) at the background over |psi| <= radii[0] on
    the conjugate slice.  RHS is b**dim_plus times the small-field piece
    (next-scale action, with the critically re-centered fluctuation
    integral F spelled out factor by factor) over |theta| <= radii[1],
    plus the large-field remainder over the annulus out to the tail cutoff
    |q| radii[0] + sigmas/sqrt(b).

    The split identity is exact for every radius pair, so all observed
    error is quadrature resolution plus the truncated tail.  A second pass
    at 1.5x the node count guards convergence: disagreement beyond
    tolerance/2 raises QuadratureError.  Returns the finer pass values,
    the relative lhs-rhs difference, and the node-consistency deviations.
    """
    sc, pc = _scalar_setup(spec)
    r_mid, r_plus, n = _disc_grid({"radii[0]": radii[0], "radii[1]": radii[1]}, nodes_per_axis)
    first = _split_pass(sc, pc, r_mid, r_plus, n, theta_cutoff_sigmas, e_callback)
    n_fine = int(np.ceil(1.5 * n))
    fine = _split_pass(sc, pc, r_mid, r_plus, n_fine, theta_cutoff_sigmas, e_callback)
    node_dev = {"lhs": _rel_diff(first["lhs"], fine["lhs"]),
                "rhs": _rel_diff(first["rhs"], fine["rhs"])}
    worst = max(node_dev.values())
    if worst > 0.5 * tolerance:
        raise QuadratureError(
            f"grids at {n} and {n_fine} nodes per axis disagree by "
            f"{worst:.3e} (allowed {0.5 * tolerance:.3e}); refine the grid "
            "or loosen the tolerance")
    rel = _rel_diff(fine["lhs"], fine["rhs"])
    return dict(fine, relative_difference=rel, within_tolerance=bool(rel <= tolerance),
                node_deviation=node_dev)


def fluctuation_integral(spec: ActionSpec, theta_star, theta,
                         radius: float | None = None, nodes_per_axis: int = 48) -> complex:
    """F(theta*, theta) = int exp(-delta_a) dmu over the domain of
    fluctuations around the critical point.

    radius None is the exact whole-space mode, available only for P = 0:
    the increment is the pure quadratic <dpsi*, cov^{-1} dpsi> and the
    integral equals det(cov).  With a radius the integral runs on the
    conjugate slice psi = u, psi* = conj(u) of the disc |u| <= radius and
    is the split's own factor: exp(A_eff) at the critical fields times the
    coupling sum of exp(-b |theta - q u|^2 - A_full) over the disc, with
    the critical and background fields from the split's grid Newton.
    """
    if radius is None:
        if not spec.p.is_zero:
            raise BlockspinError(
                "whole-space mode is exact only for P = 0; pass a radius to "
                "integrate the interacting increment")
        _require_positive(spec.rg.space_mid, spec.kernels.cov_inv.entries, "fluctuation form cov^{-1}")
        return complex(np.linalg.det(spec.kernels.cov.entries))
    radius, n = _disc_grid({"radius": radius}, nodes_per_axis)
    sc, pc = _scalar_setup(spec)
    ts = components(theta_star).astype(complex)
    tu = components(theta).astype(complex)
    if not np.allclose(ts, np.conj(tu), atol=1e-13):
        raise BlockspinError("quadrature runs on the conjugate slice; "
                             "theta_star must be the conjugate of theta")
    u, w_vals = _fluctuation_weights(sc, pc, radius, n, None)
    _, a_eff, _, _ = _critical_actions(sc, pc, ts, tu)
    f_vals = np.exp(a_eff) * _coupling_rowsum(sc["b"], sc["q"], tu, u, w_vals)
    return complex(f_vals[0])
