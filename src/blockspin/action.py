"""Actions of one coarse-graining step, their gradients, and the
preparation identity.

The base action on the fine space is

    base(phi_star, phi) = <phi_star, d phi> + P(phi_star, phi)

and the three composite actions stack constraint terms on top of it:

    full  = <psi_star - qm phi_star, fq (psi - qm phi)> + base
    eff   = b <theta_star - q psi_star, theta - q psi> + full
    next  = <theta_star - qcm phi_star, qcheck (theta - qcm phi)> + base

Gradients are always taken with respect to the bilinear pairing of the
relevant space, so every gradient is again a field vector there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSet, RGData, build_kernels
from .linalg import FieldVector, components, gated_solve, pairing
from .poly import PolynomialP, p_gradients


@dataclass(frozen=True, eq=False)
class ActionSpec:
    """RG data plus the interaction polynomial plus the derived kernels.

    The fixed maps of the step live on ``rg`` and the kernels on
    ``kernels``.  The starred kernels are built here, so a step whose
    adjoint-of-d kernels fail a conditioning gate is rejected at
    construction.
    """

    rg: RGData
    p: PolynomialP
    kernels: KernelSet

    def __post_init__(self):
        self.p.space.require_compatible(self.rg.space_minus, "interaction polynomial")
        # derive the starred kernels now, so their gates reject an ill-posed step here
        self.kernels.s_star

    @property
    def spaces(self):
        return self.rg.space_minus, self.rg.space_mid, self.rg.space_plus


def make_action_spec(rg: RGData, p: PolynomialP | None = None) -> ActionSpec:
    if p is None:
        p = PolynomialP.zero(rg.space_minus)
    return ActionSpec(rg, p, build_kernels(rg))


def base_action(spec: ActionSpec, phi_star, phi) -> complex:
    rg = spec.rg
    val = pairing(FieldVector(rg.space_minus, components(phi_star)),
                  rg.d.apply(phi))
    return val + spec.p.value(phi_star, phi)


def full_action(spec: ActionSpec, psi_star, psi, phi_star, phi) -> complex:
    rg = spec.rg
    r_star = components(psi_star) - rg.q_minus.entries @ components(phi_star)
    r = components(psi) - rg.q_minus.entries @ components(phi)
    fluct = r_star @ rg.space_mid.gram @ (rg.fq.entries @ r)
    return complex(fluct) + base_action(spec, phi_star, phi)


def effective_action(spec: ActionSpec, theta_star, theta, psi_star, psi,
                     phi_star, phi) -> complex:
    rg = spec.rg
    t_star = components(theta_star) - rg.q.entries @ components(psi_star)
    t = components(theta) - rg.q.entries @ components(psi)
    coarse = rg.b * (t_star @ rg.space_plus.gram @ t)
    return complex(coarse) + full_action(spec, psi_star, psi, phi_star, phi)


def next_action(spec: ActionSpec, theta_star, theta, phi_star, phi) -> complex:
    rg = spec.rg
    t_star = components(theta_star) - rg.qcm @ components(phi_star)
    t = components(theta) - rg.qcm @ components(phi)
    coarse = t_star @ rg.space_plus.gram @ (spec.kernels.qcheck.entries @ t)
    return complex(coarse) + base_action(spec, phi_star, phi)


def grad_base_action(spec: ActionSpec, phi_star, phi) -> tuple[FieldVector, FieldVector]:
    """(grad wrt phi_star, grad wrt phi) of the base action."""
    d_phi, d_phi_star = p_gradients(spec.p, phi_star, phi)
    rg = spec.rg
    wrt_star = FieldVector(rg.space_minus, rg.d.entries @ components(phi) + d_phi_star.components)
    wrt_unstar = FieldVector(rg.space_minus, rg.dstar @ components(phi_star) + d_phi.components)
    return wrt_star, wrt_unstar


def grad_full_action(spec: ActionSpec, psi_star, psi, phi_star, phi) -> dict:
    """Gradients with respect to all four arguments, keyed by name."""
    rg = spec.rg
    sm, smid, _ = spec.spaces
    ps, pu = components(psi_star), components(psi)
    fs, fu = components(phi_star), components(phi)
    r_star = ps - rg.q_minus.entries @ fs
    r = pu - rg.q_minus.entries @ fu
    g_star, g_unstar = grad_base_action(spec, phi_star, phi)
    return {
        "psi_star": FieldVector(smid, rg.fq.entries @ r),
        "psi": FieldVector(smid, rg.fq.entries @ r_star),
        "phi_star": FieldVector(sm, -rg.qms_fq @ r + g_star.components),
        "phi": FieldVector(sm, -rg.qms_fq @ r_star + g_unstar.components),
    }


def grad_effective_action(spec: ActionSpec, theta_star, theta, psi_star, psi,
                          phi_star, phi) -> dict:
    rg = spec.rg
    b = rg.b
    sm, smid, sp = spec.spaces
    ts, tu = components(theta_star), components(theta)
    ps, pu = components(psi_star), components(psi)
    t_star = ts - rg.q.entries @ ps
    t = tu - rg.q.entries @ pu
    inner = grad_full_action(spec, psi_star, psi, phi_star, phi)
    return {
        "theta_star": FieldVector(sp, b * t),
        "theta": FieldVector(sp, b * t_star),
        "psi_star": FieldVector(smid, -b * rg.qs @ t + inner["psi_star"].components),
        "psi": FieldVector(smid, -b * rg.qs @ t_star + inner["psi"].components),
        "phi_star": inner["phi_star"],
        "phi": inner["phi"],
    }


def grad_next_action(spec: ActionSpec, theta_star, theta, phi_star, phi) -> dict:
    rg = spec.rg
    qc, qc_star = spec.kernels.qcheck.entries, spec.kernels.qc_star.entries
    sm, _, sp = spec.spaces
    ts, tu = components(theta_star), components(theta)
    fs, fu = components(phi_star), components(phi)
    t_star = ts - rg.qcm @ fs
    t = tu - rg.qcm @ fu
    g_star, g_unstar = grad_base_action(spec, phi_star, phi)
    return {
        "theta_star": FieldVector(sp, qc @ t),
        "theta": FieldVector(sp, qc_star @ t_star),
        "phi_star": FieldVector(sm, -rg.qcms @ qc @ t + g_star.components),
        "phi": FieldVector(sm, -rg.qcms @ qc_star @ t_star + g_unstar.components),
    }


def psi_tilde(spec: ActionSpec, theta, phi) -> FieldVector:
    """The middle field interpolating a coarse source and a fine background:
    (b q*q + fq)^{-1} (b q* theta + fq qm phi).

    The same formula serves the starred pair; pass starred inputs to get it.
    """
    rg = spec.rg
    rhs = rg.b * rg.qs @ components(theta) + rg.fq_qm @ components(phi)
    out = gated_solve(rg.crit_lhs, rhs, "b q*q + fq")
    return FieldVector(rg.space_mid, out)


def preparation_check(spec: ActionSpec, theta_star, theta, phi_star, phi
                      ) -> tuple[float, float]:
    """Residuals of the two preparation statements at one point.

    First: the next action equals the effective action evaluated on the
    interpolating middle fields.  Second: the fine-space gradients of the
    two sides differ exactly by the middle-field chain-rule term.  Both
    residuals are relative, floored at scale one.
    """
    pt = psi_tilde(spec, theta, phi)
    pt_star = psi_tilde(spec, theta_star, phi_star)

    lhs = next_action(spec, theta_star, theta, phi_star, phi)
    rhs = effective_action(spec, theta_star, theta, pt_star, pt, phi_star, phi)
    value_residual = abs(lhs - rhs) / max(1.0, abs(lhs))

    g_next = grad_next_action(spec, theta_star, theta, phi_star, phi)
    g_full = grad_full_action(spec, pt_star, pt, phi_star, phi)
    g_eff = grad_effective_action(spec, theta_star, theta, pt_star, pt, phi_star, phi)
    chain = spec.rg.qms_fq @ spec.rg.crit_inv
    res = 0.0
    scale = 1.0
    for slot, eff_slot in (("phi_star", "psi_star"), ("phi", "psi")):
        lhs_g = g_next[slot].components
        rhs_g = g_full[slot].components + chain @ g_eff[eff_slot].components
        res = max(res, float(np.linalg.norm(lhs_g - rhs_g)))
        scale = max(scale, float(np.linalg.norm(lhs_g)))
    return value_residual, res / scale

