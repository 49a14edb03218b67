"""Quadratic kernels of one coarse-graining step and their identity suite.

The step is described by three spaces (fine, middle, coarse), two averaging
maps q_minus: fine -> middle and q: middle -> coarse, the positive weight b
of the coarse constraint term, the middle-space fluctuation form fq and the
fine-space quadratic kernel d.  From these the derived kernels are

    qcheck  = ((1/b) + q fq^{-1} q*)^{-1}          next-scale constraint form
    s       = (d + q_minus* fq q_minus)^{-1}       background Green's operator
    scheck  = (d + qcm* qcheck qcm)^{-1}           same one scale up
    delta   = fq - fq q_minus s q_minus* fq        fluctuation covariance (inverse of)
    cov     = (delta + b q* q)^{-1}                critical-step covariance

with qcm = q q_minus the composed averaging.  Starred variants replace d by
its pairing adjoint; for symmetric d the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlockspinError
from .linalg import (
    Operator,
    SpaceSpec,
    adjoint,
    cond,
    form_asymmetry,
    gate,
    gated_inverse,
    rel_opnorm,
)


@dataclass(frozen=True, eq=False)
class RGData:
    """Input data of one step; validated at construction."""

    space_minus: SpaceSpec
    space_mid: SpaceSpec
    space_plus: SpaceSpec
    q_minus: Operator
    q: Operator
    b: float
    fq: Operator
    d: Operator

    def __post_init__(self):
        object.__setattr__(self, "b", float(self.b))
        if not self.b > 0.0:
            raise ValueError(f"b must be positive, got {self.b}")
        self.q_minus.domain.require_compatible(self.space_minus, "q_minus domain")
        self.q_minus.codomain.require_compatible(self.space_mid, "q_minus codomain")
        self.q.domain.require_compatible(self.space_mid, "q domain")
        self.q.codomain.require_compatible(self.space_plus, "q codomain")
        self.fq.domain.require_compatible(self.space_mid, "fq")
        self.fq.codomain.require_compatible(self.space_mid, "fq")
        self.d.domain.require_compatible(self.space_minus, "d")
        self.d.codomain.require_compatible(self.space_minus, "d")
        if form_asymmetry(self.fq) > 1e-12:
            raise ValueError("fq must be symmetric for the pairing (within 1e-12)")
        h = self.space_mid.gram @ self.fq.entries
        if np.linalg.eigvalsh(0.5 * (h + h.conj().T)).min() <= 0.0:
            raise ValueError("fq must be positive definite for the pairing")
        # d is allowed to be non-symmetric; starred kernels use its adjoint

    def d_is_symmetric(self) -> bool:
        return form_asymmetry(self.d) <= 1e-12


def qcheck_recursion(data: RGData) -> Operator:
    """Next-scale constraint form, direct definition ((1/b) + q fq^{-1} q*)^{-1}."""
    qs = adjoint(data.q)
    fq_inv = gated_inverse(data.fq.entries, "fq")
    m = np.eye(data.space_plus.dim) / data.b + data.q.entries @ fq_inv @ qs.entries
    entries = gated_inverse(m, "(1/b) + q fq^{-1} q*")
    return Operator(data.space_plus, data.space_plus, entries)


def qcheck_alt(data: RGData) -> Operator:
    """Same kernel via the inner Schur factor: b (1 - b q (b q*q + fq)^{-1} q*)."""
    qs = adjoint(data.q)
    m = data.b * qs.entries @ data.q.entries + data.fq.entries
    y = np.linalg.solve(gate(m, "b q*q + fq"), qs.entries)
    entries = data.b * (np.eye(data.space_plus.dim) - data.b * data.q.entries @ y)
    return Operator(data.space_plus, data.space_plus, entries)


def greens(data: RGData, qcheck: Operator) -> tuple[Operator, Operator]:
    """Background Green's operators (s, scheck) of this scale and the next.

    ``qcheck`` does not depend on d, so one serves d and its adjoint.
    """
    qms = adjoint(data.q_minus)
    s_entries = gated_inverse(
        data.d.entries + qms.entries @ data.fq.entries @ data.q_minus.entries,
        "d + q_minus* fq q_minus")
    qcm = data.q @ data.q_minus
    qcms = adjoint(qcm)
    sc_entries = gated_inverse(
        data.d.entries + qcms.entries @ qcheck.entries @ qcm.entries,
        "d + qcm* qcheck qcm")
    sm = data.space_minus
    return Operator(sm, sm, s_entries), Operator(sm, sm, sc_entries)


def delta_cov(data: RGData, s: Operator) -> tuple[Operator, Operator]:
    """Fluctuation kernel delta and the covariance cov = (delta + b q*q)^{-1}."""
    qm = data.q_minus.entries
    qms = adjoint(data.q_minus).entries
    fqe = data.fq.entries
    delta_entries = fqe - fqe @ qm @ s.entries @ qms @ fqe
    qs = adjoint(data.q).entries
    cov_entries = gated_inverse(delta_entries + data.b * qs @ data.q.entries,
                                "delta + b q*q")
    mid = data.space_mid
    return Operator(mid, mid, delta_entries), Operator(mid, mid, cov_entries)


@dataclass(frozen=True, eq=False)
class KernelSet:
    """All derived kernels of one step, plus conditioning diagnostics."""

    qcheck: Operator
    s: Operator
    scheck: Operator
    delta: Operator
    cov: Operator
    diagnostics: dict = field(default_factory=dict)


def build_kernels(data: RGData) -> KernelSet:
    qchk = qcheck_recursion(data)
    s, scheck = greens(data, qchk)
    delta, cov = delta_cov(data, s)
    diagnostics = {
        "cond_fq": cond(data.fq),
        "cond_d": cond(data.d),
        "cond_qcheck": cond(qchk),
        "cond_s": cond(s),
        "cond_scheck": cond(scheck),
        "cond_delta": cond(delta),
        "cond_cov": cond(cov),
    }
    ks = KernelSet(qchk, s, scheck, delta, cov, diagnostics)
    asym = form_asymmetry(qchk)
    if asym > 1e-11:
        raise BlockspinError(
            f"qcheck is not symmetric for the pairing (deviation {asym:.3e}); "
            "the input data is inconsistent or too ill-conditioned")
    if data.d_is_symmetric():
        asym_cov = form_asymmetry(cov)
        if asym_cov > 1e-11:
            raise BlockspinError(
                f"cov is not symmetric for the pairing (deviation {asym_cov:.3e}) "
                "although d is symmetric")
    return ks


def starred_kernels(data: RGData, kernels: KernelSet | None = None
                    ) -> tuple[Operator, Operator, Operator, Operator]:
    """(s*, scheck*, delta*, cov*): the kernels built from the adjoint of d.

    These drive the starred field equations.  When adjoint(d) has the bits
    of d, they are the unstarred kernels, returned as they are.  qcheck
    does not involve d, so the one in ``kernels`` serves both.
    """
    if kernels is None:
        kernels = build_kernels(data)
    dstar = adjoint(data.d)
    if dstar.entries.tobytes() == data.d.entries.tobytes():
        return kernels.s, kernels.scheck, kernels.delta, kernels.cov
    data_star = RGData(data.space_minus, data.space_mid, data.space_plus,
                       data.q_minus, data.q, data.b, data.fq, dstar)
    s_star, scheck_star = greens(data_star, kernels.qcheck)
    delta_star, cov_star = delta_cov(data_star, s_star)
    return s_star, scheck_star, delta_star, cov_star


def next_scale_delta(data: RGData, kernels: KernelSet) -> Operator:
    """The coarse-space analogue of delta one scale up:
    qcheck - qcheck qcm scheck qcm* qcheck."""
    qcm = (data.q @ data.q_minus).entries
    qcms = adjoint(data.q @ data.q_minus).entries
    qc = kernels.qcheck.entries
    entries = qc - qc @ qcm @ kernels.scheck.entries @ qcms @ qc
    return Operator(data.space_plus, data.space_plus, entries)


def identity_suite(data: RGData, kernels: KernelSet | None = None) -> dict[str, float]:
    """Residuals of the five closed-form identities tying the kernels together.

    All of them assume d is invertible on top of the construction
    hypotheses; the gate raises NearSingularError if it is not.  Keys 'a'
    through 'e' follow the order: delta resolvent forms, s through delta,
    scheck through cov, cov through scheck, and the critical-step leading
    coefficient.  Each value is the worst relative spectral-norm residual
    of that identity's variants.
    """
    if kernels is None:
        kernels = build_kernels(data)
    dm = data.space_minus.dim
    d_inv = gated_inverse(data.d.entries,
                          "d (invertibility assumption of the kernel identity suite)")
    b = data.b
    fq = data.fq.entries
    qm = data.q_minus.entries
    qms = adjoint(data.q_minus).entries
    q = data.q.entries
    qs = adjoint(data.q).entries
    qcm = (data.q @ data.q_minus).entries
    qcms = adjoint(data.q @ data.q_minus).entries
    s = kernels.s.entries
    sc = kernels.scheck.entries
    delta = kernels.delta.entries
    cv = kernels.cov.entries
    qc = kernels.qcheck.entries
    dim_mid = data.space_mid.dim

    res: dict[str, float] = {}

    # (a) delta as a resolvent of fq, both orderings
    m_left = np.eye(dim_mid) + fq @ qm @ d_inv @ qms
    a1 = rel_opnorm(m_left @ delta - fq, fq)
    m_right = np.eye(dim_mid) + qm @ d_inv @ qms @ fq
    a2 = rel_opnorm(delta @ m_right - fq, fq)
    res["a"] = max(a1, a2)

    # (b) s recovered from delta
    s_from_delta = d_inv - d_inv @ qms @ delta @ qm @ d_inv
    res["b"] = rel_opnorm(s_from_delta - s, s)

    # (c) scheck from s and cov, in both resolvent and additive form
    m = gate(fq + b * qs @ q, "fq + b q*q")
    inner = qms @ fq @ np.linalg.solve(m, fq @ qm)
    sc_inv = gate(data.d.entries + qms @ fq @ qm - inner,
                  "s^{-1} - q_minus* fq (fq + b q*q)^{-1} fq q_minus")
    c1 = rel_opnorm(np.linalg.solve(sc_inv, np.eye(dm)) - sc, sc)
    sc_add = s + s @ qms @ fq @ cv @ fq @ qm @ s
    c2 = rel_opnorm(sc_add - sc, sc)
    res["c"] = max(c1, c2)

    # (d) cov from scheck
    m_inv = np.linalg.solve(m, np.eye(dim_mid))
    cov_add = m_inv + m_inv @ fq @ qm @ sc @ qms @ fq @ m_inv
    res["d"] = rel_opnorm(cov_add - cv, cv)

    # (e) leading coefficient of the critical step, unstarred and starred
    s_star, scheck_star, _, cov_star = starred_kernels(data, kernels)
    e_res = []
    for cvx, scx in ((cv, sc), (cov_star.entries, scheck_star.entries)):
        lhs = b * cvx @ qs
        rhs = np.linalg.solve(m, b * qs + fq @ qm @ scx @ qcms @ qc)
        e_res.append(rel_opnorm(lhs - rhs, lhs))
    res["e"] = max(e_res)
    return res
