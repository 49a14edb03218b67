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
from functools import cached_property

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
    """Input data of one step; validated at construction.

    The fixed maps of the step are derived on first use and kept read-only:
    the adjoints qms, qs, qcms and dstar of q_minus, q, qcm = q q_minus and
    d, fq_qm = fq q_minus, qms_fq = q_minus* fq, qms_fq_qm = q_minus* fq
    q_minus, crit_lhs = b q*q + fq and its gated inverse crit_inv.
    """

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
        return rel_opnorm(self.d.entries - self.dstar, self.d) <= 1e-12

    @cached_property
    def qms(self) -> np.ndarray:
        return adjoint(self.q_minus).entries

    @cached_property
    def qs(self) -> np.ndarray:
        return adjoint(self.q).entries

    @cached_property
    def qcm(self) -> np.ndarray:
        return (self.q @ self.q_minus).entries

    @cached_property
    def qcms(self) -> np.ndarray:
        return adjoint(Operator(self.space_minus, self.space_plus, self.qcm)).entries

    @cached_property
    def dstar(self) -> np.ndarray:
        return adjoint(self.d).entries

    @cached_property
    def fq_qm(self) -> np.ndarray:
        m = self.fq.entries @ self.q_minus.entries
        return Operator(self.space_minus, self.space_mid, m).entries

    @cached_property
    def qms_fq(self) -> np.ndarray:
        m = self.qms @ self.fq.entries
        return Operator(self.space_mid, self.space_minus, m).entries

    @cached_property
    def qms_fq_qm(self) -> np.ndarray:
        m = self.qms_fq @ self.q_minus.entries
        return Operator(self.space_minus, self.space_minus, m).entries

    @cached_property
    def crit_lhs(self) -> np.ndarray:
        m = self.b * self.qs @ self.q.entries + self.fq.entries
        return Operator(self.space_mid, self.space_mid, m).entries

    @cached_property
    def crit_inv(self) -> np.ndarray:
        inv = gated_inverse(self.crit_lhs, "b q*q + fq")
        return Operator(self.space_mid, self.space_mid, inv).entries


def qcheck_recursion(data: RGData) -> Operator:
    """Next-scale constraint form, direct definition ((1/b) + q fq^{-1} q*)^{-1}."""
    fq_inv = gated_inverse(data.fq.entries, "fq")
    m = np.eye(data.space_plus.dim) / data.b + data.q.entries @ fq_inv @ data.qs
    entries = gated_inverse(m, "(1/b) + q fq^{-1} q*")
    return Operator(data.space_plus, data.space_plus, entries)


def qcheck_alt(data: RGData) -> Operator:
    """Same kernel via the inner Schur factor: b (1 - b q (b q*q + fq)^{-1} q*)."""
    y = np.linalg.solve(gate(data.crit_lhs, "b q*q + fq"), data.qs)
    entries = data.b * (np.eye(data.space_plus.dim) - data.b * data.q.entries @ y)
    return Operator(data.space_plus, data.space_plus, entries)


def _d_kernels(data: RGData, d: np.ndarray, qcheck: Operator) -> tuple[Operator, ...]:
    """(s, scheck, delta, cov_inv, cov) built on ``d``, which is data.d or
    its adjoint; cov_inv = delta + b q*q is the form inverted into cov."""
    fqe = data.fq.entries
    qm = data.q_minus.entries
    s = gated_inverse(d + data.qms_fq_qm, "d + q_minus* fq q_minus")
    scheck = gated_inverse(d + data.qcms @ qcheck.entries @ data.qcm, "d + qcm* qcheck qcm")
    delta = fqe - fqe @ qm @ s @ data.qms @ fqe
    cov_inv = delta + data.b * data.qs @ data.q.entries
    cov = gated_inverse(cov_inv, "delta + b q*q")
    sm, mid = data.space_minus, data.space_mid
    return (Operator(sm, sm, s), Operator(sm, sm, scheck), Operator(mid, mid, delta),
            Operator(mid, mid, cov_inv), Operator(mid, mid, cov))


@dataclass(frozen=True, eq=False)
class KernelSet:
    """All derived kernels of one step, plus conditioning diagnostics.

    cov_inv = delta + b q*q is the form inverted into cov.  The starred
    kernels s_star, scheck_star, delta_star and cov_star (built on the
    adjoint of d, see ``starred_kernels``) and qc_star, the adjoint of
    qcheck, are derived from ``rg`` on first use and kept.
    """

    rg: RGData = field(repr=False)
    qcheck: Operator
    s: Operator
    scheck: Operator
    delta: Operator
    cov_inv: Operator
    cov: Operator
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def _starred(self) -> tuple[Operator, Operator, Operator, Operator]:
        return starred_kernels(self.rg, self)

    @property
    def s_star(self) -> Operator:
        return self._starred[0]

    @property
    def scheck_star(self) -> Operator:
        return self._starred[1]

    @property
    def delta_star(self) -> Operator:
        return self._starred[2]

    @property
    def cov_star(self) -> Operator:
        return self._starred[3]

    @cached_property
    def qc_star(self) -> Operator:
        return adjoint(self.qcheck)


def build_kernels(data: RGData) -> KernelSet:
    qchk = qcheck_recursion(data)
    s, scheck, delta, cov_inv, cov = _d_kernels(data, data.d.entries, qchk)
    diagnostics = {
        "cond_fq": cond(data.fq),
        "cond_d": cond(data.d),
        "cond_qcheck": cond(qchk),
        "cond_s": cond(s),
        "cond_scheck": cond(scheck),
        "cond_delta": cond(delta),
        "cond_cov": cond(cov),
    }
    ks = KernelSet(data, qchk, s, scheck, delta, cov_inv, cov, diagnostics)
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
    if data.dstar.tobytes() == data.d.entries.tobytes():
        return kernels.s, kernels.scheck, kernels.delta, kernels.cov
    s, scheck, delta, _, cov = _d_kernels(data, data.dstar, kernels.qcheck)
    return s, scheck, delta, cov


def next_scale_delta(data: RGData, kernels: KernelSet) -> Operator:
    """The coarse-space analogue of delta one scale up:
    qcheck - qcheck qcm scheck qcm* qcheck."""
    qc = kernels.qcheck.entries
    entries = qc - qc @ data.qcm @ kernels.scheck.entries @ data.qcms @ qc
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
    qm, qms, qs, qcms = data.q_minus.entries, data.qms, data.qs, data.qcms
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
    m = gate(data.crit_lhs, "fq + b q*q")
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
    e_res = []
    for cvx, scx in ((cv, sc), (kernels.cov_star.entries, kernels.scheck_star.entries)):
        lhs = b * cvx @ qs
        rhs = np.linalg.solve(m, b * qs + fq @ qm @ scx @ qcms @ qc)
        e_res.append(rel_opnorm(lhs - rhs, lhs))
    res["e"] = max(e_res)
    return res
