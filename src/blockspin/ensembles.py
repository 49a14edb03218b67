"""Seeded draw ensembles behind the verification suites.

All randomness flows through numpy's counter-based Philox bit generator,
keyed by the scenario seed and the crc32 of a short stream label.  Each
(seed, label) pair names a stream independent of every other label, and
the draw order inside each builder here is fixed and documented, so a
given configuration reproduces the same matrices bit for bit anywhere.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import tensorpoly as tp
from .action import ActionSpec, make_action_spec
from .errors import NearSingularError
from .kernels import RGData
from .linalg import FieldVector, Operator, SpaceSpec
from .poly import PolynomialP

__all__ = ["stream", "random_spd", "random_rg_data", "random_polynomial",
           "random_field", "unit_field", "random_spec"]


def stream(seed: int, label: str) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(zlib.crc32(label.encode()))],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """SPD draw: QR basis from one (n, n) normal block, then n log-uniform
    eigenvalues in exp(+-0.5)."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.exp(rng.uniform(-0.5, 0.5, size=n))
    m = (basis * vals) @ basis.T
    return 0.5 * (m + m.T)


def random_rg_data(rng: np.random.Generator, dims, b: float | None = None,
                   identity_grams: bool = True) -> RGData:
    """One blocking-step input draw.

    Draw order: grams for (minus, mid, plus) when not identity, then the
    fq core, the d core, q_minus, q, and finally b uniform in [0.5, 2]
    when not fixed.  Kernels are form-symmetric and positive by building
    them as gram^{-1} (SPD + I/2).
    """
    dm, dmid, dp = (int(x) for x in dims)
    if identity_grams:
        sm, smid, sp = SpaceSpec(dm), SpaceSpec(dmid), SpaceSpec(dp)
        fq_entries = random_spd(rng, dmid) + 0.5 * np.eye(dmid)
        d_entries = random_spd(rng, dm) + 0.5 * np.eye(dm)
    else:
        sm = SpaceSpec(dm, random_spd(rng, dm))
        smid = SpaceSpec(dmid, random_spd(rng, dmid))
        sp = SpaceSpec(dp, random_spd(rng, dp))
        fq_entries = np.linalg.solve(smid.gram, random_spd(rng, dmid) + 0.5 * np.eye(dmid))
        d_entries = np.linalg.solve(sm.gram, random_spd(rng, dm) + 0.5 * np.eye(dm))
    fq = Operator(smid, smid, fq_entries)
    d = Operator(sm, sm, d_entries)
    qm = Operator(sm, smid, rng.standard_normal((dmid, dm)))
    q = Operator(smid, sp, rng.standard_normal((dp, dmid)))
    if b is None:
        b = float(rng.uniform(0.5, 2.0))
    return RGData(space_minus=sm, space_mid=smid, space_plus=sp,
                  q_minus=qm, q=q, b=b, fq=fq, d=d)


def random_polynomial(rng: np.random.Generator, space: SpaceSpec, bidegrees,
                      scale: float = 0.3) -> PolynomialP:
    """Symmetrized complex tensor per bidegree, entries scale*(N + iN),
    drawn in the listed bidegree order (real block before imaginary)."""
    monomials = {}
    for (a, b) in bidegrees:
        shape = (space.dim,) * (a + b)
        t = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        monomials[(int(a), int(b))] = tp.symmetrize(t, a, b, leading_axes=0)
    return PolynomialP(space, monomials)


def random_field(rng: np.random.Generator, space: SpaceSpec,
                 scale: float = 1.0) -> FieldVector:
    z = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return FieldVector(space, scale * z)


def unit_field(rng: np.random.Generator, space: SpaceSpec,
               scale: float = 1.0) -> FieldVector:
    """Random direction of exact Euclidean norm ``scale``."""
    z = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return FieldVector(space, scale * z / np.linalg.norm(z))


def random_spec(rng: np.random.Generator, dims,
                bidegrees=((1, 2), (0, 3), (2, 2)), scale: float = 0.3,
                max_cond: float | None = None, identity_grams: bool = True
                ) -> ActionSpec:
    """Well-posed random scenario by rejection: redraw while the kernel
    construction trips a conditioning gate, or while any kernel condition
    number exceeds max_cond.  Rejected draws consume the stream, so the
    accepted one is reproducible."""
    while True:
        try:
            data = random_rg_data(rng, dims, identity_grams=identity_grams)
            p = random_polynomial(rng, data.space_minus, bidegrees, scale)
            spec = make_action_spec(data, p)
        except NearSingularError:
            continue
        if max_cond is not None and max(spec.kernels.diagnostics.values()) > max_cond:
            continue
        return spec
