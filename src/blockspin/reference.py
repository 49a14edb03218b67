"""The scalar reference model: every space one-dimensional, every input 1.

All derived kernels have small closed forms here (qcheck = 1/2, s = 1/2,
scheck = 2/3, delta = 1/2, cov = 2/3), which makes the model the standard
smoke test for anything built on top.  The interaction is g * phi_star *
phi**2 unless g is zero.
"""

from __future__ import annotations

import numpy as np

from .kernels import RGData
from .linalg import Operator, SpaceSpec


def scalar_reference_data(b: float = 1.0) -> RGData:
    s = SpaceSpec(1)
    one = Operator(s, s, np.eye(1))
    return RGData(space_minus=s, space_mid=s, space_plus=s,
                  q_minus=one, q=one, b=b, fq=one, d=one)


def scalar_reference_spec(g: float = 0.0):
    """ActionSpec for the scalar reference model; imported lazily to keep
    this module free of the action machinery for kernel-only callers."""
    from .action import make_action_spec
    from .poly import PolynomialP

    data = scalar_reference_data()
    if g == 0.0:
        p = PolynomialP.zero(data.space_minus)
    else:
        p = PolynomialP(data.space_minus,
                        {(1, 2): np.full((1, 1, 1), complex(g))})
    return make_action_spec(data, p)
