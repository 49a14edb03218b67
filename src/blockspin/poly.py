"""Polynomial interactions on the fine space.

A PolynomialP is a scalar-valued polynomial in the pair (phi_star, phi)
with no constant or linear part; each monomial block of bidegree
(kstar, k) is a dense complex tensor, symmetric within its slot groups.

The two gradients are taken with respect to the bilinear pairing:
grad_unstar is defined by <h, grad_unstar> = d/dt P(phi_star, phi + t h),
and grad_star by <h, grad_star> = d/dt P(phi_star + t h, phi).  With the
star-swap convention used by the field equations, grad_unstar plays the
role of the starred drive and grad_star the unstarred one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensorpoly as tp
from .linalg import FieldVector, SpaceSpec, components


@dataclass(frozen=True, eq=False)
class PolynomialP:
    space: SpaceSpec
    monomials: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key in sorted(self.monomials):
            kstar, k = int(key[0]), int(key[1])
            if kstar < 0 or k < 0 or kstar + k < 2:
                raise ValueError(
                    f"monomial bidegree {key} invalid: total degree must be >= 2")
            t = np.asarray(self.monomials[key], dtype=complex)
            want = (self.space.dim,) * (kstar + k)
            if t.shape != want:
                raise ValueError(
                    f"monomial {key} has shape {t.shape}, expected {want}")
            defect = tp.symmetry_defect(t, kstar, k, leading_axes=0)
            if defect > 1e-13:
                raise ValueError(
                    f"monomial {key} is not symmetric within slot groups "
                    f"(deviation {defect:.3e}); symmetrize it first")
            if np.any(t != 0):
                clean[(kstar, k)] = t
        object.__setattr__(self, "monomials", clean)
        gram_inv = np.linalg.inv(self.space.gram)
        object.__setattr__(self, "_grad_star", _gradient_map(clean, gram_inv, starred=True))
        object.__setattr__(self, "_grad_unstar", _gradient_map(clean, gram_inv, starred=False))

    @classmethod
    def zero(cls, space: SpaceSpec) -> "PolynomialP":
        return cls(space, {})

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def value(self, phi_star, phi) -> complex:
        return complex(tp.eval_map(self.monomials, components(phi_star),
                                   components(phi), self.space.dim, leading_axes=0))

    def grad_star_coeffs(self) -> dict:
        """Coefficient map of the gradient in the starred argument."""
        return self._grad_star

    def grad_unstar_coeffs(self) -> dict:
        """Coefficient map of the gradient in the unstarred argument."""
        return self._grad_unstar


def _gradient_map(monomials: dict, gram_inv: np.ndarray, starred: bool) -> dict:
    out: dict = {}
    for (a, b) in sorted(monomials):
        # free the last slot of the group and contract it with gram_inv
        mult, axis, key = (a, a - 1, (a - 1, b)) if starred else (b, a + b - 1, (a, b - 1))
        if mult:
            moved = np.moveaxis(monomials[(a, b)], axis, 0)
            tp.add_into(out, key, mult * tp._dot_axis(gram_inv, moved, 1))
    return {k: v for k, v in sorted(out.items())}


def p_gradients(p: PolynomialP, phi_star, phi) -> tuple[FieldVector, FieldVector]:
    """(grad wrt phi, grad wrt phi_star) at a point.

    The first is the starred drive P'_* and the second the unstarred
    drive P' of the field equations.
    """
    us, u = components(phi_star), components(phi)
    d_phi = tp.eval_map(p.grad_unstar_coeffs(), us, u, p.space.dim)
    d_phi_star = tp.eval_map(p.grad_star_coeffs(), us, u, p.space.dim)
    return FieldVector(p.space, d_phi), FieldVector(p.space, d_phi_star)


def _require(ok: bool, where: str, what: str) -> None:
    if not ok:
        raise ValueError(f"polynomial {where}: {what}")


def _is_index(v, bound: float = math.inf) -> bool:
    return type(v) is int and 0 <= v < bound  # a json integer, never a bool


def load_polynomial(records, space: SpaceSpec) -> PolynomialP:
    """Build P from the records of a polynomial file (its parsed json): a
    list of monomial blocks with sparse entries.

    Each record holds kstar, k and entries [{multi_index_star, multi_index,
    re, im}].  Entries accumulate, and the assembled tensor is symmetrized,
    so listing a coefficient on one index ordering is enough.
    """
    if not isinstance(records, list):
        raise ValueError("polynomial file must hold a list of monomial records")
    monomials: dict = {}
    for n, rec in enumerate(records):
        where = f"record {n}"
        _require(isinstance(rec, dict), where, "need an object")
        for key in ("kstar", "k"):
            _require(_is_index(rec.get(key)), where, f"'{key}' needs a nonnegative integer")
        kstar, k = rec["kstar"], rec["k"]
        entries = rec.get("entries", [])
        _require(isinstance(entries, list), where, "'entries' needs a list")
        t = np.zeros((space.dim,) * (kstar + k), dtype=complex)
        for m, ent in enumerate(entries):
            at = f"{where} entry {m}"
            _require(isinstance(ent, dict), at, "need an object")
            idx = []
            for key, length in (("multi_index_star", kstar), ("multi_index", k)):
                part = ent.get(key, [])
                _require(isinstance(part, list) and len(part) == length
                         and all(_is_index(i, space.dim) for i in part), at,
                         f"'{key}' needs {length} indices in [0, {space.dim})")
                idx += part
            for key in ("re", "im"):
                v = ent.get(key, 0.0)
                _require(type(v) in (int, float) and math.isfinite(v), at,
                         f"'{key}' needs a finite real number")
            t[tuple(idx)] += float(ent.get("re", 0.0)) + 1j * float(ent.get("im", 0.0))
        t = tp.symmetrize(t, kstar, k, leading_axes=0)
        tp.add_into(monomials, (kstar, k), t)
    return PolynomialP(space, monomials)


def dump_polynomial(p: PolynomialP) -> list:
    """Inverse of load_polynomial, listing every nonzero tensor entry."""
    records = []
    for (kstar, k) in sorted(p.monomials):
        t = p.monomials[(kstar, k)]
        entries = []
        for idx in np.ndindex(t.shape):
            v = t[idx]
            if v != 0:
                entries.append({
                    "multi_index_star": list(idx[:kstar]),
                    "multi_index": list(idx[kstar:]),
                    "re": float(v.real),
                    "im": float(v.imag),
                })
        records.append({"kstar": kstar, "k": k, "entries": entries})
    return records
