"""Truncated formal power series of field maps.

A FormalSeries maps a pair of inputs (ustar, u) from one space into a
target space, as a sum of multilinear blocks graded by bidegree.  There is
never a constant term: solutions of the field equations vanish at zero
source, and the solvers rely on that triangularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensorpoly as tp
from .errors import SpaceMismatchError
from .linalg import FieldVector, SpaceSpec, components


@dataclass(frozen=True, eq=False)
class FormalSeries:
    input_space: SpaceSpec
    target_space: SpaceSpec
    max_order: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max_order must be at least 1")
        clean = {}
        for key in sorted(self.coeffs):
            kstar, k = int(key[0]), int(key[1])
            if kstar + k < 1:
                raise ValueError("a series has no constant term")
            if kstar + k > self.max_order:
                continue
            t = np.asarray(self.coeffs[key], dtype=complex)
            want = ((self.target_space.dim,)
                    + (self.input_space.dim,) * kstar + (self.input_space.dim,) * k)
            if t.shape != want:
                raise SpaceMismatchError(
                    f"coefficient {key} has shape {t.shape}, expected {want}")
            if tp.symmetry_defect(t, kstar, k) > 1e-13:
                raise ValueError(f"coefficient {key} is not slot-group symmetric")
            clean[(kstar, k)] = t
        object.__setattr__(self, "coeffs", clean)

    def evaluate(self, ustar, u) -> FieldVector:
        val = tp.eval_map(self.coeffs, components(ustar), components(u),
                          self.target_space.dim)
        return FieldVector(self.target_space, val)

    def coefficient(self, kstar: int, k: int) -> np.ndarray:
        """The block at one bidegree; zeros if absent."""
        key = (kstar, k)
        if key in self.coeffs:
            return self.coeffs[key]
        return np.zeros((self.target_space.dim,)
                        + (self.input_space.dim,) * kstar
                        + (self.input_space.dim,) * k, dtype=complex)


@dataclass(frozen=True, eq=False)
class SeriesPair:
    """A starred and an unstarred series with common spaces and order.

    The starred member expands the starred solution field, the unstarred
    member the unstarred one; both take the full source pair as input.
    """

    starred: FormalSeries
    unstarred: FormalSeries

    def __post_init__(self):
        self.starred.input_space.require_compatible(
            self.unstarred.input_space, "series pair input")
        self.starred.target_space.require_compatible(
            self.unstarred.target_space, "series pair target")
        if self.starred.max_order != self.unstarred.max_order:
            raise ValueError("series pair members must share max_order")

    @property
    def max_order(self) -> int:
        return self.starred.max_order

    def evaluate(self, ustar, u) -> tuple[FieldVector, FieldVector]:
        return self.starred.evaluate(ustar, u), self.unstarred.evaluate(ustar, u)


def compose_pair(outer: SeriesPair, inner: SeriesPair, max_order: int) -> SeriesPair:
    """Substitute ``inner`` into both members of ``outer``.

    outer maps (v_star, v) -> target, inner maps (w_star, w) -> v-space;
    the result maps (w_star, w) -> target, truncated at max_order.
    """
    outer.starred.input_space.require_compatible(
        inner.starred.target_space, "series composition")
    star = tp.compose(outer.starred.coeffs, inner.starred.coeffs,
                      inner.unstarred.coeffs, max_order)
    unstar = tp.compose(outer.unstarred.coeffs, inner.starred.coeffs,
                        inner.unstarred.coeffs, max_order)
    ispace = inner.starred.input_space
    tspace = outer.starred.target_space
    return SeriesPair(FormalSeries(ispace, tspace, max_order, star),
                      FormalSeries(ispace, tspace, max_order, unstar))


def series_difference_norms(a: FormalSeries, b: FormalSeries) -> dict:
    """Per-bidegree Frobenius distances, relative with a floor of one."""
    keys = sorted(set(a.coeffs) | set(b.coeffs))
    out = {}
    for key in keys:
        d = a.coefficient(*key) - b.coefficient(*key)
        ref = max(1.0, float(np.linalg.norm(b.coefficient(*key).reshape(-1))))
        out[key] = float(np.linalg.norm(d.reshape(-1))) / ref
    return out

