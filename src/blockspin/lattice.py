"""Finite torus lattices, block sublattices and averaging operators.

Sites are indexed in row-major order over the coordinate tuple, so the last
axis varies fastest.  A block scheme partitions the torus into axis-aligned
cells anchored at multiples of the block shape; the cell of coarse site Y
covers the fine sites Y*block + offset with offset in [0, block) per axis.

::

    extents (4, 4), block (2, 2):        coarse site (0, 1) covers
    +----+----+                          fine sites (0,2) (0,3)
    | 00 | 01 |                                     (1,2) (1,3)
    +----+----+
    | 10 | 11 |
    +----+----+
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import Operator, SpaceSpec


@dataclass(frozen=True)
class TorusLattice:
    extents: tuple[int, ...]

    def __post_init__(self):
        ext = tuple(int(e) for e in self.extents)
        if len(ext) == 0 or any(e < 1 for e in ext):
            raise ValueError(f"extents must be positive integers, got {self.extents}")
        object.__setattr__(self, "extents", ext)

    @property
    def ndim(self) -> int:
        return len(self.extents)

    @property
    def size(self) -> int:
        return int(np.prod(self.extents))

    def space(self) -> SpaceSpec:
        """Field space over the sites: one coordinate per site, identity form."""
        return SpaceSpec(self.size)

    def index(self, coords) -> int:
        coords = tuple(int(c) % e for c, e in zip(coords, self.extents, strict=True))
        return int(np.ravel_multi_index(coords, self.extents))

    def coords(self, index: int) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unravel_index(index, self.extents))


@dataclass(frozen=True)
class BlockScheme:
    """Block shape plus the averaging profile over one cell.

    The profile is stored flat in row-major order over the in-cell offsets.
    Its weights must sum to 1, so constants average to themselves.
    """

    block: tuple[int, ...]
    profile: np.ndarray | None = None

    def __post_init__(self):
        blk = tuple(int(b) for b in self.block)
        if len(blk) == 0 or any(b < 1 for b in blk):
            raise ValueError(f"block shape must be positive integers, got {self.block}")
        object.__setattr__(self, "block", blk)
        vol = int(np.prod(blk))
        if self.profile is None:
            prof = np.full(vol, 1.0 / vol)
        else:
            prof = np.asarray(self.profile, dtype=float).reshape(-1)
            if prof.shape != (vol,):
                raise ValueError(
                    f"profile has {prof.shape[0]} weights, block volume is {vol}"
                )
        if abs(prof.sum() - 1.0) > 1e-12:
            raise ValueError(f"profile weights sum to {prof.sum()!r}, expected 1")
        prof = prof.copy()
        prof.setflags(write=False)
        object.__setattr__(self, "profile", prof)

    @classmethod
    def decimation(cls, block) -> "BlockScheme":
        """Keep the cell's anchor site and drop the rest."""
        vol = int(np.prod(block))
        prof = np.zeros(vol)
        prof[0] = 1.0
        return cls(tuple(block), prof)


def sublattice(lat: TorusLattice, scheme: BlockScheme, step: int | None = None) -> TorusLattice:
    """The coarse torus with one site per block cell.

    Raises on divisibility failure; ``step`` is only used to label the error
    when called from build_tower.
    """
    if len(scheme.block) != lat.ndim:
        raise ValueError(
            f"block rank {len(scheme.block)} does not match lattice rank {lat.ndim}"
        )
    coarse = []
    for axis, (e, b) in enumerate(zip(lat.extents, scheme.block)):
        if e % b != 0:
            where = f" at tower step {step}" if step is not None else ""
            raise ValueError(
                f"extent {e} on axis {axis} is not divisible by block {b}{where}"
            )
        coarse.append(e // b)
    return TorusLattice(tuple(coarse))


def averaging_operator(lat: TorusLattice, scheme: BlockScheme) -> Operator:
    """The block-averaging map from fine fields to coarse fields.

    Row y holds the profile weights on the cell of coarse site y:
    (Q psi)(y) = sum_offset profile[offset] * psi(y*block + offset).
    """
    sub = sublattice(lat, scheme)
    entries = np.zeros((sub.size, lat.size))
    offsets = list(itertools.product(*(range(b) for b in scheme.block)))
    for y_index in range(sub.size):
        y = sub.coords(y_index)
        anchor = tuple(c * b for c, b in zip(y, scheme.block))
        for o_index, off in enumerate(offsets):
            x = tuple(a + o for a, o in zip(anchor, off))
            entries[y_index, lat.index(x)] += scheme.profile[o_index]
    return Operator(lat.space(), sub.space(), entries)


@dataclass(frozen=True)
class TowerLevel:
    lattice: TorusLattice
    step: Operator        # from the previous level to this one
    cumulative: Operator  # from level 0 straight to this one


def build_tower(lat: TorusLattice, scheme: BlockScheme, steps: int) -> list[TowerLevel]:
    """Iterate the same block scheme ``steps`` times.

    Level 0 is the starting lattice with identity operators; level k holds
    the averaging from level k-1 plus the composed map from level 0.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    ident = Operator.identity(lat.space())
    levels = [TowerLevel(lat, ident, ident)]
    current = lat
    for k in range(1, steps + 1):
        coarse = sublattice(current, scheme, step=k)
        q = averaging_operator(current, scheme)
        levels.append(TowerLevel(coarse, q, q @ levels[-1].cumulative))
        current = levels[-1].lattice
    return levels
