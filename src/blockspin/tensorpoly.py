"""Dense tensor machinery for bidegree-graded polynomials.

A coefficient map is a dict keyed by bidegree (kstar, k) whose values are
complex arrays.  For vector-valued maps the array has shape

    (out_dim,) + (in_dim,)*kstar + (in_dim,)*k

with the output axis first, then the starred slots, then the unstarred
slots.  Scalar-valued maps drop the output axis.  Coefficients are kept
symmetric within each slot group; evaluation plugs the same starred vector
into every starred slot and likewise for the unstarred ones, so symmetry
is a normal form rather than a restriction.

All iteration over dict keys is sorted.  That fixes the floating-point
accumulation order, which keeps repeated runs (and runs fed the same
monomials in a different order) bitwise identical.  ``_dot_axis`` is the
package's one tensor contraction, here and in ``poly`` and ``solvers``.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from math import comb, factorial, prod

import numpy as np


def sym_axes(t: np.ndarray, start: int, count: int) -> np.ndarray:
    """Average over all permutations of ``count`` axes beginning at ``start``.

    Built up one axis at a time: with the first m axes already symmetric,
    averaging over swapping axis m into each of the m+1 slots extends the
    symmetry.  That is O(count^2) transposes instead of count! of them.
    """
    if count < 2:
        return t
    for m in range(1, count):
        tail = start + m
        acc = t.copy()
        for i in range(start, tail):
            order = list(range(t.ndim))
            order[i], order[tail] = order[tail], order[i]
            acc += t.transpose(order)
        t = acc / (m + 1)
    return t


def symmetrize(t: np.ndarray, kstar: int, k: int, leading_axes: int = 1) -> np.ndarray:
    t = sym_axes(t, leading_axes, kstar)
    return sym_axes(t, leading_axes + kstar, k)


def symmetry_defect(t: np.ndarray, kstar: int, k: int, leading_axes: int = 1) -> float:
    s = symmetrize(t, kstar, k, leading_axes)
    scale = max(1.0, float(np.abs(t).max(initial=0.0)))
    return float(np.abs(t - s).max(initial=0.0)) / scale


def _dot_axis(a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """Contract axis ``axis`` of ``a`` with the first axis of ``b``: numpy's
    one-pair tensor contraction (the same transpose, reshapes and ``np.dot``
    call on the same views, so the same bits) without its argument handling.
    The transpose is skipped when ``axis`` is last, where it is the identity."""
    n, outer, tail = a.shape[axis], a.shape[:axis] + a.shape[axis + 1:], b.shape[1:]
    if axis != a.ndim - 1:
        a = a.transpose((*range(axis), *range(axis + 1, a.ndim), axis))
    return np.dot(a.reshape(prod(outer), n), b.reshape(n, prod(tail))).reshape(outer + tail)


def _chain(t: np.ndarray, kstar: int, k: int, ustar: np.ndarray, u: np.ndarray):
    """Yield t, then t after each contraction in turn: u into the unstarred
    slots, then ustar into the starred ones, always the last axis.  Entry
    kstar + k is the value; the jacobians read entries kstar + k - 1 and
    k - 1."""
    yield t
    for v in (u,) * k + (ustar,) * kstar:
        t = _dot_axis(t, v, t.ndim - 1)
        yield t


def _chains(coeffs: dict, ustar: np.ndarray, u: np.ndarray, drop: int = 0) -> dict:
    """Each key's ``_chain`` as a list, in sorted key order, without its
    last ``drop`` entries (which are then never computed)."""
    return {(a, b): list(itertools.islice(_chain(coeffs[(a, b)], a, b, ustar, u),
                                          a + b + 1 - drop))
            for (a, b) in sorted(coeffs)}


def _chain_value(chains: dict, out_dim: int, leading_axes: int = 1):
    """The map's value from its full chains: the sum of their last entries."""
    if leading_axes:
        total = np.zeros(out_dim, dtype=complex)
    else:
        total = 0.0 + 0.0j
    for chain in chains.values():
        total = total + (chain[-1] if leading_axes else complex(chain[-1]))
    return total


def _chain_jacobians(chains: dict, ustar: np.ndarray, out_dim: int, in_dim: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``jacobians`` from chains at the point (full, or without their last
    entry): d/d_ustar reads entry a + b - 1 of key (a, b), and d/d_u plugs
    ustar into the starred slots of entry b - 1."""
    j_star = np.zeros((out_dim, in_dim), dtype=complex)
    j_u = np.zeros((out_dim, in_dim), dtype=complex)
    for (a, b), chain in chains.items():
        if a >= 1:
            j_star += a * chain[a + b - 1]
        if b >= 1:
            m = chain[b - 1]
            for _ in range(a):
                m = _dot_axis(m, ustar, 1)
            j_u += b * m
    return j_star, j_u


def eval_map(coeffs: dict, ustar: np.ndarray, u: np.ndarray, out_dim: int,
             leading_axes: int = 1):
    """Evaluate a coefficient map at a point."""
    return _chain_value(_chains(coeffs, ustar, u), out_dim, leading_axes)


def jacobians(coeffs: dict, ustar: np.ndarray, u: np.ndarray, out_dim: int,
              in_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of a vector-valued map with respect to both arguments.

    Returns (d/d_ustar, d/d_u) as (out_dim, in_dim) matrices at the point.
    """
    return _chain_jacobians(_chains(coeffs, ustar, u, drop=1), ustar, out_dim, in_dim)


def shift_map(coeffs: dict, base_star: np.ndarray, base: np.ndarray) -> dict:
    """Re-center a vector-valued coefficient map at a base point.

    Returns the coefficient map of (x_star, x) -> f(base_star + x_star,
    base + x), including the constant (0, 0) term.  Slot symmetry turns
    the multilinear expansion into binomial-weighted contractions of the
    trailing slots against the base vectors.
    """
    out: dict = {}
    for (a, b) in sorted(coeffs):
        t = coeffs[(a, b)]
        for j in range(b, -1, -1):
            if j < b:
                t = _dot_axis(t, base, t.ndim - 1)
            t_star = t
            for i in range(a, -1, -1):
                if i < a:
                    # last remaining starred axis sits right after the
                    # leading output axis block
                    t_star = _dot_axis(t_star, base_star, i + 1)
                add_into(out, (i, j), comb(a, i) * comb(b, j) * t_star)
    return {k: v for k, v in sorted(out.items())}


def add_into(target: dict, key, tensor: np.ndarray) -> None:
    if key in target:
        target[key] = target[key] + tensor
    else:
        target[key] = tensor


def apply_matrix(mat: np.ndarray, coeffs: dict) -> dict:
    """Post-compose a vector-valued map with a linear operator."""
    return {k: _dot_axis(mat, v, 1) for k, v in sorted(coeffs.items())}


def compose(outer: dict, inner_star: dict, inner_unstar: dict, max_order: int) -> dict:
    """Substitute a pair of inner maps into the slots of an outer map.

    ``outer`` is vector- or scalar-valued in a middle space; ``inner_star``
    and ``inner_unstar`` are vector-valued maps into that middle space,
    both graded in the final input pair.  Every starred slot of the outer
    tensor receives the starred inner map and every unstarred slot the
    unstarred one; the result is graded, truncated at ``max_order`` and
    symmetrized per bidegree.

    Neither inner map may have a constant term, so contributions at a given
    total degree only involve inner coefficients of strictly lower degree
    whenever the outer degree is at least two.

    The outer tensor must be symmetric within its starred slot group and
    within its unstarred slot group (every graded map in this package is).
    That lets slot assignments be enumerated as multisets with multinomial
    weights instead of ordered tuples, since assignments differing by an
    in-group permutation contribute identically after symmetrization.
    """
    skeys = tuple(k for k in sorted(inner_star)
                  if k != (0, 0) and np.any(inner_star[k]))
    ukeys = tuple(k for k in sorted(inner_unstar)
                  if k != (0, 0) and np.any(inner_unstar[k]))
    out: dict = {}
    for (a, b) in sorted(outer):
        t = outer[(a, b)]
        if not np.any(t):
            continue
        lead = t.ndim - (a + b)  # 1 for vector-valued outer, 0 for scalar
        for assign_s, deg_s, w_s in _degree_capped_multisets(skeys, a, max_order - b):
            for assign_u, deg_u, w_u in _degree_capped_multisets(
                    ukeys, b, max_order - deg_s):
                bids = list(assign_s) + list(assign_u)
                kstar_total = sum(p for p, q in bids)
                k_total = deg_s + deg_u - kstar_total
                inners = ([inner_star[k] for k in assign_s]
                          + [inner_unstar[k] for k in assign_u])
                cur = t
                for i in range(len(inners), 0, -1):
                    cur = _dot_axis(cur, inners[i - 1], lead + i - 1)
                # group axes now sit at the tail in reverse slot order;
                # gather starred axes of all groups first, then unstarred
                star_axes, unstar_axes = [], []
                pos = lead
                for (p, q) in reversed(bids):
                    star_axes.extend(range(pos, pos + p))
                    unstar_axes.extend(range(pos + p, pos + p + q))
                    pos += p + q
                perm = list(range(lead)) + star_axes + unstar_axes
                add_into(out, (kstar_total, k_total),
                         (w_s * w_u) * cur.transpose(perm))
    return {key: symmetrize(val, key[0], key[1],
                            leading_axes=val.ndim - key[0] - key[1])
            for key, val in sorted(out.items())}


@functools.lru_cache(maxsize=None)
def _degree_capped_multisets(keys: tuple, slots: int, max_deg: int) -> tuple:
    """Multisets of ``slots`` bidegree keys with total degree <= max_deg,
    each with the count of ordered assignments realizing it.  A pure
    function of its arguments, so each one is enumerated once."""
    result = []
    for combo in itertools.combinations_with_replacement(keys, slots):
        deg = sum(p + q for p, q in combo)
        if deg > max_deg:
            continue
        weight = factorial(slots)
        for mult in Counter(combo).values():
            weight //= factorial(mult)
        result.append((combo, deg, weight))
    return tuple(result)
