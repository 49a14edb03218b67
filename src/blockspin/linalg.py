"""Finite-dimensional spaces, bilinear pairings, operators and adjoints.

A space is a real vector space with a symmetric positive definite bilinear
form.  Vectors are allowed complex coordinates (the complexification); the
form extends bilinearly, without any conjugation.  Starred and unstarred
fields are therefore independent inputs everywhere in this package.

Everything is dense and small (dimensions stay below ~64), so exact
factorizations are cheap and no sparse or lazy machinery is warranted.

Every inversion passes one condition-number gate, ``gate``, with the fixed
limit COND_LIMIT = 1e8.  It first tries a Gram-Cholesky certificate: with
G = m^H m and f = ||m||_F^2, the Cholesky factorization of
G - 4(n+2) eps f 1 succeeding proves sigma_min(m)^2 >= (2n+5) eps ||m||_F^2,
so cond_2(m) <= 1/sqrt((2n+5) eps) <= 2.54e7, under COND_LIMIT.  Only a
matrix the certificate declines pays for the SVD in ``cond``, and that SVD
alone decides it, so every accept, rejection and reported condition number
is the SVD gate's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearSingularError, SpaceMismatchError

COND_LIMIT = 1e8

_EPS = float(np.finfo(float).eps)
# with f = ||m||_F^2 outside this range m^H m may under- or overflow, where the
# certificate's rounding-error bound does not hold
_CERT_F_RANGE = (2.0**-900, 2.0**900)


@dataclass(frozen=True, eq=False)
class SpaceSpec:
    """Dimension plus the gram matrix of the bilinear form."""

    dim: int
    gram: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"space dimension must be positive, got {self.dim}")
        if self.gram is None:
            g = np.eye(self.dim)
        else:
            g = np.array(self.gram, dtype=float)
        if g.shape != (self.dim, self.dim):
            raise ValueError(f"gram matrix shape {g.shape} does not match dim {self.dim}")
        scale = np.linalg.norm(g, 2)
        if np.linalg.norm(g - g.T, 2) > 1e-14 * scale:
            raise ValueError("gram matrix must be symmetric")
        if np.linalg.eigvalsh(g).min() <= 0.0:
            raise ValueError("gram matrix must be positive definite")
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)

    def compatible(self, other: "SpaceSpec") -> bool:
        return self.dim == other.dim and np.array_equal(self.gram, other.gram)

    def require_compatible(self, other: "SpaceSpec", what: str = "value") -> None:
        if not self.compatible(other):
            raise SpaceMismatchError(f"{what}: spaces differ (dims {self.dim} vs {other.dim})")


@dataclass(frozen=True, eq=False)
class FieldVector:
    """A (complexified) vector tagged with the space it lives in."""

    space: SpaceSpec
    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=complex).reshape(-1)
        if c.shape != (self.space.dim,):
            raise SpaceMismatchError(
                f"component count {c.shape[0]} does not match space dim {self.space.dim}"
            )
        object.__setattr__(self, "components", c)


def components(x) -> np.ndarray:
    """Accept a FieldVector or anything array-like, return a complex 1-d array."""
    if isinstance(x, FieldVector):
        return x.components
    return np.asarray(x, dtype=complex).reshape(-1)


@dataclass(frozen=True, eq=False)
class Operator:
    """A linear map between two spaces, stored as a dense matrix.

    ``entries`` has shape (codomain.dim, domain.dim) and acts on coordinate
    columns.  Operators are immutable; algebra returns new instances.
    """

    domain: SpaceSpec
    codomain: SpaceSpec
    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=complex)
        if e.shape != (self.codomain.dim, self.domain.dim):
            raise SpaceMismatchError(
                f"entry shape {e.shape} does not match "
                f"({self.codomain.dim}, {self.domain.dim})"
            )
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @classmethod
    def identity(cls, space: SpaceSpec) -> "Operator":
        return cls(space, space, np.eye(space.dim))

    def apply(self, v) -> FieldVector:
        if isinstance(v, FieldVector):
            self.domain.require_compatible(v.space, "operator application")
        return FieldVector(self.codomain, self.entries @ components(v))

    def __matmul__(self, other: "Operator") -> "Operator":
        self.domain.require_compatible(other.codomain, "operator composition")
        return Operator(other.domain, self.codomain, self.entries @ other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        self.domain.require_compatible(other.domain, "operator difference")
        self.codomain.require_compatible(other.codomain, "operator difference")
        return Operator(self.domain, self.codomain, self.entries - other.entries)


def pairing(u, v) -> complex:
    """Bilinear pairing <u, v> of two vectors in the same space.

    No conjugation is applied; complex inputs are paired as they stand.
    """
    if isinstance(u, FieldVector) and isinstance(v, FieldVector):
        u.space.require_compatible(v.space, "pairing")
        g = u.space.gram
    elif isinstance(u, FieldVector):
        g = u.space.gram
    elif isinstance(v, FieldVector):
        g = v.space.gram
    else:
        raise TypeError("pairing needs at least one FieldVector to supply the form")
    return complex(components(u) @ g @ components(v))


def adjoint(a: Operator) -> Operator:
    """The pairing adjoint: <A u, w>_cod = <u, A* w>_dom for all u, w."""
    g_dom = a.domain.gram
    g_cod = a.codomain.gram
    entries = np.linalg.solve(g_dom, a.entries.T @ g_cod)
    return Operator(a.codomain, a.domain, entries)


def cond(a) -> float:
    """Spectral condition number of a matrix or Operator; inf for a singular
    matrix and for one whose SVD is not finite (a non-finite entry)."""
    m = a.entries if isinstance(a, Operator) else np.asarray(a)
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError:  # NaN entries: the SVD does not converge
        return np.inf
    if s[-1] == 0.0 or not np.isfinite(s).all():
        return np.inf
    return float(s[0] / s[-1])


def _cholesky_certified(m: np.ndarray) -> bool:
    """True only if a Gram-Cholesky test proves cond_2(m) well under
    COND_LIMIT; False sends ``m`` to the SVD (see ``gate``)."""
    m = m.astype(np.result_type(m.dtype, np.float64), copy=False)
    f = float(np.vdot(m, m).real)
    if not _CERT_F_RANGE[0] <= f <= _CERT_F_RANGE[1]:  # also NaN and inf
        return False
    g = m.conj().T @ m
    g.ravel()[::g.shape[0] + 1] -= 4 * (max(m.shape) + 2) * _EPS * f
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def gate(mat, assumption: str):
    """The condition-number gate: ``mat`` unchanged if its condition number
    is at most the fixed COND_LIMIT, else a NearSingularError naming the
    failed invertibility assumption and carrying ``cond(mat)``.

    A Gram-Cholesky certificate accepts first; what it declines goes to the
    SVD in ``cond``, which alone decides.  For m with n = max(m.shape) and
    G = m^H m, let f = fl(||m||_F^2), summed by ``np.vdot``.  The
    certificate declines unless 2^-900 <= f <= 2^900 (NaN and inf entries
    included) before it forms fl(G), so that nothing in fl(G) under- or
    overflows; then it subtracts s = 4(n+2) eps f from the diagonal of
    fl(G) and accepts exactly when ``np.linalg.cholesky`` succeeds.  Why
    that is safe, in units of eps f and to first order in eps, where
    trace fl(G) and f both equal ||m||_F^2:

    - the Gram product errs by ||fl(G) - G||_2 <= gamma_n ||m||_F^2
      (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      sec. 3.5), counted as n+1 to cover complex arithmetic; this holds for
      whichever triangle the factorization reads;
    - subtracting s from the diagonal rounds by at most 1;
    - a Cholesky factorization that runs to completion on H has
      R^H R = H + dH with ||dH||_2 <= gamma_{n+1} trace(H) / (1 - gamma_{n+1})
      (Higham ch. 10; Rump, "Verification of positive definiteness", BIT
      46, 2006, whose extra underflow term the range on f makes
      negligible), counted as n+1.

    R^H R is positive semidefinite, so lambda_min(G) >= 4(n+2) - 2(n+1) - 1,
    that is sigma_min(m)^2 >= (2n+5) eps ||m||_F^2.  With sigma_max(m) <=
    ||m||_F this gives cond_2(m) <= 1/sqrt((2n+5) eps), at most 2.54e7 (at
    n = 1), a factor 3.9 under COND_LIMIT; the SVD's own error at that
    conditioning is below 1e-6 relative, so the SVD gate accepts every
    matrix the certificate accepts."""
    m = mat.entries if isinstance(mat, Operator) else np.asarray(mat)
    if not _cholesky_certified(m):
        c = cond(m)
        if c > COND_LIMIT:
            raise NearSingularError(assumption, c, COND_LIMIT)
    return mat


def gated_solve(mat: np.ndarray, rhs: np.ndarray, assumption: str = "operator") -> np.ndarray:
    """np.linalg.solve behind the condition-number gate, so a near-singular
    system raises instead of returning an answer dominated by roundoff."""
    return np.linalg.solve(gate(np.asarray(mat), assumption), rhs)


def gated_inverse(mat: np.ndarray, assumption: str = "operator") -> np.ndarray:
    return gated_solve(mat, np.eye(mat.shape[0]), assumption)


def rel_opnorm(diff, ref) -> float:
    """Spectral norm of ``diff`` relative to that of ``ref`` (floored at 1).

    The floor keeps residuals of near-zero reference quantities meaningful.
    """
    d = diff.entries if isinstance(diff, Operator) else np.asarray(diff)
    r = ref.entries if isinstance(ref, Operator) else np.asarray(ref)
    denom = max(1.0, float(np.linalg.norm(r, 2)))
    return float(np.linalg.norm(d, 2)) / denom


def form_asymmetry(a: Operator) -> float:
    """Relative deviation of A from its own pairing adjoint."""
    a.domain.require_compatible(a.codomain, "symmetry check")
    return rel_opnorm(a - adjoint(a), a)


def woodbury_left(f: Operator, g: Operator, q: Operator, q_star: Operator) -> Operator:
    """Inverse of (1_W + g q f^{-1} q_star) without forming f^{-1}.

    f acts on V, g on W, q: V -> W, q_star: W -> V (q_star need not be the
    adjoint of q).  Returns 1_W - g q (f + q_star g q)^{-1} q_star.
    """
    _check_woodbury_shapes(f, g, q, q_star)
    # gate f itself: the left-hand side of the identity must exist
    gate(f, "f (outer factor of the inversion identity)")
    m = f.entries + q_star.entries @ g.entries @ q.entries
    y = gated_solve(m, q_star.entries, "f + q_star g q (inner Schur factor)")
    w = g.codomain
    return Operator(w, w, np.eye(w.dim) - g.entries @ q.entries @ y)


def woodbury_right(f: Operator, g: Operator, q: Operator, q_star: Operator) -> Operator:
    """Inverse of (1_W + q f^{-1} q_star g): 1_W - q (f + q_star g q)^{-1} q_star g."""
    _check_woodbury_shapes(f, g, q, q_star)
    gate(f, "f (outer factor of the inversion identity)")
    m = f.entries + q_star.entries @ g.entries @ q.entries
    y = gated_solve(m, q_star.entries @ g.entries, "f + q_star g q (inner Schur factor)")
    w = g.codomain
    return Operator(w, w, np.eye(w.dim) - q.entries @ y)


def _check_woodbury_shapes(f, g, q, q_star):
    f.domain.require_compatible(f.codomain, "woodbury f")
    g.domain.require_compatible(g.codomain, "woodbury g")
    q.domain.require_compatible(f.domain, "woodbury q domain")
    q.codomain.require_compatible(g.domain, "woodbury q codomain")
    q_star.domain.require_compatible(g.domain, "woodbury q_star domain")
    q_star.codomain.require_compatible(f.domain, "woodbury q_star codomain")
