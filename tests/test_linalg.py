import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspin import linalg
from blockspin.errors import NearSingularError, SpaceMismatchError
from blockspin.linalg import (
    FieldVector,
    Operator,
    SpaceSpec,
    adjoint,
    cond,
    form_asymmetry,
    pairing,
    rel_opnorm,
    woodbury_left,
    woodbury_right,
)


def rng_for(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([97, tag], dtype=np.uint64)))


def random_space(rng, dim):
    a = rng.standard_normal((dim, dim))
    return SpaceSpec(dim, a @ a.T + 0.5 * np.eye(dim))


def test_space_rejects_bad_gram():
    with pytest.raises(ValueError):
        SpaceSpec(2, np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        SpaceSpec(2, np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        SpaceSpec(0)


def test_vector_length_checked():
    s = SpaceSpec(3)
    with pytest.raises(SpaceMismatchError):
        FieldVector(s, np.zeros(2))


def test_pairing_matches_gram_contraction():
    rng = rng_for(1)
    s = random_space(rng, 4)
    u = FieldVector(s, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    v = FieldVector(s, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    expected = u.components @ s.gram @ v.components
    assert pairing(u, v) == pytest.approx(expected)
    # bilinear, not sesquilinear: scaling the first slot by i scales the value by i
    assert pairing(FieldVector(s, 1j * u.components), v) == pytest.approx(1j * expected)
    assert pairing(u, FieldVector(s, 1j * v.components)) == pytest.approx(1j * expected)
    assert pairing(u, v) == pytest.approx(pairing(v, u))


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_adjoint_defining_property(dim, seed):
    rng = rng_for(seed)
    dom = random_space(rng, dim)
    cod = random_space(rng, max(1, dim - 1))
    a = Operator(dom, cod, rng.standard_normal((cod.dim, dim))
                 + 1j * rng.standard_normal((cod.dim, dim)))
    astar = adjoint(a)
    u = FieldVector(dom, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    w = FieldVector(cod, rng.standard_normal(cod.dim) + 1j * rng.standard_normal(cod.dim))
    lhs = pairing(a.apply(u), w)
    rhs = pairing(u, astar.apply(w))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    # involution
    assert rel_opnorm(adjoint(astar) - a, a) <= 1e-12


def test_adjoint_small_explicit_case():
    # domain dim 2 with identity form, codomain dim 1 with form weight 2:
    # A = (1 0) gives A* = (2, 0)^T
    dom = SpaceSpec(2)
    cod = SpaceSpec(1, np.array([[2.0]]))
    a = Operator(dom, cod, np.array([[1.0, 0.0]]))
    astar = adjoint(a)
    assert np.allclose(astar.entries, np.array([[2.0], [0.0]]))


def test_adjoint_reverses_composition():
    rng = rng_for(7)
    s1, s2, s3 = (random_space(rng, d) for d in (3, 4, 2))
    a = Operator(s1, s2, rng.standard_normal((4, 3)))
    b = Operator(s2, s3, rng.standard_normal((2, 4)))
    lhs = adjoint(b @ a)
    rhs = adjoint(a) @ adjoint(b)
    assert rel_opnorm(lhs - rhs, rhs) < 1e-13


def test_solve_and_inverse_roundtrip():
    rng = rng_for(3)
    s = random_space(rng, 5)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = Operator(s, s, m)
    rhs = FieldVector(s, rng.standard_normal(5))
    x = linalg.gated_solve(a.entries, rhs.components)
    assert np.linalg.norm(a.entries @ x - rhs.components) < 1e-12


def test_solve_gate_names_assumption():
    s = SpaceSpec(2)
    a = Operator(s, s, np.array([[1.0, 0.0], [0.0, 1e-12]]))
    with pytest.raises(NearSingularError) as err:
        linalg.gated_solve(a.entries, np.ones(2), "test matrix")
    assert "test matrix" in str(err.value)
    assert err.value.cond > 1e8


def test_gate_limit_is_fixed_at_1e8():
    assert linalg.COND_LIMIT == 1e8
    # cond 5e7 passes the gate
    x = linalg.gated_solve(np.diag([1.0, 2e-8]), np.ones(2))
    assert np.allclose(x, [1.0, 5e7])
    # cond 2e8 does not
    with pytest.raises(NearSingularError) as err:
        linalg.gated_solve(np.diag([1.0, 5e-9]), np.ones(2))
    assert err.value.limit == linalg.COND_LIMIT == 1e8
    assert err.value.cond == pytest.approx(2e8)


def test_cond_of_diagonal():
    s = SpaceSpec(2)
    a = Operator(s, s, np.diag([4.0, 0.5]))
    assert cond(a) == pytest.approx(8.0)


def test_operator_algebra_space_checks():
    a = Operator(SpaceSpec(2), SpaceSpec(3), np.zeros((3, 2)))
    b = Operator(SpaceSpec(3), SpaceSpec(3), np.zeros((3, 3)))
    with pytest.raises(SpaceMismatchError):
        a @ b  # domains do not chain
    _ = b @ a


@settings(max_examples=20, deadline=None)
@given(nv=st.integers(1, 8), nw=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_woodbury_identities(nv, nw, seed):
    rng = rng_for(seed)
    v = SpaceSpec(nv)
    w = SpaceSpec(nw)
    fa = rng.standard_normal((nv, nv))
    f = Operator(v, v, fa @ fa.T + 0.1 * np.eye(nv))
    g = Operator(w, w, rng.standard_normal((nw, nw)) / np.sqrt(nw))
    q = Operator(v, w, rng.standard_normal((nw, nv)) / np.sqrt(max(nv, nw)))
    qs = Operator(w, v, rng.standard_normal((nv, nw)) / np.sqrt(max(nv, nw)))

    finv = np.linalg.solve(f.entries, np.eye(nv))
    left = np.eye(nw) + g.entries @ q.entries @ finv @ qs.entries
    right = np.eye(nw) + q.entries @ finv @ qs.entries @ g.entries
    cm = cond(f.entries + qs.entries @ g.entries @ q.entries)
    if max(cond(left), cond(right), cm) > 1e6:
        return  # badly conditioned draw, covered by the gates

    wl = woodbury_left(f, g, q, qs)
    wr = woodbury_right(f, g, q, qs)
    # roundoff grows with the conditioning of the two factors being inverted
    tol = 1e-13 + 1e-15 * (cond(left) + cond(right) + cm)
    assert rel_opnorm(left @ wl.entries - np.eye(nw), np.eye(nw)) < tol
    assert rel_opnorm(right @ wr.entries - np.eye(nw), np.eye(nw)) < tol


def test_woodbury_dim1_by_hand():
    # f = 2, g = 3, q = 1, q_star = 5 on scalars:
    # (1 + 3*1*(1/2)*5)^{-1} = 1/8.5 and 1 - 3*1*(1/(2+15))*5 = 1 - 15/17 = 2/17
    v = SpaceSpec(1)
    w = SpaceSpec(1)
    f = Operator(v, v, [[2.0]])
    g = Operator(w, w, [[3.0]])
    q = Operator(v, w, [[1.0]])
    qs = Operator(w, v, [[5.0]])
    wl = woodbury_left(f, g, q, qs)
    assert wl.entries[0, 0] == pytest.approx(2.0 / 17.0)
    assert (1 + 3 * 0.5 * 5) * wl.entries[0, 0] == pytest.approx(1.0)


def test_woodbury_gates_f():
    v = SpaceSpec(1)
    w = SpaceSpec(1)
    f = Operator(v, v, [[0.0]])
    g = Operator(w, w, [[1.0]])
    q = Operator(v, w, [[1.0]])
    qs = Operator(w, v, [[1.0]])
    with pytest.raises(NearSingularError):
        woodbury_left(f, g, q, qs)


def test_form_asymmetry_detects():
    s = SpaceSpec(2)
    sym = Operator(s, s, np.array([[2.0, 1.0], [1.0, 3.0]]))
    assert form_asymmetry(sym) < 1e-15
    asym = Operator(s, s, np.array([[2.0, 1.0], [0.0, 3.0]]))
    assert form_asymmetry(asym) > 0.1


# ---------------------------------------------------------------------------
# the Cholesky certificate in front of the SVD gate

def svd_only_gate(mat, assumption):
    """The gate as it was before the certificate: the SVD decides alone."""
    c = cond(mat)
    if not np.isfinite(c) or c > linalg.COND_LIMIT:
        raise NearSingularError(assumption, c, linalg.COND_LIMIT)
    return mat


def gate_outcome(gate_fn, mat):
    try:
        out = gate_fn(mat, "property matrix")
    except Exception as err:  # noqa: BLE001 - the outcomes are compared
        return (type(err), getattr(err, "assumption", None), getattr(err, "cond", None))
    assert out is mat
    return "accept"


def unitary(rng, n, complex_entries):
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


NON_FINITE = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}
KINDS = ["cond", "cond", "cond", "rank-deficient", "singular", "zero", *NON_FINITE]
SCALES = [1.0, 1.0, 1e-200, 1e200, 1e-130, 1e-155, 1e-160, 1e120]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.one_of(st.integers(1, 4), st.integers(1, 64)), log_cond=st.floats(0.0, 12.0), kind=st.sampled_from(KINDS),
       scale=st.sampled_from(SCALES), complex_entries=st.booleans(),
       as_operator=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_certified_gate_decides_like_the_svd_gate(n, log_cond, kind, scale, complex_entries,
                                                  as_operator, seed):
    """Accept or reject, the exception's type and assumption, and its cond
    are those of the SVD-only gate, from cond 1 to 1e12, on rank-deficient,
    exactly singular, zero and non-finite matrices and at extreme scales
    (near 1e-155 the Gram matrix is subnormal)."""
    rng = rng_for(seed)
    sigma = np.logspace(0.0, -log_cond, n)
    if kind == "rank-deficient":
        sigma[-1] = 0.0
    m = (unitary(rng, n, complex_entries) * sigma) @ unitary(rng, n, complex_entries).conj().T
    if kind == "singular":  # a repeated column, or a zero one at n = 1
        m[:, -1] = m[:, 0] if n > 1 else 0.0
    elif kind == "zero":
        m = np.zeros_like(m)
    elif kind in NON_FINITE:
        m[rng.integers(n), rng.integers(n)] = NON_FINITE[kind]
    with np.errstate(all="ignore"):
        m = m * scale
    mat = Operator(SpaceSpec(n), SpaceSpec(n), m) if as_operator else m
    assert gate_outcome(linalg.gate, mat) == gate_outcome(svd_only_gate, mat)


def test_certificate_declines_where_the_gram_underflows():
    """Near 1e-155 fl(m^H m) is subnormal and its rounding is no longer
    relative.  Without its lower bound on Re trace(m^H m) the certificate
    accepted about a third of these rank-deficient matrices."""
    rng = rng_for(7)
    for n in range(2, 9):
        for scale in (1e-155, 1e-160):
            for complex_entries in (False, True):
                for _ in range(5):
                    sigma = np.logspace(0.0, -6.0, n)
                    sigma[-1] = 0.0
                    m = (unitary(rng, n, complex_entries) * sigma
                         @ unitary(rng, n, complex_entries).conj().T) * scale
                    with pytest.raises(NearSingularError):
                        linalg.gate(m, "subnormal gram")


def counting_cond(monkeypatch):
    """Route linalg.cond through a counter; return the list of its values."""
    values = []
    real_cond = linalg.cond

    def counted(a):
        values.append(real_cond(a))
        return values[-1]

    monkeypatch.setattr(linalg, "cond", counted)
    return values


def test_gate_certifies_the_solve_lattice_newton_without_an_svd(monkeypatch):
    """One newton_critical on the 32/8/2 lattice step of the solve-lattice
    benchmark workload passes its 64x64 and 16x16 jacobians through the
    gate on the certificate alone."""
    from blockspin import ensembles, harness, solvers
    cfg = harness.ScenarioConfig.from_dict({
        "seed": 1, "suites": [], "lattice": {"extents": [8, 4], "block": [2, 2]},
        "interaction": {"bidegrees": [[1, 2], [0, 3]], "scale": 0.2}})
    spec = harness.scenario_spec(cfg)
    rng = ensembles.stream(1, "certified-gate")
    sp = spec.rg.space_plus
    theta_star, theta = ensembles.unit_field(rng, sp, 0.2), ensembles.unit_field(rng, sp, 0.2)
    gated = []
    real_gated_solve = solvers.gated_solve
    monkeypatch.setattr(solvers, "gated_solve",
                        lambda m, rhs, what: gated.append(m.shape) or real_gated_solve(m, rhs, what))
    conds = counting_cond(monkeypatch)
    solvers.newton_critical(spec, theta_star, theta)
    assert (64, 64) in gated and (16, 16) in gated
    assert conds == []


def test_gate_sends_what_the_certificate_declines_to_one_svd(monkeypatch):
    conds = counting_cond(monkeypatch)
    # cond 5e7: above what the certificate can prove, accepted by the SVD
    m = np.diag([1.0, 2e-8])
    assert linalg.gate(m, "between") is m
    assert conds == [pytest.approx(5e7)]
    # cond 2e8: the SVD's value is the one the error carries
    m = np.diag([1.0, 5e-9]) + 0j
    with pytest.raises(NearSingularError) as err:
        linalg.gate(m, "beyond")
    assert len(conds) == 2 and err.value.cond == conds[1] == cond(m)
    assert err.value.assumption == "beyond"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cond_of_a_non_finite_matrix_is_inf(bad):
    m = np.array([[1.0, bad], [0.0, 1.0]])
    assert cond(m) == np.inf
    with pytest.raises(NearSingularError) as err:
        linalg.gated_solve(m, np.ones(2), "non-finite")
    assert err.value.cond == np.inf and "inf" in str(err.value)
