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
