import itertools
import json

import numpy as np
import pytest

from blockspin import tensorpoly as tp
from blockspin.linalg import SpaceSpec, pairing, FieldVector
from blockspin.poly import PolynomialP, dump_polynomial, load_polynomial, p_gradients
from blockspin.series import FormalSeries, SeriesPair, compose_pair


def rng_for(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([23, tag], dtype=np.uint64)))


def central_diff(f, x, h=1e-5):
    """Gradient of a scalar function of a complex vector, holomorphic in x."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def random_poly(rng, space, bidegrees, scale=0.1):
    monos = {}
    for (a, b) in bidegrees:
        t = scale * (rng.standard_normal((space.dim,) * (a + b))
                     + 1j * rng.standard_normal((space.dim,) * (a + b)))
        monos[(a, b)] = tp.symmetrize(t, a, b, leading_axes=0)
    return PolynomialP(space, monos)


def test_quadratic_gradient_matches_pairing_transpose():
    # P = <phi_star, M phi> style quadratic: grad wrt phi is the gram-solved
    # transpose action on phi_star
    rng = rng_for(1)
    g = rng.standard_normal((3, 3))
    space = SpaceSpec(3, g @ g.T + np.eye(3))
    m = rng.standard_normal((3, 3))
    p = PolynomialP(space, {(1, 1): m})
    phi_star = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    d_phi, d_phi_star = p_gradients(p, phi_star, phi)
    assert p.value(phi_star, phi) == pytest.approx(phi_star @ m @ phi)
    expected = np.linalg.solve(space.gram, m.T @ phi_star)
    assert np.allclose(d_phi.components, expected, atol=1e-13)
    expected_star = np.linalg.solve(space.gram, m @ phi)
    assert np.allclose(d_phi_star.components, expected_star, atol=1e-13)


def test_gradients_match_finite_differences():
    rng = rng_for(2)
    g = rng.standard_normal((2, 2))
    space = SpaceSpec(2, g @ g.T + np.eye(2))
    p = random_poly(rng, space, [(1, 2), (2, 2), (0, 3), (3, 0), (1, 3)])
    phi_star = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    d_phi, d_phi_star = p_gradients(p, phi_star, phi)
    num_u = central_diff(lambda x: p.value(phi_star, x), phi.astype(complex))
    num_s = central_diff(lambda x: p.value(x, phi), phi_star.astype(complex))
    # <h, grad> must reproduce the directional derivative
    assert np.allclose(space.gram @ d_phi.components, num_u, atol=1e-9)
    assert np.allclose(space.gram @ d_phi_star.components, num_s, atol=1e-9)


def test_pairing_gradient_consistency():
    # the defining property, not just coordinates: d/dt P(phi + t h) = <h, grad>
    rng = rng_for(3)
    space = SpaceSpec(2, np.array([[2.0, 0.3], [0.3, 1.0]]))
    p = random_poly(rng, space, [(1, 2)], scale=1.0)
    phi_star = rng.standard_normal(2)
    phi = rng.standard_normal(2)
    h = rng.standard_normal(2)
    d_phi, _ = p_gradients(p, phi_star, phi)
    t = 1e-6
    num = (p.value(phi_star, phi + t * h) - p.value(phi_star, phi - t * h)) / (2 * t)
    assert pairing(FieldVector(space, h), d_phi) == pytest.approx(num, rel=1e-7)


def test_poly_validation():
    space = SpaceSpec(2)
    with pytest.raises(ValueError, match="degree"):
        PolynomialP(space, {(1, 0): np.ones(2)})
    with pytest.raises(ValueError, match="symmetric"):
        t = np.zeros((2, 2))
        t[0, 1] = 1.0
        PolynomialP(space, {(0, 2): t})


def test_poly_file_roundtrip(tmp_path):
    space = SpaceSpec(2)
    records = [{
        "kstar": 1, "k": 2,
        "entries": [
            {"multi_index_star": [0], "multi_index": [0, 1], "re": 0.5, "im": -0.25},
            {"multi_index_star": [1], "multi_index": [1, 1], "re": 2.0, "im": 0.0},
        ],
    }]
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(records))
    p = load_polynomial(json.loads(path.read_text()), space)
    # symmetrization spreads the off-diagonal entry but preserves the value
    phi_star = np.array([1.0, 2.0])
    phi = np.array([3.0, -1.0])
    expected = ((0.5 - 0.25j) * phi_star[0] * phi[0] * phi[1]
                + 2.0 * phi_star[1] * phi[1] * phi[1])
    assert p.value(phi_star, phi) == pytest.approx(expected)
    p2 = load_polynomial(dump_polynomial(p), space)
    for key in p.monomials:
        assert np.allclose(p.monomials[key], p2.monomials[key], atol=1e-15)


@pytest.mark.parametrize("records, message", [
    (["x"], "record 0: need an object"),
    ([{"k": 2}], "record 0: 'kstar' needs a nonnegative integer"),
    ([{"kstar": -1, "k": 3}], "record 0: 'kstar' needs a nonnegative integer"),
    ([{"kstar": 1, "k": 2, "entries": ["x"]}], "record 0 entry 0: need an object"),
    ([{"kstar": 1, "k": 2, "entries": [{"multi_index_star": [0], "multi_index": [0, -1]}]}],
     "record 0 entry 0: 'multi_index' needs 2 indices in [0, 2)"),
    ([{"kstar": 1, "k": 2, "entries": [{"multi_index_star": [0], "multi_index": [0, 0],
                                        "im": "1"}]}],
     "record 0 entry 0: 'im' needs a finite real number"),
], ids=["record-not-object", "missing-kstar", "negative-kstar", "entry-not-object",
        "index-out-of-range", "string-im"])
def test_load_polynomial_names_the_bad_record(records, message):
    with pytest.raises(ValueError) as err:
        load_polynomial(records, SpaceSpec(2))
    assert str(err.value) == f"polynomial {message}"


def test_series_evaluate_scalar():
    space = SpaceSpec(1)
    s = FormalSeries(space, space, 3, {
        (0, 1): np.full((1, 1), 0.5),
        (0, 2): np.full((1, 1, 1), -0.125),
    })
    v = s.evaluate(np.zeros(1), np.array([2.0]))
    assert v.components[0] == pytest.approx(0.5 * 2 - 0.125 * 4)


def test_series_rejects_constant_and_asymmetric():
    space = SpaceSpec(2)
    with pytest.raises(ValueError, match="constant"):
        FormalSeries(space, space, 2, {(0, 0): np.zeros((2,))})
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        FormalSeries(space, space, 2, {(0, 2): bad})


def _scalar_pair(space, coeffs_star, coeffs_unstar, order):
    return SeriesPair(
        FormalSeries(space, space, order,
                     {k: np.array(v, dtype=complex).reshape((1,) * (1 + k[0] + k[1]))
                      for k, v in coeffs_star.items()}),
        FormalSeries(space, space, order,
                     {k: np.array(v, dtype=complex).reshape((1,) * (1 + k[0] + k[1]))
                      for k, v in coeffs_unstar.items()}))


def test_compose_scalar_known_case():
    # outer u(v) = v + v^2, inner v(w) = 2w + 3w^2 (unstarred only):
    # u(v(w)) = 2w + (3+4)w^2 + 12w^3 + 9w^4
    space = SpaceSpec(1)
    outer = _scalar_pair(space, {(1, 0): [1.0]}, {(0, 1): [1.0], (0, 2): [1.0]}, 4)
    inner = _scalar_pair(space, {(1, 0): [1.0]}, {(0, 1): [2.0], (0, 2): [3.0]}, 4)
    comp = compose_pair(outer, inner, 4)
    assert comp.unstarred.coefficient(0, 1)[0, 0] == pytest.approx(2.0)
    assert comp.unstarred.coefficient(0, 2)[0, 0, 0] == pytest.approx(3.0 + 4.0)
    assert comp.unstarred.coefficient(0, 3)[0, 0, 0, 0] == pytest.approx(12.0)
    assert comp.unstarred.coefficient(0, 4).reshape(-1)[0] == pytest.approx(9.0)


def test_compose_matches_pointwise_evaluation():
    rng = rng_for(4)
    sp_in = SpaceSpec(2)
    sp_mid = SpaceSpec(3)
    sp_out = SpaceSpec(2)

    def rand_series(ispace, tspace, order, scale):
        coeffs = {}
        for a in range(order + 1):
            for b in range(order + 1 - a):
                if a + b < 1:
                    continue
                t = scale * rng.standard_normal(
                    (tspace.dim,) + (ispace.dim,) * (a + b))
                coeffs[(a, b)] = tp.symmetrize(t, a, b)
        return FormalSeries(ispace, tspace, order, coeffs)

    inner = SeriesPair(rand_series(sp_in, sp_mid, 3, 0.3),
                       rand_series(sp_in, sp_mid, 3, 0.3))
    outer = SeriesPair(rand_series(sp_mid, sp_out, 3, 0.3),
                       rand_series(sp_mid, sp_out, 3, 0.3))
    comp = compose_pair(outer, inner, 9)  # high enough to keep every term

    ustar = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    u = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    mid_star, mid = inner.evaluate(ustar, u)
    direct_star, direct = outer.evaluate(mid_star, mid)
    via_star, via = comp.evaluate(ustar, u)
    assert np.allclose(via_star.components, direct_star.components, atol=1e-12)
    assert np.allclose(via.components, direct.components, atol=1e-12)


def test_compose_truncation_only_drops_high_orders():
    rng = rng_for(5)
    space = SpaceSpec(1)
    outer = _scalar_pair(space, {(1, 0): [1.0]},
                         {(0, 1): [1.0], (0, 2): [0.5]}, 4)
    inner = _scalar_pair(space, {(1, 0): [1.0]}, {(0, 1): [1.0], (0, 2): [1.0]}, 4)
    full = compose_pair(outer, inner, 4)
    cut = compose_pair(outer, inner, 2)
    for key, t in cut.unstarred.coeffs.items():
        assert np.allclose(t, full.unstarred.coefficient(*key))
    assert max(a + b for a, b in cut.unstarred.coeffs) <= 2


def test_jacobians_match_finite_differences():
    rng = rng_for(6)
    coeffs = {}
    for (a, b) in [(1, 1), (0, 2), (2, 1)]:
        t = rng.standard_normal((2, 3) + (3,) * (a + b - 1))
        coeffs[(a, b)] = tp.symmetrize(t.reshape((2,) + (3,) * (a + b)), a, b)
    ustar = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    j_star, j_u = tp.jacobians(coeffs, ustar, u, 2, 3)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        num = (tp.eval_map(coeffs, ustar + e, u, 2) - tp.eval_map(coeffs, ustar - e, u, 2)) / (2 * h)
        assert np.allclose(j_star[:, i], num, atol=1e-8)
        num = (tp.eval_map(coeffs, ustar, u + e, 2) - tp.eval_map(coeffs, ustar, u - e, 2)) / (2 * h)
        assert np.allclose(j_u[:, i], num, atol=1e-8)


def same_bytes(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def draw(rng, shape, complex_entries: bool) -> np.ndarray:
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if complex_entries else x


DTYPE_MIXES = [(False, False), (False, True), (True, False), (True, True)]


@pytest.mark.parametrize("mix", DTYPE_MIXES, ids=["rr", "rc", "cr", "cc"])
@pytest.mark.parametrize("ndim, axis", [(d, k) for d in range(1, 6) for k in range(d)])
def test_dot_axis_has_the_bits_of_tensordot(ndim, axis, mix):
    rng = rng_for(100 + 10 * ndim + axis)
    a = draw(rng, (4, 3, 5, 2, 3)[:ndim], mix[0])
    n = a.shape[axis]
    for tail in ((), (3,), (2, 3)):  # b a vector, a matrix, a 3-tensor
        b = draw(rng, (n,) + tail, mix[1])
        assert same_bytes(tp._dot_axis(a, b, axis),
                          np.tensordot(a, b, axes=([axis], [0])))


def thin_and_strided_operands(rng):
    t = draw(rng, (3, 4, 5, 2), True)
    yield np.moveaxis(t, 2, 0), 1, draw(rng, (3, 4), True)  # moveaxis view
    yield np.moveaxis(t, 3, 0), 3, draw(rng, (5,), False)
    yield t.T, 0, draw(rng, (2, 2), True)                     # transposed a
    yield draw(rng, (4, 5), False).T, 1, draw(rng, (4,), True)
    yield draw(rng, (1, 6), True), 1, draw(rng, (6, 1), True)  # one row
    yield draw(rng, (6, 1), True), 0, draw(rng, (6,), False)   # one column
    yield draw(rng, (1, 6), False), 0, draw(rng, (1, 3), True)
    yield draw(rng, (6, 1), True), 1, draw(rng, (1,), True)


def test_dot_axis_has_the_bits_of_tensordot_on_views_and_thin_shapes():
    for a, axis, b in thin_and_strided_operands(rng_for(99)):
        assert not a.flags.c_contiguous or 1 in a.shape
        assert same_bytes(tp._dot_axis(a, b, axis),
                          np.tensordot(a, b, axes=([axis], [0])))


# ---------------------------------------------------------------------------
# the contraction chains behind eval_map, jacobians and the background Newton

def contract_all_reference(t, kstar, k, ustar, u):
    """Every slot contracted one at a time, u first, always the last axis."""
    for _ in range(k):
        t = tp._dot_axis(t, u, t.ndim - 1)
    for _ in range(kstar):
        t = tp._dot_axis(t, ustar, t.ndim - 1)
    return t


def eval_map_reference(coeffs, ustar, u, out_dim):
    total = np.zeros(out_dim, dtype=complex)
    for (a, b) in sorted(coeffs):
        total = total + contract_all_reference(coeffs[(a, b)], a, b, ustar, u)
    return total


def jacobians_reference(coeffs, ustar, u, out_dim, in_dim):
    """Each derivative contracted from the coefficient tensor afresh."""
    j_star = np.zeros((out_dim, in_dim), dtype=complex)
    j_u = np.zeros((out_dim, in_dim), dtype=complex)
    for (a, b) in sorted(coeffs):
        t = coeffs[(a, b)]
        if a >= 1:
            j_star += a * contract_all_reference(t, a - 1, b, ustar, u)
        if b >= 1:
            m = contract_all_reference(t, 0, b - 1, ustar, u)
            for _ in range(a):
                m = tp._dot_axis(m, ustar, 1)
            j_u += b * m
    return j_star, j_u


BIDEGREES = [(a, n - a) for n in range(1, 5) for a in range(n + 1)]


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("keys", [[key] for key in BIDEGREES]
                         + [[(0, 1), (1, 1), (0, 3)], [(1, 0), (2, 0), (2, 2), (0, 4)],
                            BIDEGREES],
                         ids=lambda keys: "+".join(f"{a}{b}" for a, b in keys))
def test_chains_give_the_bits_of_slot_by_slot_contraction(keys, complex_entries):
    """Values and jacobians read off the chains equal those contracted from
    the tensors afresh, byte for byte: with only starred slots, only
    unstarred ones and both, up to total degree 4."""
    rng = rng_for(300 + len(keys) + 17 * sum(a * 5 + b for a, b in keys))
    out_dim, in_dim = 3, 4
    coeffs = {(a, b): tp.symmetrize(draw(rng, (out_dim,) + (in_dim,) * (a + b),
                                         complex_entries), a, b)
              for (a, b) in keys}
    ustar, u = draw(rng, in_dim, complex_entries), draw(rng, in_dim, complex_entries)
    value = eval_map_reference(coeffs, ustar, u, out_dim)
    j_star, j_u = jacobians_reference(coeffs, ustar, u, out_dim, in_dim)
    full = tp._chains(coeffs, ustar, u)
    assert same_bytes(tp.eval_map(coeffs, ustar, u, out_dim), value)
    assert same_bytes(tp._chain_value(full, out_dim), value)
    for got in (tp.jacobians(coeffs, ustar, u, out_dim, in_dim),
                tp._chain_jacobians(full, ustar, out_dim, in_dim),
                tp._chain_jacobians(tp._chains(coeffs, ustar, u, drop=1), ustar,
                                    out_dim, in_dim)):
        assert same_bytes(got[0], j_star) and same_bytes(got[1], j_u)


def test_scalar_eval_map_sums_the_chain_ends():
    rng = rng_for(31)
    coeffs = {(1, 1): tp.symmetrize(draw(rng, (3, 3), True), 1, 1, leading_axes=0),
              (0, 3): tp.symmetrize(draw(rng, (3, 3, 3), True), 0, 3, leading_axes=0)}
    ustar, u = draw(rng, 3, True), draw(rng, 3, True)
    want = 0.0 + 0.0j
    for (a, b) in sorted(coeffs):
        want = want + complex(contract_all_reference(coeffs[(a, b)], a, b, ustar, u))
    got = tp.eval_map(coeffs, ustar, u, 3, leading_axes=0)
    assert type(got) is complex and got == want


def multisets_reference(keys, slots, max_deg):
    """Every multiset of ``slots`` keys, filtered by degree, with its count
    of ordered assignments."""
    out = []
    for combo in itertools.combinations_with_replacement(keys, slots):
        deg = sum(p + q for p, q in combo)
        if deg <= max_deg:
            ordered = len(set(itertools.permutations(combo)))
            out.append((combo, deg, ordered))
    return out


def test_memoized_multisets_equal_the_direct_enumeration():
    rng = rng_for(41)
    pool = [(a, b) for a in range(4) for b in range(4) if 0 < a + b <= 4]
    for _ in range(60):
        size = int(rng.integers(1, 7))
        keys = tuple(sorted(pool[i] for i in rng.choice(len(pool), size, replace=False)))
        slots, cap = int(rng.integers(0, 5)), int(rng.integers(0, 10))
        first = tp._degree_capped_multisets(keys, slots, cap)
        assert list(first) == multisets_reference(keys, slots, cap)
        assert tp._degree_capped_multisets(keys, slots, cap) is first  # memoized
