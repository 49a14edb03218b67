"""Gaussian identities: exact values against real quadrature oracles, the
determinant split, and the disc-quadrature cross-check of the one-step split."""

import tracemalloc

import numpy as np
import pytest

from blockspin import gaussian, solvers
from blockspin.errors import (BlockspinError, ConvergenceError, QuadratureError,
                              SpaceMismatchError)
from blockspin.gaussian import (_coupling_rowsum, _polar_grid, fluctuation_integral,
                                gaussian_exact, gaussian_source_exact,
                                insertion_constant, prop_d_gaussian_check,
                                prop_d_quadrature_check)
from blockspin.kernels import RGData
from blockspin.linalg import FieldVector, Operator, SpaceSpec
from blockspin.reference import scalar_reference_data, scalar_reference_spec

from conftest import general_data, general_spec, make_rng, random_spd

MODULE_KEY = 641


def rng_for(tag):
    return make_rng(MODULE_KEY, tag)


# --- independent oracle: tensor-product Gauss-Legendre over real boxes ----

def plane_grid(box, n):
    """Nodes and dRe dIm / pi weights for one complex plane on [-box, box]^2."""
    x, w = np.polynomial.legendre.leggauss(n)
    re = box * x
    wr = box * w
    z = (re[:, None] + 1j * re[None, :]).reshape(-1)
    wt = ((wr[:, None] * wr[None, :]) / np.pi).reshape(-1)
    return z, wt


def oracle_dim1(m, j_star=0.0, k=0.0, box=7.0, n=80):
    z, w = plane_grid(box, n)
    return np.sum(w * np.exp(-m * np.abs(z) ** 2 + j_star * z + np.conj(z) * k))


def oracle_dim2(mat, box=6.5, n=56):
    z, w = plane_grid(box, n)
    e1 = np.exp(-mat[0, 0] * np.abs(z) ** 2) * w
    e2 = np.exp(-mat[1, 1] * np.abs(z) ** 2) * w
    cross = np.exp(-(mat[0, 1] * np.conj(z)[:, None] * z[None, :]
                     + mat[1, 0] * z[:, None] * np.conj(z)[None, :]))
    return e1 @ cross @ e2


def square_op(entries, gram=None):
    entries = np.asarray(entries, dtype=float) if np.isrealobj(entries) \
        else np.asarray(entries)
    dim = entries.shape[0]
    sp = SpaceSpec(dim, np.eye(dim) if gram is None else gram)
    return Operator(sp, sp, entries)


# --- exact whole-space values ---------------------------------------------

def test_identity_kernel_integrates_to_one():
    rng = rng_for(1)
    gram = random_spd(rng, 3)
    op = square_op(np.eye(3), gram)
    assert gaussian_exact(op) == pytest.approx(1.0, abs=1e-14)


def test_known_diagonal_values():
    assert gaussian_exact(square_op(2.0 * np.eye(2))) == pytest.approx(0.25, abs=1e-15)
    assert gaussian_exact(square_op(np.diag([1.0, 3.0]))) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_matches_real_quadrature_dim1():
    m = 1.3 + 0.4j
    got = gaussian_exact(square_op(np.array([[m]])))
    want = oracle_dim1(m)
    assert abs(got - want) <= 1e-10
    assert abs(got - 1.0 / m) <= 1e-15


def test_matches_real_quadrature_dim2_nonnormal():
    mat = np.array([[1.8, 0.3 + 0.1j], [0.5 - 0.2j, 2.2]])
    got = gaussian_exact(square_op(mat))
    want = oracle_dim2(mat)
    assert abs(got - want) / abs(want) <= 5e-9
    assert abs(got - 1.0 / np.linalg.det(mat)) <= 1e-15


def test_block_multiplicativity():
    rng = rng_for(2)
    m1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m1 += m1.conj().T + 4.0 * np.eye(2)
    m2 += m2.conj().T + 6.0 * np.eye(3)
    block = np.zeros((5, 5), dtype=complex)
    block[:2, :2] = m1
    block[2:, 2:] = m2
    prod = gaussian_exact(square_op(m1)) * gaussian_exact(square_op(m2))
    assert abs(gaussian_exact(square_op(block)) - prod) / abs(prod) <= 1e-13


def test_value_does_not_depend_on_the_form():
    rng = rng_for(3)
    entries = random_spd(rng, 3) + 0.3 * np.eye(3)
    flat = gaussian_exact(square_op(entries))
    curved = gaussian_exact(square_op(entries, gram=random_spd(rng, 3)))
    assert abs(flat - curved) <= 1e-13 * abs(flat)


def test_rejects_indefinite_kernel():
    with pytest.raises(BlockspinError, match="diverges"):
        gaussian_exact(square_op(np.diag([-1.0, 2.0])))


def test_rejects_mismatched_spaces():
    sp2 = SpaceSpec(2, np.eye(2))
    sp3 = SpaceSpec(3, np.eye(3))
    with pytest.raises(SpaceMismatchError):
        gaussian_exact(Operator(sp2, sp3, np.zeros((3, 2))))


def test_source_formula_matches_quadrature():
    m = 1.5
    j_star, k = 0.3 + 0.1j, -0.2 + 0.4j
    op = square_op(np.array([[m]]))
    sp = op.domain
    got = gaussian_source_exact(op, FieldVector(sp, np.array([j_star])),
                                FieldVector(sp, np.array([k])))
    want = oracle_dim1(m, j_star, k)
    assert abs(got - want) <= 1e-10
    assert abs(got - np.exp(j_star * k / m) / m) <= 1e-14


def test_source_reduces_to_plain():
    rng = rng_for(4)
    entries = random_spd(rng, 3) + 0.5 * np.eye(3)
    op = square_op(entries)
    zero = FieldVector(op.domain, np.zeros(3, dtype=complex))
    assert gaussian_source_exact(op, zero, zero) == gaussian_exact(op)


# --- insertion constant ----------------------------------------------------

def test_insertion_constant_unit_b():
    value, deviation = insertion_constant(scalar_reference_data())
    assert value == pytest.approx(1.0, abs=1e-15)
    assert deviation <= 1e-12


def test_insertion_constant_b_two():
    data = scalar_reference_data(b=2.0)
    value, deviation = insertion_constant(data)
    assert value == pytest.approx(0.5, abs=1e-15)
    assert deviation <= 1e-12


def test_insertion_constant_general_data():
    rng = rng_for(5)
    data = general_data(rng, (3, 2, 2))
    value, deviation = insertion_constant(data, rng=rng)
    assert value == pytest.approx(data.b ** -2, rel=1e-13)
    assert deviation <= 1e-12


# --- determinant form of the split ----------------------------------------

def test_det_identity_reference_values():
    out = prop_d_gaussian_check(scalar_reference_data())
    assert out["lhs"] == pytest.approx(2.0, abs=1e-14)
    assert out["rhs"] == pytest.approx(2.0, abs=1e-13)
    assert out["residual"] <= 1e-14


def test_det_identity_random_draws():
    dims_cycle = [(3, 2, 1), (4, 3, 2), (6, 4, 2)]
    rng = rng_for(6)
    worst = 0.0
    for i in range(25):
        data = general_data(rng, dims_cycle[i % 3])
        worst = max(worst, prop_d_gaussian_check(data)["residual"])
    assert worst <= 1e-10


def test_det_identity_rejects_degenerate_averaging():
    data = scalar_reference_data()
    degenerate = RGData(data.space_minus, data.space_mid, data.space_plus,
                        data.q_minus, Operator(data.space_mid, data.space_plus,
                                               np.zeros((1, 1))),
                        data.b, data.fq, data.d)
    with pytest.raises(BlockspinError, match="degenerate"):
        prop_d_gaussian_check(degenerate)


# --- fluctuation integral --------------------------------------------------

def test_fluctuation_exact_free_reference():
    spec = scalar_reference_spec(g=0.0)
    assert fluctuation_integral(spec, None, None) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_fluctuation_exact_equals_cov_determinant():
    rng = rng_for(7)
    spec = general_spec(rng, (3, 2, 1), bidegrees=())
    got = fluctuation_integral(spec, None, None)
    want = complex(np.linalg.det(spec.kernels.cov.entries))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_fluctuation_exact_mode_needs_free_interaction():
    spec = scalar_reference_spec(g=0.1)
    with pytest.raises(BlockspinError, match="radius"):
        fluctuation_integral(spec, np.array([0.1]), np.array([0.1]))


def test_fluctuation_quadrature_recovers_whole_space():
    spec = scalar_reference_spec(g=0.0)
    theta = np.array([0.3])
    got = fluctuation_integral(spec, theta, theta, radius=7.0, nodes_per_axis=32)
    assert abs(got - 2.0 / 3.0) * 1.5 <= 1e-6


def test_fluctuation_shrinks_with_the_domain():
    spec = scalar_reference_spec(g=0.05)
    theta = np.array([0.3])
    got = fluctuation_integral(spec, theta, theta, radius=1e-6, nodes_per_axis=8)
    assert abs(got) <= 1e-10


def test_fluctuation_matches_nodewise_increments():
    # F is the split's factor; summing w exp(-delta_a) node by node over the
    # same disc, with the increment solved directly and by the line-integral
    # formula on its degree-6 series, must give the same value
    spec = scalar_reference_spec(g=0.05)
    theta = np.array([0.25 + 0.1j])
    theta_star = np.conj(theta)
    got = fluctuation_integral(spec, theta_star, theta, radius=1.0, nodes_per_axis=16)
    psi_star_cr, psi_cr = solvers.newton_critical(spec, theta_star, theta, tol=1e-13)
    series = solvers.delta_phi_plus_series(spec, theta_star, theta, max_degree=6)
    u, w_u = _polar_grid(0.0, 1.0, 16, 16)
    direct, formula = [], []
    for node, w in zip(u, w_u):
        dpsi_star = np.array([np.conj(node)]) - psi_star_cr.components
        dpsi = np.array([node]) - psi_cr.components
        da = solvers.delta_a_direct(spec, theta_star, theta, dpsi_star, dpsi)
        direct.append(w * np.exp(-da))
        da = solvers.delta_a_formula(spec, theta_star, theta, dpsi_star, dpsi, 6,
                                     increment_plus=series)
        formula.append(w * np.exp(-da))
    direct, formula = np.sum(direct), np.sum(formula)
    assert abs(got - direct) / abs(direct) <= 1e-12
    assert abs(direct - formula) / abs(direct) <= 1e-8


def test_fluctuation_rejects_off_slice_points():
    spec = scalar_reference_spec(g=0.05)
    with pytest.raises(BlockspinError, match="conjugate"):
        fluctuation_integral(spec, np.array([0.3]), np.array([0.4]), radius=1.0)


# --- disc quadrature of the full split -------------------------------------

def test_split_identity_free_field():
    # exact for every radius pair; only grid resolution and the tail remain
    out = prop_d_quadrature_check(scalar_reference_spec(g=0.0), (1.0, 0.8),
                                  nodes_per_axis=24)
    assert out["relative_difference"] <= 1e-6
    assert out["within_tolerance"]


def test_split_identity_interacting():
    out = prop_d_quadrature_check(scalar_reference_spec(g=0.05), (1.0, 1.0),
                                  nodes_per_axis=32)
    assert out["relative_difference"] <= 1e-3
    assert max(out["node_deviation"].values()) <= 5e-4
    assert out["within_tolerance"]


def test_split_reproduces_whole_space_determinants():
    out = prop_d_quadrature_check(scalar_reference_spec(g=0.0), (7.0, 9.0),
                                  nodes_per_axis=48)
    assert abs(out["lhs"] - 2.0) / 2.0 <= 1e-6
    assert abs(out["rhs"] - 2.0) / 2.0 <= 1e-6


def test_split_identity_with_insertion_weight():
    def weight(psi_star, psi):
        return 0.05 * psi_star * psi

    out = prop_d_quadrature_check(scalar_reference_spec(g=0.0), (1.0, 0.9),
                                  nodes_per_axis=24, e_callback=weight)
    assert out["relative_difference"] <= 1e-6


def test_split_node_check_catches_coarse_grids():
    with pytest.raises(QuadratureError, match="disagree"):
        prop_d_quadrature_check(scalar_reference_spec(g=0.0), (7.0, 9.0),
                                nodes_per_axis=6, tolerance=1e-6)


def test_quadrature_mode_gates():
    rng = rng_for(8)
    wide = general_spec(rng, (2, 2, 1), identity_grams=True)
    with pytest.raises(BlockspinError, match=r"dims \(1, 1, 1\)"):
        prop_d_quadrature_check(wide, (1.0, 1.0), nodes_per_axis=8)
    curved = general_spec(rng, (1, 1, 1))
    with pytest.raises(BlockspinError, match="identity form"):
        prop_d_quadrature_check(curved, (1.0, 1.0), nodes_per_axis=8)
    with pytest.raises(BlockspinError, match="positive"):
        prop_d_quadrature_check(scalar_reference_spec(g=0.0), (-1.0, 1.0),
                                nodes_per_axis=8)


def dense_coupling_rowsum(b, q, theta, u, w_vals):
    """The unblocked coupling sum in 256-row chunks, the bit-level oracle."""
    chunk = 256
    out = np.empty(theta.shape, dtype=complex)
    qu = q * u
    for lo in range(0, theta.size, chunk):
        blk = theta[lo:lo + chunk, None] - qu[None, :]
        out[lo:lo + chunk] = np.exp(-b * np.abs(blk) ** 2) @ w_vals
    return out


def coupling_inputs(n_u, n_theta):
    u, w_u = _polar_grid(0.0, 2.0, n_u, n_u)
    w_vals = w_u * np.exp(-np.abs(u) ** 2 + 0.3j * u.real)
    theta, _ = _polar_grid(0.0, 2.5, n_theta, n_theta)
    return theta, u, w_vals


@pytest.mark.parametrize("b", [1.0, 1.7])
@pytest.mark.parametrize("q", [1.0, 0.6])
def test_coupling_rowsum_matches_dense_sum(b, q):
    # 257 and 513 leave the dense sum a one-row chunk, whose product takes
    # numpy's dot path rather than gemv
    theta, u, w_vals = coupling_inputs(32, 64)
    for size in (1, 2, 17, 33, 255, 256, 257, 513, 4096):
        got = _coupling_rowsum(b, q, theta[:size], u, w_vals)
        want = dense_coupling_rowsum(b, q, theta[:size], u, w_vals)
        assert got.tobytes() == want.tobytes(), size


def test_coupling_rowsum_has_no_full_size_temporaries():
    # the dense sum's (256, 96^2) temporaries trace at about 95 MB
    theta, u, w_vals = coupling_inputs(96, 96)
    tracemalloc.start()
    try:
        _coupling_rowsum(1.3, 0.8, theta, u, w_vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


BAD_GRIDS = {
    "fluct-radius-negative": ("fluct", {"radius": -1.0}, "radius"),
    "fluct-radius-zero": ("fluct", {"radius": 0.0}, "radius"),
    "fluct-radius-nan": ("fluct", {"radius": float("nan")}, "radius"),
    "fluct-radius-inf": ("fluct", {"radius": float("inf")}, "radius"),
    "fluct-nodes-zero": ("fluct", {"radius": 1.0, "nodes_per_axis": 0}, "nodes_per_axis"),
    "fluct-nodes-float": ("fluct", {"radius": 1.0, "nodes_per_axis": 8.5}, "nodes_per_axis"),
    "split-radius-nan": ("split", {"radii": (float("nan"), 1.0)}, r"radii\[0\]"),
    "split-radius-inf": ("split", {"radii": (1.0, float("inf"))}, r"radii\[1\]"),
    "split-nodes-zero": ("split", {"radii": (1.0, 1.0), "nodes_per_axis": 0},
                         "nodes_per_axis"),
    "split-nodes-negative": ("split", {"radii": (1.0, 1.0), "nodes_per_axis": -4},
                             "nodes_per_axis"),
}


@pytest.mark.parametrize("entry, kwargs, name", BAD_GRIDS.values(), ids=BAD_GRIDS)
def test_quadrature_grids_are_checked(entry, kwargs, name):
    spec = scalar_reference_spec(g=0.05)
    theta = np.array([0.3])
    with pytest.raises(BlockspinError, match=name):
        if entry == "fluct":
            fluctuation_integral(spec, theta, theta, **kwargs)
        else:
            prop_d_quadrature_check(spec, kwargs.pop("radii"), **kwargs)


def test_background_grid_reports_no_convergence(monkeypatch):
    monkeypatch.setattr(gaussian, "_GRID_MAX_ITER", 1)
    with pytest.raises(ConvergenceError,
                       match="^background grid: no convergence after 1 iterations"):
        prop_d_quadrature_check(scalar_reference_spec(g=0.05), (1.0, 1.0), nodes_per_axis=8)


def test_critical_grid_reports_no_convergence():
    # theta out to 1000 drives the critical grid's Newton away from its root
    with pytest.raises(ConvergenceError,
                       match=r"^critical grid: no convergence after 60 iterations "
                             r"\(max residual .*, tolerance 1\.000e-12\)$"):
        prop_d_quadrature_check(scalar_reference_spec(g=0.05), (1.0, 1000.0), nodes_per_axis=8)


def test_grid_newton_reads_a_nan_as_not_converged():
    # only the second row of the residual is NaN; the first is converged
    steps = []

    def residual(z):
        return np.array([[1e-13, 1e-13], [1e-13, np.nan]])

    def step(z, r):
        steps.append(z)
        return z

    with pytest.raises(ConvergenceError, match=r"^stub grid: .*\(max residual nan,"):
        gaussian._grid_newton(residual, step, (np.zeros(2), np.zeros(2)), "stub")
    assert len(steps) == gaussian._GRID_MAX_ITER
