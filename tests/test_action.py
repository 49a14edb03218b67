"""Action values, analytic gradients, and the preparation identity."""

from collections import Counter

import numpy as np
import pytest

from blockspin import kernels, linalg
from blockspin.action import (
    base_action,
    effective_action,
    full_action,
    grad_base_action,
    grad_effective_action,
    grad_full_action,
    grad_next_action,
    make_action_spec,
    next_action,
    preparation_check,
    psi_tilde,
)
from blockspin.kernels import identity_suite
from blockspin.linalg import FieldVector, components
from blockspin.reference import scalar_reference_spec
from conftest import general_data, general_spec, make_rng, random_field, random_poly


def rng_for(tag: int) -> np.random.Generator:
    return make_rng(389, tag)


# ---------------------------------------------------------------------------
# values on the scalar reference model


def test_scalar_action_values():
    spec = scalar_reference_spec(g=1.0)
    one = np.array([1.0 + 0.0j])
    zero = np.array([0.0 + 0.0j])
    assert base_action(spec, one, one) == pytest.approx(2.0)
    assert full_action(spec, one, one, one, one) == pytest.approx(2.0)
    assert full_action(spec, one, one, zero, zero) == pytest.approx(1.0)
    spec0 = scalar_reference_spec(g=0.0)
    assert effective_action(spec0, one, one, zero, zero, zero, zero) == pytest.approx(1.0)
    # coarse kernel 1/2 shows up directly
    assert next_action(spec0, one, one, zero, zero) == pytest.approx(0.5)
    two = np.array([2.0 + 0.0j])
    assert next_action(spec0, two, two, two, two) == pytest.approx(4.0)


def test_full_action_reduces_to_base_on_averaged_fields():
    rng = rng_for(1)
    spec = general_spec(rng, (3, 2, 2))
    phi_star = random_field(rng, spec.rg.space_minus)
    phi = random_field(rng, spec.rg.space_minus)
    psi_star = FieldVector(spec.rg.space_mid, spec.rg.q_minus.entries @ phi_star.components)
    psi = FieldVector(spec.rg.space_mid, spec.rg.q_minus.entries @ phi.components)
    lhs = full_action(spec, psi_star, psi, phi_star, phi)
    rhs = base_action(spec, phi_star, phi)
    assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# analytic gradients against central finite differences


def fd_gradient(f, point, step=1e-6):
    """Central finite differences of a scalar function of one complex vector."""
    out = np.zeros(point.shape, dtype=complex)
    for k in range(point.size):
        e = np.zeros(point.shape, dtype=complex)
        e[k] = step
        out[k] = (f(point + e) - f(point - e)) / (2 * step)
    return out


def check_gradient_slot(space, grad_vec, f, point, tol=1e-7):
    # directional derivative along e_k is the k-th entry of gram @ grad
    fd = fd_gradient(f, components(point))
    analytic = space.gram @ grad_vec.components
    scale = max(1.0, float(np.linalg.norm(analytic)))
    assert np.linalg.norm(fd - analytic) / scale < tol


def test_base_and_full_gradients_match_finite_differences():
    rng = rng_for(2)
    spec = general_spec(rng, (3, 2, 1))
    sm, smid = spec.rg.space_minus, spec.rg.space_mid
    for _ in range(5):
        phi_star, phi = random_field(rng, sm), random_field(rng, sm)
        psi_star, psi = random_field(rng, smid), random_field(rng, smid)
        g_star, g_unstar = grad_base_action(spec, phi_star, phi)
        check_gradient_slot(sm, g_star, lambda v: base_action(spec, v, phi), phi_star.components)
        check_gradient_slot(sm, g_unstar, lambda v: base_action(spec, phi_star, v), phi.components)
        g = grad_full_action(spec, psi_star, psi, phi_star, phi)
        check_gradient_slot(smid, g["psi_star"],
                            lambda v: full_action(spec, v, psi, phi_star, phi),
                            psi_star.components)
        check_gradient_slot(smid, g["psi"],
                            lambda v: full_action(spec, psi_star, v, phi_star, phi),
                            psi.components)
        check_gradient_slot(sm, g["phi_star"],
                            lambda v: full_action(spec, psi_star, psi, v, phi),
                            phi_star.components)
        check_gradient_slot(sm, g["phi"],
                            lambda v: full_action(spec, psi_star, psi, phi_star, v),
                            phi.components)


def test_effective_and_next_gradients_match_finite_differences():
    rng = rng_for(3)
    spec = general_spec(rng, (3, 2, 2))
    sm, smid, sp = spec.rg.space_minus, spec.rg.space_mid, spec.rg.space_plus
    for _ in range(5):
        phi_star, phi = random_field(rng, sm), random_field(rng, sm)
        psi_star, psi = random_field(rng, smid), random_field(rng, smid)
        theta_star, theta = random_field(rng, sp), random_field(rng, sp)
        g = grad_effective_action(spec, theta_star, theta, psi_star, psi, phi_star, phi)
        check_gradient_slot(sp, g["theta_star"],
                            lambda v: effective_action(spec, v, theta, psi_star, psi, phi_star, phi),
                            theta_star.components)
        check_gradient_slot(sp, g["theta"],
                            lambda v: effective_action(spec, theta_star, v, psi_star, psi, phi_star, phi),
                            theta.components)
        check_gradient_slot(smid, g["psi_star"],
                            lambda v: effective_action(spec, theta_star, theta, v, psi, phi_star, phi),
                            psi_star.components)
        check_gradient_slot(smid, g["psi"],
                            lambda v: effective_action(spec, theta_star, theta, psi_star, v, phi_star, phi),
                            psi.components)
        check_gradient_slot(sm, g["phi_star"],
                            lambda v: effective_action(spec, theta_star, theta, psi_star, psi, v, phi),
                            phi_star.components)
        gn = grad_next_action(spec, theta_star, theta, phi_star, phi)
        check_gradient_slot(sp, gn["theta_star"],
                            lambda v: next_action(spec, v, theta, phi_star, phi),
                            theta_star.components)
        check_gradient_slot(sp, gn["theta"],
                            lambda v: next_action(spec, theta_star, v, phi_star, phi),
                            theta.components)
        check_gradient_slot(sm, gn["phi_star"],
                            lambda v: next_action(spec, theta_star, theta, v, phi),
                            phi_star.components)
        check_gradient_slot(sm, gn["phi"],
                            lambda v: next_action(spec, theta_star, theta, phi_star, v),
                            phi.components)


# ---------------------------------------------------------------------------
# interpolating middle field


def test_psi_tilde_scalar_reference():
    spec = scalar_reference_spec(g=0.7)  # interaction plays no role here
    theta = np.array([0.8 + 0.2j])
    phi = np.array([-0.3 + 0.5j])
    out = psi_tilde(spec, theta, phi)
    assert np.allclose(out.components, (theta + phi) / 2.0, atol=1e-14)
    out0 = psi_tilde(spec, theta, np.zeros(1))
    assert np.allclose(out0.components, theta / 2.0, atol=1e-14)


def test_psi_tilde_reproduces_averaged_field():
    rng = rng_for(4)
    for _ in range(5):
        spec = general_spec(rng, (3, 2, 2))
        phi = random_field(rng, spec.rg.space_minus)
        qm_phi = spec.rg.q_minus.entries @ phi.components
        theta = FieldVector(spec.rg.space_plus, spec.rg.q.entries @ qm_phi)
        out = psi_tilde(spec, theta, phi)
        assert np.linalg.norm(out.components - qm_phi) < 1e-10 * max(
            1.0, np.linalg.norm(qm_phi))


# ---------------------------------------------------------------------------
# preparation identity


def test_preparation_scalar_reference_free():
    rng = rng_for(5)
    spec = scalar_reference_spec(g=0.0)
    for _ in range(5):
        args = [rng.standard_normal(1) + 1j * rng.standard_normal(1) for _ in range(4)]
        value_res, grad_res = preparation_check(spec, *args)
        assert value_res <= 1e-14
        assert grad_res <= 1e-14


def test_preparation_identity_random_interactions():
    rng = rng_for(6)
    worst_value, worst_grad = 0.0, 0.0
    for _ in range(8):
        spec = general_spec(rng, (4, 3, 2), bidegrees=((1, 2), (0, 3), (2, 2), (1, 3)))
        theta_star = random_field(rng, spec.rg.space_plus)
        theta = random_field(rng, spec.rg.space_plus)
        phi_star = random_field(rng, spec.rg.space_minus)
        phi = random_field(rng, spec.rg.space_minus)
        value_res, grad_res = preparation_check(spec, theta_star, theta, phi_star, phi)
        worst_value = max(worst_value, value_res)
        worst_grad = max(worst_grad, grad_res)
    assert worst_value <= 1e-11
    assert worst_grad <= 1e-9


def test_preparation_at_origin_is_exact():
    spec = scalar_reference_spec(g=0.4)
    zero = np.zeros(1)
    value_res, grad_res = preparation_check(spec, zero, zero, zero, zero)
    assert value_res == 0.0
    assert grad_res == 0.0



# ---------------------------------------------------------------------------
# each fixed map of a step is derived once


def test_make_action_spec_takes_each_adjoint_once(monkeypatch):
    rng = rng_for(9)
    data = general_data(rng, (3, 2, 1))
    p = random_poly(rng, data.space_minus, ((1, 2), (0, 3)))
    taken = Counter()

    def counting_adjoint(a):
        taken[a.entries.tobytes()] += 1
        return linalg.adjoint(a)

    built = []
    post_init = kernels.RGData.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(kernels, "adjoint", counting_adjoint)
    monkeypatch.setattr(kernels.RGData, "__post_init__", counting_post_init)
    make_action_spec(data, p)
    maps = {"q_minus": data.q_minus, "q": data.q, "qcm": data.q @ data.q_minus, "d": data.d}
    counts = {name: taken[op.entries.tobytes()] for name, op in maps.items()}
    assert max(counts.values()) <= 1, counts
    assert built == []


def test_each_kernel_of_a_spec_is_built_once(monkeypatch):
    # random grams: adjoint(d) differs from d, so the starred kernels are
    # built on their own, once for the spec and never again for the suite
    data = general_data(rng_for(11), (3, 2, 1))
    assert data.dstar.tobytes() != data.d.entries.tobytes()
    built = []
    d_kernels = kernels._d_kernels

    def counting_d_kernels(rg, d, qcheck):
        built.append("d" if d is data.d.entries else "adjoint of d")
        return d_kernels(rg, d, qcheck)

    monkeypatch.setattr(kernels, "_d_kernels", counting_d_kernels)
    spec = make_action_spec(data)
    identity_suite(spec.rg, spec.kernels)
    assert built == ["d", "adjoint of d"]


def test_preparation_inverts_the_critical_operator_once(monkeypatch):
    rng = rng_for(10)
    spec = general_spec(rng, (3, 2, 1))
    gated = Counter()
    gate = linalg.gate

    def counting_gate(mat, assumption):
        gated[assumption] += 1
        return gate(mat, assumption)

    monkeypatch.setattr(linalg, "gate", counting_gate)
    sp, sm = spec.rg.space_plus, spec.rg.space_minus
    for _ in range(20):
        preparation_check(spec, random_field(rng, sp, 0.5), random_field(rng, sp, 0.5),
                          random_field(rng, sm, 0.5), random_field(rng, sm, 0.5))
    # two psi_tilde solves per point, one inverse for the chain term
    assert gated["b q*q + fq"] == 41
