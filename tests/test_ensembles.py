"""Stream keying and the documented draw recipes."""

import numpy as np

from blockspin.ensembles import (
    random_field,
    random_polynomial,
    random_rg_data,
    random_spd,
    random_spec,
    stream,
    unit_field,
)
from blockspin.linalg import SpaceSpec, form_asymmetry


def test_stream_is_reproducible_per_label():
    a = stream(9, "woodbury").standard_normal(8)
    b = stream(9, "woodbury").standard_normal(8)
    assert np.array_equal(a, b)


def test_streams_differ_by_label_and_seed():
    base = stream(9, "woodbury").standard_normal(8)
    other_label = stream(9, "qcheck").standard_normal(8)
    other_seed = stream(10, "woodbury").standard_normal(8)
    assert not np.array_equal(base, other_label)
    assert not np.array_equal(base, other_seed)


def test_stream_accepts_full_64_bit_seeds():
    g = stream(2**64 - 1, "x")
    assert np.isfinite(g.standard_normal())


def test_random_spd_is_symmetric_positive():
    m = random_spd(stream(3, "spd"), 6)
    assert np.allclose(m, m.T)
    assert np.linalg.eigvalsh(m).min() > 0


def test_rg_data_kernels_are_form_symmetric_positive():
    data = random_rg_data(stream(4, "data"), (3, 2, 1), identity_grams=False)
    for op in (data.fq, data.d):
        assert form_asymmetry(op) < 1e-12
        gram_form = op.domain.gram @ op.entries
        assert np.linalg.eigvalsh(0.5 * (gram_form + gram_form.T)).min().real > 0


def test_rg_data_fixed_b_is_respected():
    data = random_rg_data(stream(4, "data"), (3, 2, 1), b=1.75)
    assert data.b == 1.75


def test_random_polynomial_is_symmetric_by_construction():
    p = random_polynomial(stream(5, "poly"), SpaceSpec(3), ((1, 2), (2, 2)))
    assert set(p.monomials) == {(1, 2), (2, 2)}


def test_unit_field_has_exact_norm():
    v = unit_field(stream(6, "field"), SpaceSpec(4), scale=0.2)
    assert abs(np.linalg.norm(v.components) - 0.2) < 1e-15


def test_random_field_scales():
    rng = stream(6, "field")
    a = random_field(rng, SpaceSpec(4), scale=2.0)
    assert a.components.shape == (4,)


def test_random_spec_honors_cond_gate():
    spec = random_spec(stream(7, "spec"), (3, 2, 1), max_cond=1e3)
    assert max(spec.kernels.diagnostics.values()) <= 1e3


def test_random_spec_is_reproducible():
    a = random_spec(stream(8, "spec"), (4, 3, 2), max_cond=1e4)
    b = random_spec(stream(8, "spec"), (4, 3, 2), max_cond=1e4)
    assert np.array_equal(a.rg.q.entries, b.rg.q.entries)
    assert np.array_equal(a.p.monomials[(1, 2)], b.p.monomials[(1, 2)])
