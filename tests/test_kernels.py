import numpy as np
import pytest

from blockspin.errors import NearSingularError
from blockspin.kernels import (
    RGData,
    build_kernels,
    identity_suite,
    next_scale_delta,
    qcheck_alt,
    qcheck_recursion,
    starred_kernels,
)
from blockspin.ensembles import random_rg_data, stream
from blockspin.linalg import Operator, SpaceSpec, adjoint, cond, rel_opnorm
from blockspin.reference import scalar_reference_data


def rng_for(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([811, tag], dtype=np.uint64)))


def random_data(rng, dims=(3, 2, 1), b=None, symmetric_d=True, max_cond=1e6):
    """Draw RGData from the standard ensemble, rejecting ill-conditioned sets."""
    dm, d, dp = dims
    sm, smid, sp = SpaceSpec(dm), SpaceSpec(d), SpaceSpec(dp)
    for _ in range(200):
        a = rng.standard_normal((d, d))
        fq = a @ a.T + 0.1 * np.eye(d)
        bmat = rng.standard_normal((dm, dm))
        if symmetric_d:
            dd = bmat @ bmat.T + 0.1 * np.eye(dm)
        else:
            dd = bmat @ bmat.T + 0.1 * np.eye(dm) + 0.3 * rng.standard_normal((dm, dm))
        data = RGData(sm, smid, sp,
                      q_minus=Operator(sm, smid, rng.standard_normal((d, dm))),
                      q=Operator(smid, sp, rng.standard_normal((dp, d))),
                      b=b if b is not None else float(rng.uniform(0.5, 2.0)),
                      fq=Operator(smid, smid, fq),
                      d=Operator(sm, sm, dd))
        try:
            ks = build_kernels(data)
        except NearSingularError:
            continue
        if max(ks.diagnostics.values()) <= max_cond and cond(data.d) <= max_cond:
            return data, ks
    raise RuntimeError("no acceptable draw found")


def test_scalar_reference_kernels():
    data = scalar_reference_data()
    ks = build_kernels(data)
    assert ks.qcheck.entries[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert ks.s.entries[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert ks.scheck.entries[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert ks.delta.entries[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert ks.cov.entries[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert next_scale_delta(data, ks).entries[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_rgdata_validation():
    s = SpaceSpec(1)
    one = Operator(s, s, np.eye(1))
    with pytest.raises(ValueError, match="positive"):
        RGData(s, s, s, one, one, -1.0, one, one)
    with pytest.raises(ValueError, match="positive definite"):
        RGData(s, s, s, one, one, 1.0, Operator(s, s, [[-1.0]]), one)
    asym = Operator(SpaceSpec(2), SpaceSpec(2),
                    np.array([[1.0, 0.5], [0.0, 1.0]]))
    s2 = SpaceSpec(2)
    id2 = Operator(s2, s2, np.eye(2))
    with pytest.raises(ValueError, match="symmetric"):
        RGData(s2, s2, s2, id2, id2, 1.0, asym, id2)


def test_qcheck_two_routes_agree():
    for tag in range(30):
        rng = rng_for(tag)
        dims = (int(rng.integers(1, 7)), int(rng.integers(1, 9)), 0)
        dims = (dims[0], max(dims[0], dims[1]), int(rng.integers(1, min(dims[1], 4) + 1)))
        data, _ = random_data(rng, dims=(dims[0], dims[1], dims[2]))
        r = rel_opnorm(qcheck_recursion(data) - qcheck_alt(data), qcheck_recursion(data))
        assert r < 1e-11


def test_qcheck_scalar_value():
    # b=1, q=1, fq=1: ((1/1) + 1)^{-1} = 1/2 by both routes
    data = scalar_reference_data()
    assert qcheck_recursion(data).entries[0, 0] == pytest.approx(0.5)
    assert qcheck_alt(data).entries[0, 0] == pytest.approx(0.5)


def test_delta_positive_semidefinite_for_spd_d():
    for tag in range(10):
        data, ks = random_data(rng_for(100 + tag), dims=(4, 3, 2))
        evs = np.linalg.eigvalsh(0.5 * (ks.delta.entries + ks.delta.entries.T).real)
        assert evs.min() > -1e-11


def test_identity_suite_small_residuals():
    for tag in range(10):
        data, ks = random_data(rng_for(200 + tag), dims=(4, 3, 2))
        res = identity_suite(data, ks)
        assert set(res) == {"a", "b", "c", "d", "e"}
        assert max(res.values()) < 1e-11


def test_identity_suite_nonsymmetric_d():
    # the identities hold for invertible non-symmetric d as well
    for tag in range(5):
        data, ks = random_data(rng_for(300 + tag), dims=(3, 3, 2), symmetric_d=False)
        res = identity_suite(data, ks)
        assert max(res.values()) < 1e-11


def test_identity_suite_gates_on_singular_d():
    s = SpaceSpec(2)
    sp = SpaceSpec(1)
    id2 = Operator(s, s, np.eye(2))
    data = RGData(s, s, sp, id2, Operator(s, sp, [[0.0, 1.0]]), 1.0, id2,
                  Operator(s, s, np.diag([1.0, 0.0])))
    with pytest.raises(NearSingularError, match="identity suite"):
        identity_suite(data)


def test_starred_kernels_match_for_symmetric_d():
    data, ks = random_data(rng_for(400), dims=(3, 2, 1))
    s_star, scheck_star, delta_star, cov_star = starred_kernels(data)
    assert rel_opnorm(s_star - ks.s, ks.s) < 1e-12
    assert rel_opnorm(cov_star - ks.cov, ks.cov) < 1e-12


def test_starred_kernels_reuse_unstarred_for_bitwise_symmetric_d():
    # an edA draw: identity grams, so adjoint(d) is d.T, which has the bits of d
    data = random_rg_data(stream(1, "edA"), (4, 3, 2))
    ks = build_kernels(data)
    assert adjoint(data.d).entries.tobytes() == data.d.entries.tobytes()
    starred = starred_kernels(data, ks)
    for got, want in zip(starred, (ks.s, ks.scheck, ks.delta, ks.cov)):
        assert got is want
        assert np.array_equal(got.entries, want.entries)


def test_starred_kernels_are_adjoints():
    # for non-symmetric d: s* is the pairing adjoint of s
    data, ks = random_data(rng_for(401), dims=(3, 2, 1), symmetric_d=False)
    s_star, scheck_star, delta_star, cov_star = starred_kernels(data)
    assert rel_opnorm(s_star - adjoint(ks.s), ks.s) < 1e-11
    assert rel_opnorm(scheck_star - adjoint(ks.scheck), ks.scheck) < 1e-11
    assert rel_opnorm(delta_star - adjoint(ks.delta), ks.delta) < 1e-11
    assert rel_opnorm(cov_star - adjoint(ks.cov), ks.cov) < 1e-11


def test_identity_a_general_pair_family():
    # the resolvent form of delta also holds with q_minus replaced by
    # q_minus m and its partner m^{-1} adjoint(q_minus) for any m that
    # commutes with d; m = 1 + 0.3 d is such a choice
    data, ks = random_data(rng_for(500), dims=(3, 2, 1), symmetric_d=False)
    dm = data.space_minus.dim
    d_inv = np.linalg.inv(data.d.entries)
    m = np.eye(dm) + 0.3 * data.d.entries
    r = data.q_minus.entries @ m
    r_star = np.linalg.solve(m, adjoint(data.q_minus).entries)
    fq = data.fq.entries
    lhs = np.linalg.inv(np.eye(data.space_mid.dim) + fq @ r @ d_inv @ r_star) @ fq
    assert rel_opnorm(lhs - ks.delta.entries, ks.delta) < 1e-11
