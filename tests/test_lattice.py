import numpy as np
import pytest

from blockspin.lattice import (
    BlockScheme,
    TorusLattice,
    averaging_operator,
    build_tower,
    sublattice,
)


def test_sublattice_shapes():
    lat = TorusLattice((4, 2, 2, 2))
    sub = sublattice(lat, BlockScheme((4, 2, 2, 2)))
    assert sub.extents == (1, 1, 1, 1)
    assert sublattice(TorusLattice((6, 4)), BlockScheme((3, 2))).extents == (2, 2)


def test_sublattice_divisibility_error_names_axis():
    with pytest.raises(ValueError, match="axis 1"):
        sublattice(TorusLattice((4, 3)), BlockScheme((2, 2)))


def test_row_major_indexing():
    lat = TorusLattice((2, 3))
    assert [lat.index((i, j)) for i in range(2) for j in range(3)] == list(range(6))
    assert lat.coords(4) == (1, 1)
    # periodic wrap
    assert lat.index((2, 3)) == 0


def test_uniform_average_on_line():
    # extents (4,), block (2,), uniform profile: psi = (1,3,5,7) -> (2, 6)
    lat = TorusLattice((4,))
    q = averaging_operator(lat, BlockScheme((2,)))
    out = q.apply(np.array([1.0, 3.0, 5.0, 7.0]))
    assert np.allclose(out.components, [2.0, 6.0])


def test_decimation_profile():
    lat = TorusLattice((4,))
    q = averaging_operator(lat, BlockScheme.decimation((2,)))
    out = q.apply(np.array([1.0, 3.0, 5.0, 7.0]))
    assert np.allclose(out.components, [1.0, 5.0])


def test_profile_validation():
    with pytest.raises(ValueError, match="sum"):
        BlockScheme((2,), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="weights"):
        BlockScheme((2, 2), np.array([0.5, 0.5]))


def test_constants_are_preserved():
    lat = TorusLattice((6, 4))
    q = averaging_operator(lat, BlockScheme((3, 2)))
    ones = np.ones(lat.size)
    assert np.allclose(q.apply(ones).components, 1.0)
    # every row of a normalized profile sums to one
    assert np.allclose(q.entries.sum(axis=1), 1.0)


def test_full_rank_for_nonzero_profiles():
    lat = TorusLattice((4, 4))
    for scheme in (BlockScheme((2, 2)),
                   BlockScheme.decimation((2, 2)),
                   BlockScheme((2, 2), np.array([0.7, 0.1, 0.1, 0.1]))):
        q = averaging_operator(lat, scheme)
        assert np.linalg.matrix_rank(q.entries) == sublattice(lat, scheme).size


def test_translation_equivariance():
    # shifting the fine field by one block equals shifting the coarse field
    # by one site, on every axis
    lat = TorusLattice((6, 4))
    scheme = BlockScheme((3, 2))
    q = averaging_operator(lat, scheme)
    sub = sublattice(lat, scheme)
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(lat.size)
    for axis in range(lat.ndim):
        shifted = np.roll(psi.reshape(lat.extents), scheme.block[axis], axis=axis).reshape(-1)
        coarse_shifted = np.roll(
            q.apply(psi).components.reshape(sub.extents), 1, axis=axis
        ).reshape(-1)
        assert np.allclose(q.apply(shifted).components, coarse_shifted, atol=1e-14)


def test_compose_averaging_uniform_quarter():
    lat = TorusLattice((4,))
    scheme = BlockScheme((2,))
    q1 = averaging_operator(lat, scheme)
    q2 = averaging_operator(sublattice(lat, scheme), scheme)
    composed = q2 @ q1
    assert np.allclose(composed.entries, 0.25)
    assert composed.entries.shape == (1, 4)


def test_tower_on_line_of_eight():
    tower = build_tower(TorusLattice((8,)), BlockScheme((2,)), 3)
    assert [lv.lattice.size for lv in tower] == [8, 4, 2, 1]
    # cumulative operators chain the steps
    acc = tower[0].cumulative.entries
    for lv in tower[1:]:
        acc = lv.step.entries @ acc
        assert np.allclose(lv.cumulative.entries, acc)
    # a constant survives to the top
    assert tower[-1].cumulative.apply(np.ones(8)).components[0] == pytest.approx(1.0)


def test_tower_errors():
    assert len(build_tower(TorusLattice((8,)), BlockScheme((2,)), 0)) == 1
    with pytest.raises(ValueError, match="step 4"):
        build_tower(TorusLattice((8,)), BlockScheme((2,)), 4)
