"""Shared generators for randomized fixtures.

Philox streams are keyed per test module and tag so every test draws an
independent, reproducible sequence regardless of execution order.  The
draw recipes are the package's own (blockspin.ensembles); the ``general_*``
helpers default to random grams.
"""

import numpy as np

from blockspin import ensembles

random_spd = ensembles.random_spd
random_poly = ensembles.random_polynomial
random_field = ensembles.random_field


def make_rng(module_key: int, tag: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([module_key, tag], dtype=np.uint64)))


def general_data(rng, dims, identity_grams=False):
    """RGData draw with positive kernels; grams random SPD unless disabled."""
    return ensembles.random_rg_data(rng, dims, identity_grams=identity_grams)


def general_spec(rng, dims, bidegrees=((1, 2), (0, 3), (2, 2)), scale=0.3,
                 max_cond=None, identity_grams=False):
    """Well-posed random ActionSpec; rejection keeps kernels comfortably
    conditioned when max_cond is given."""
    return ensembles.random_spec(rng, dims, bidegrees, scale, max_cond,
                                 identity_grams=identity_grams)
