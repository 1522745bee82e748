"""Single random states drawn by the campaign generators: test input."""

import numpy as np

from qseclab.bounds import _random_mixed_stack, _random_pure_stack
from qseclab.operators import DensityOperator


def random_pure_state(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Projector onto a spherically symmetric random complex vector."""
    return DensityOperator(_random_pure_stack(1, dim, rng)[0])


def random_mixed_state(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Reduced state of a random pure state on the squared dimension."""
    return DensityOperator(_random_mixed_stack(1, dim, rng)[0])
