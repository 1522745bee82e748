"""Random joint distributions over a grid: input for the Pinsker campaigns."""

import numpy as np


def random_joint(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """A random joint distribution over a rows-by-cols grid."""
    j = rng.exponential(size=(rows, cols))
    return j / j.sum()
