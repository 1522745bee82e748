"""Born-rule outcome probabilities, one trace per element: a test oracle."""

import numpy as np

from qseclab.errors import DimensionMismatchError


def outcome_distribution(elements, rho) -> np.ndarray:
    """Outcome probabilities tr(E_y rho) of a measurement's (outcomes, d, d)
    elements, clipped onto the simplex."""
    dim = elements.shape[-1]
    if dim != len(rho.matrix):
        raise DimensionMismatchError(f"POVM dim {dim} != state dim {len(rho.matrix)}")
    probs = np.array([float(np.trace(el @ rho.matrix).real) for el in elements])
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()
