"""Born-rule outcome probabilities, one trace per element: a test oracle."""

import numpy as np

from qseclab.errors import DimensionMismatchError


def outcome_distribution(povm, rho) -> np.ndarray:
    """Outcome probabilities tr(E_y rho) of a POVM, clipped onto the simplex."""
    if povm.dim != len(rho.matrix):
        raise DimensionMismatchError(f"POVM dim {povm.dim} != state dim {len(rho.matrix)}")
    probs = np.array([float(np.trace(el @ rho.matrix).real) for el in povm.stack])
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()
