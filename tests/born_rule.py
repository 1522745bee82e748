"""Born-rule outcome probabilities, one trace per element: a test oracle."""

import numpy as np

from qseclab.errors import DimensionMismatchError


def outcome_distribution(povm, rho) -> np.ndarray:
    """Outcome probabilities tr(E_y rho) of a POVM, clipped onto the simplex."""
    if povm.dim != rho.dim:
        raise DimensionMismatchError(f"POVM dim {povm.dim} != state dim {rho.dim}")
    probs = np.array([float(np.trace(el @ rho.matrix).real) for el in povm.stack])
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()
