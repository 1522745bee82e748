"""Pure states from amplitude vectors: test input."""

import numpy as np

from qseclab.errors import NotPositiveError
from qseclab.operators import DensityOperator


def pure_state(amplitudes) -> DensityOperator:
    """Density operator of the pure state with the given amplitudes.

    The amplitude vector is normalized before the projector is formed.
    """
    ket = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(ket)
    if norm == 0:
        raise NotPositiveError(0.0, "zero amplitude vector")
    ket = ket / norm
    return DensityOperator(np.outer(ket, ket.conj()))
