"""Direct search over qubit projective measurements: an oracle for the
closed-form binary optimum (the Helstrom measurement that
``detection.minimum_error_iterate`` returns for two keys)."""

import numpy as np

from qseclab.detection import POVM, DiscriminationResult
from qseclab.errors import DimensionMismatchError
from qseclab.operators import DensityOperator

ORACLE_GRID = 100  # angles per axis of the oracle's first scan
ORACLE_ZOOMS = 5


def brute_force_binary_qubit(
    rho: DensityOperator, sigma: DensityOperator, prior: float
) -> DiscriminationResult:
    """Direct maximization over qubit projective measurements.

    Scans a deterministic angle grid of ``ORACLE_GRID``^2 Bloch directions,
    evaluating the success functional by plain traces, then zooms a 21x21
    angle grid onto the best point ``ORACLE_ZOOMS`` times, each spanning one
    previous step either side.  Serves as an oracle for the closed form (no
    eigen-decomposition); restricted to dimension 2.
    """
    if rho.matrix.shape != (2, 2) or sigma.matrix.shape != (2, 2):
        raise DimensionMismatchError("brute-force oracle is restricted to qubits")

    def successes(thetas, phis):
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        kets = np.stack(
            [np.cos(tt / 2).ravel(), (np.exp(1j * pp) * np.sin(tt / 2)).ravel()], axis=1
        )
        p_rho = np.einsum("ga,ab,gb->g", kets.conj(), rho.matrix, kets).real
        p_sigma = np.einsum("ga,ab,gb->g", kets.conj(), sigma.matrix, kets).real
        values = prior * p_rho + (1.0 - prior) * (1.0 - p_sigma)
        best = int(np.argmax(values))
        return float(values[best]), float(tt.ravel()[best]), float(pp.ravel()[best])

    m = ORACLE_GRID
    success, theta, phi = successes(
        np.linspace(0.0, np.pi, m), np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    )
    span_theta, span_phi = np.pi / (m - 1), 2.0 * np.pi / m
    offsets = np.linspace(-1.0, 1.0, 21)
    for _ in range(ORACLE_ZOOMS):
        value, t, p = successes(theta + span_theta * offsets, phi + span_phi * offsets)
        if value > success:
            success, theta, phi = value, t, p
        span_theta, span_phi = span_theta / 10.0, span_phi / 10.0
    ket = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    projector = np.outer(ket, ket.conj())
    return DiscriminationResult(
        success_probability=min(success, 1.0),
        elements=POVM((projector, np.eye(2) - projector)).stack,
        method="brute_force",
        converged=True,
        iterations=ORACLE_ZOOMS,
    )
