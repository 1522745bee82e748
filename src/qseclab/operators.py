"""Dense complex Hermitian-operator algebra on desk-scale state spaces.

Every function here takes plain arrays.  ``HermitianOperator`` and
``DensityOperator`` are input types only, immutable wrappers around one
validated 2-D ``complex128`` array: a state is validated where it enters,
and the ensembles validate their states as one stack with the same checks
(:func:`_as_states`); matrices derived from validated states are plain
arrays.  All spectral work goes through LAPACK's Hermitian
eigensolver, which is deterministic for identical input bits, so every
derived quantity is bit-reproducible.  Dimensions are capped at 64 (six qubits); nothing here
is sparse or structured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionCapError,
    NotHermitianError,
    NotPositiveError,
    ParseError,
    TraceNotOneError,
    ValidationError,
)

MAX_DIM = 64
HERMITIAN_TOL = 1e-12
POSITIVITY_TOL = 1e-10
TRACE_TOL = 1e-10


def _as_hermitian(matrix, ndim: int = 2) -> np.ndarray:
    """A read-only ``complex128`` copy of one matrix (``ndim`` 2) or a stack
    of matrices (``ndim`` 3), checked in order: square shape, then the
    checks of :func:`_checked_hermitian`."""
    m = np.array(matrix, dtype=np.complex128)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2]:
        kind = "a square matrix" if ndim == 2 else "a stack of square matrices"
        raise NotHermitianError(f"expected {kind}, got shape {m.shape}")
    return _checked_hermitian(m)


def _checked_hermitian(m: np.ndarray) -> np.ndarray:
    """``m``, made read-only, after checks in order: the dimension cap,
    finite entries, Hermiticity within ``HERMITIAN_TOL`` (max entry)."""
    if m.shape[-1] < 1 or m.shape[-1] > MAX_DIM:
        raise DimensionCapError(
            f"dimension {m.shape[-1]} outside supported range [1, {MAX_DIM}]"
        )
    if not np.isfinite(m).all():
        raise NotHermitianError("matrix contains non-finite entries")
    # one complex temporary, in C order like m so that the subtraction runs contiguously
    t = np.conj(np.swapaxes(m, -1, -2), order="C")
    dev = np.abs(np.subtract(m, t, out=t)).max()
    if dev > HERMITIAN_TOL:
        raise NotHermitianError(f"max deviation from conjugate transpose {dev:.3e}")
    m.setflags(write=False)
    return m


def _as_states(matrices) -> tuple[np.ndarray, np.ndarray]:
    """A read-only (K, d, d) ``complex128`` copy of K states and their
    read-only (K, d) ascending spectra, from one batched eigensolve.

    Each state is checked in order: square shape, the dimension cap, finite
    entries, Hermiticity (1e-12, max entry), positivity (eigenvalues >=
    -1e-10; the error reports the most negative one), unit trace (within
    1e-10).  Where a check fails, the first failing key raises the error
    it raises when validated alone.
    """
    m = np.array(matrices, dtype=np.complex128)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape[1:]}")
    try:
        _checked_hermitian(m)
        spectra = np.linalg.eigvalsh(m)
        low = float(spectra[:, 0].min())
        if low < -POSITIVITY_TOL:
            raise NotPositiveError(low)
        traces = m.trace(axis1=1, axis2=2).real
        tr = float(traces[np.argmax(np.abs(traces - 1.0))])  # the farthest from 1
        if abs(tr - 1.0) > TRACE_TOL:
            raise TraceNotOneError(f"trace {tr!r} differs from 1 beyond {TRACE_TOL}")
    except ValidationError:
        if len(m) > 1:  # the first faulty key is in the first half that fails
            half = len(m) // 2
            _as_states(m[:half])
            _as_states(m[half:])
        raise
    spectra.setflags(write=False)
    return m, spectra


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A square complex matrix equal to its conjugate transpose within 1e-12."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_hermitian(self.matrix))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A state: Hermitian, positive semidefinite and unit trace.

    Validated as a one-state stack by the checks of :func:`_as_states`, in
    their order.  ``eigenvalues`` keeps the ascending spectrum the
    positivity check computed.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stack, spectra = _as_states(np.array(self.matrix, dtype=np.complex128)[None])
        object.__setattr__(self, "matrix", stack[0])
        object.__setattr__(self, "eigenvalues", spectra[0])


def _rank_one(kets: np.ndarray) -> np.ndarray:
    """The projectors |v_y><v_y| of the rows v_y, bit-equal to ``np.outer``."""
    return kets[:, :, None] * kets.conj()[:, None, :]


def eig_hermitian(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian matrix, with eigenvalues sorted
    in descending order.

    Returns ``(eigenvalues, eigenvectors)`` where column ``i`` of the
    eigenvector matrix matches ``eigenvalues[i]``.  Reconstruction
    ``V diag(w) V^dagger`` matches the input within 1e-9 per entry and the
    eigenvector columns are orthonormal to the same tolerance.
    """
    try:
        vals, vecs = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver failed: {exc}") from exc
    return _descending(vals, vecs)


def _descending(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh``'s eigenpairs as new arrays, reordered as
    :func:`eig_hermitian` returns them."""
    order = np.argsort(vals)[::-1]
    return vals[order].copy(), vecs[:, order].copy()


def _half_trace_norms(matrices: np.ndarray) -> np.ndarray:
    """Half the trace norm of a Hermitian matrix, or of each of a stack, clamped to [0, 1]."""
    return np.clip(0.5 * np.abs(np.linalg.eigvalsh(matrices)).sum(axis=-1), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Wire format: a complex matrix is a nested list of [re, im] pairs, row-major;
# a stack of matrices is a list of such literals.
# ---------------------------------------------------------------------------

def matrix_to_pairs(matrix) -> list:
    """Serialize a matrix or a stack of matrices to nested [re, im] pairs:
    (rows, cols, 2), or (matrices, rows, cols, 2) for a stack."""
    m = np.asarray(matrix, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def matrix_from_pairs(obj) -> np.ndarray:
    """Parse the nested [re, im] pair format back into a complex matrix, or
    into a stack of them from a list of literals of one shape.  Every entry
    must be a JSON number (a null reads as NaN, which the state checks
    refuse): numpy alone would read a bool or a numeric string as one."""
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        raise ParseError(f"malformed matrix literal: {exc}") from exc
    if arr.ndim not in (3, 4) or arr.shape[-1] != 2:
        raise ParseError(f"matrix literal must have shape (rows, cols, 2), got {arr.shape}")
    entries = obj  # regular, as numpy read it: ndim - 1 flattenings reach the entries
    for _ in range(arr.ndim - 1):
        entries = chain.from_iterable(entries)
    odd = set(map(type, entries)) - {int, float, type(None)}
    if odd:
        names = ", ".join(sorted(t.__name__ for t in odd))
        raise ParseError(f"matrix entries must be numbers, got {names}")
    return arr[..., 0] + 1j * arr[..., 1]
