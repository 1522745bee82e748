"""Measurement optimization: POVMs, binary and M-ary discrimination,
and lower bounds on the information a measurement can extract.

The binary optimum has a closed form; the M-ary problem is attacked with
the square-root (pretty good) measurement followed by fixed-point
refinement of the optimality conditions.  The extractable-information
search maximizes mutual information over rank-1 measurement frames and
is reported strictly as a lower bound with its search budget under
caller control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from . import distributions as dist
from . import ensembles as ens
from .errors import DimensionMismatchError, ValidationError, ZeroMassError
from .operators import DensityOperator, HermitianOperator, eig_hermitian

ELEMENT_PSD_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
MAX_OUTCOMES = 256


@dataclass(frozen=True, eq=False)
class POVM:
    """A finite measurement: positive elements summing to the identity."""

    elements: tuple[HermitianOperator, ...]

    def __post_init__(self):
        wrapped = tuple(
            el if isinstance(el, HermitianOperator) else HermitianOperator(el)
            for el in self.elements
        )
        if not wrapped:
            raise ValidationError("a POVM needs at least one element")
        if len(wrapped) > MAX_OUTCOMES:
            raise ValidationError(f"{len(wrapped)} outcomes exceed cap {MAX_OUTCOMES}")
        dims = {el.dim for el in wrapped}
        if len(dims) != 1:
            raise ValidationError(f"elements have mixed dimensions {sorted(dims)}")
        total = np.zeros((wrapped[0].dim,) * 2, dtype=np.complex128)
        for el in wrapped:
            low = float(np.linalg.eigvalsh(el.matrix)[0])
            if low < -ELEMENT_PSD_TOL:
                raise ValidationError(f"element eigenvalue {low:.3e} below tolerance")
            total += el.matrix
        dev = float(np.abs(total - np.eye(wrapped[0].dim)).max())
        if dev > COMPLETENESS_TOL:
            raise ValidationError(f"elements sum to identity only within {dev:.3e}")
        object.__setattr__(self, "elements", wrapped)

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    @property
    def num_outcomes(self) -> int:
        return len(self.elements)


def projective_povm(vectors: np.ndarray) -> POVM:
    """Rank-1 projective POVM from the orthonormal columns of a matrix."""
    cols = np.asarray(vectors, dtype=np.complex128)
    return POVM(tuple(np.outer(cols[:, i], cols[:, i].conj()) for i in range(cols.shape[1])))


def eigenbasis_povm(op: HermitianOperator | DensityOperator) -> POVM:
    """Projective measurement in the eigenbasis of an operator."""
    _, vecs = eig_hermitian(op)
    return projective_povm(vecs)


def outcome_distribution(povm: POVM, rho: DensityOperator) -> np.ndarray:
    """Born-rule outcome probabilities, clipped onto the simplex."""
    if povm.dim != rho.dim:
        raise DimensionMismatchError(f"POVM dim {povm.dim} != state dim {rho.dim}")
    probs = np.array([float(np.trace(el.matrix @ rho.matrix).real) for el in povm.elements])
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


@dataclass(frozen=True)
class DiscriminationResult:
    """Outcome of a discrimination strategy.

    ``success_probability >= max(prior)`` holds for the closed-form binary
    optimum, the refined M-ary result and the brute-force oracle; the raw
    square-root measurement can dip below it for skewed priors, so the
    bound is asserted by tests only where it is a theorem.
    """

    success_probability: float
    povm: POVM
    method: str
    converged: bool
    iterations: int


def _success(weighted: np.ndarray, elements: np.ndarray) -> float:
    return float(np.einsum("kij,kji->", elements, weighted).real)


def helstrom_binary(rho: DensityOperator, sigma: DensityOperator, prior: float) -> DiscriminationResult:
    """Optimal two-state discrimination.

    For prior weight p on ``rho`` the optimal success probability is
    ``(1 + ||p rho - (1-p) sigma||_1) / 2``, achieved by projecting onto
    the positive eigenspace of the weighted difference.  At p = 1/2 this
    is one half plus half the trace distance.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} and {sigma.dim} differ")
    if not 0.0 <= prior <= 1.0:
        raise ValueError(f"prior {prior!r} outside [0, 1]")
    delta = prior * rho.matrix - (1.0 - prior) * sigma.matrix
    vals, vecs = np.linalg.eigh(delta)
    positive = vecs[:, vals > 0.0]
    projector = positive @ positive.conj().T
    povm = POVM((projector, np.eye(rho.dim) - projector))
    success = 0.5 * (1.0 + float(np.abs(vals).sum()))
    return DiscriminationResult(
        success_probability=min(success, 1.0),
        povm=povm,
        method="helstrom",
        converged=True,
        iterations=0,
    )


def brute_force_binary_qubit(
    rho: DensityOperator,
    sigma: DensityOperator,
    prior: float,
    grid_points: int = 10_000,
) -> DiscriminationResult:
    """Direct maximization over qubit projective measurements.

    Scans a deterministic angle grid of ``grid_points`` Bloch directions,
    evaluating the success functional by plain traces, then polishes the
    best point with a local simplex search.  Serves as an oracle for the
    closed form; restricted to dimension 2.
    """
    if rho.dim != 2 or sigma.dim != 2:
        raise DimensionMismatchError("brute-force oracle is restricted to qubits")
    m = int(np.sqrt(grid_points))
    thetas = np.linspace(0.0, np.pi, m)
    phis = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    kets = np.stack(
        [np.cos(tt / 2).ravel(), (np.exp(1j * pp) * np.sin(tt / 2)).ravel()], axis=1
    )
    projectors = np.einsum("ga,gb->gab", kets, kets.conj())
    p_rho = np.einsum("gab,ba->g", projectors, rho.matrix).real
    p_sigma = np.einsum("gab,ba->g", projectors, sigma.matrix).real
    successes = prior * p_rho + (1.0 - prior) * (1.0 - p_sigma)
    best = int(np.argmax(successes))

    def negated(angles):
        theta, phi = angles
        ket = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
        proj = np.outer(ket, ket.conj())
        val = prior * np.trace(proj @ rho.matrix).real
        val += (1.0 - prior) * (1.0 - np.trace(proj @ sigma.matrix).real)
        return -val

    start = np.array([tt.ravel()[best], pp.ravel()[best]])
    res = minimize(negated, start, method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400})
    success = max(float(successes[best]), float(-res.fun))
    theta, phi = res.x if -res.fun >= successes[best] else start
    ket = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    projector = np.outer(ket, ket.conj())
    povm = POVM((projector, np.eye(2) - projector))
    return DiscriminationResult(
        success_probability=min(success, 1.0),
        povm=povm,
        method="brute_force",
        converged=bool(res.success),
        iterations=int(res.nit),
    )


def _psd_pinv_sqrt(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse square root on the support plus the kernel projector."""
    vals, vecs = np.linalg.eigh(matrix)
    cutoff = max(float(vals.max()), 0.0) * 1e-12
    support = vals > cutoff
    inv_sqrt = np.zeros_like(vals)
    inv_sqrt[support] = 1.0 / np.sqrt(vals[support])
    s = (vecs * inv_sqrt) @ vecs.conj().T
    kernel = (vecs * (~support)) @ vecs.conj().T
    return s, kernel


def square_root_measurement(e: ens.CQEnsemble) -> DiscriminationResult:
    """The pretty-good measurement built from the weighted ensemble states.

    Elements are ``S p_k rho_k S`` with S the inverse square root of the
    average state on its support; a remainder element on the kernel
    completes the POVM (that outcome never fires on in-support states).
    """
    avg = ens.average_state(e).matrix
    s, kernel = _psd_pinv_sqrt(avg)
    weighted = np.stack([w * st.matrix for w, st in zip(e.prior, e.states)])
    # s @ wk @ s is Hermitian only up to round-off that can exceed 1e-12
    elements = [0.5 * (x + x.conj().T) for x in (s @ wk @ s for wk in weighted)]
    if float(np.trace(kernel).real) > 1e-9:
        elements.append(kernel)
    povm = POVM(tuple(elements))
    stack = np.stack([el.matrix for el in povm.elements[: e.num_keys]])
    return DiscriminationResult(
        success_probability=min(_success(weighted, stack), 1.0),
        povm=povm,
        method="square_root",
        converged=True,
        iterations=0,
    )


def minimum_error_iterate(
    e: ens.CQEnsemble, max_iters: int = 500, tol: float = 1e-9
) -> DiscriminationResult:
    """Fixed-point refinement of M-ary minimum-error discrimination.

    Starts from the square-root measurement and repeatedly maps the
    elements through the optimality condition (the operator sum of
    weighted states times elements must dominate every weighted state).
    Tracks the best success probability seen; never returns below the
    square-root value or the best trivial guess.  Non-convergence within
    ``max_iters`` is flagged, not raised.
    """
    d = e.state_dim
    weighted = np.stack([w * st.matrix for w, st in zip(e.prior, e.states)])
    srm = square_root_measurement(e)
    elements = np.stack([el.matrix for el in srm.povm.elements[: e.num_keys]])

    best_value = srm.success_probability
    best_elements = elements.copy()
    # measuring nothing and guessing the likeliest key is a valid baseline
    guess = int(np.argmax(e.prior))
    trivial = np.zeros_like(elements)
    trivial[guess] = np.eye(d)
    if float(e.prior[guess]) > best_value:
        best_value = float(e.prior[guess])
        best_elements = trivial

    converged = False
    iterations = 0
    previous = _success(weighted, elements)
    for iterations in range(1, max_iters + 1):
        g = np.einsum("kab,kbc,kcd->kad", weighted, elements, weighted)
        g = 0.5 * (g + np.conj(np.transpose(g, (0, 2, 1))))
        lam = g.sum(axis=0)
        vals, vecs = np.linalg.eigh(lam)
        cutoff = max(float(vals.max()), 0.0) * 1e-12
        support = vals > cutoff
        inv_root = np.zeros_like(vals)
        inv_root[support] = vals[support] ** -0.5
        a_pinv = (vecs * inv_root) @ vecs.conj().T
        elements = np.einsum("ab,kbc,cd->kad", a_pinv, g, a_pinv)
        elements = 0.5 * (elements + np.conj(np.transpose(elements, (0, 2, 1))))
        value = _success(weighted, elements)
        if value > best_value:
            best_value = value
            best_elements = elements.copy()
        if abs(value - previous) < tol * max(1.0, abs(previous)):
            converged = True
            break
        previous = value

    # complete the best refinement to a full POVM on the whole space; the
    # leftover is the complement of the refinement's support
    completion = np.eye(d) - best_elements.sum(axis=0)
    completion = 0.5 * (completion + completion.conj().T)
    final = best_elements.copy()
    final[guess] = final[guess] + completion
    final = 0.5 * (final + np.conj(np.transpose(final, (0, 2, 1))))
    vals, vecs = np.linalg.eigh(final)
    if vals[:, 0].min() < -ELEMENT_PSD_TOL:
        # the iteration's inverse square root can amplify round-off past the
        # element tolerance, in the completion or in an iterated element:
        # clip every element onto the positive cone and rescale the clipped
        # elements so that they still sum to the identity
        clipped = vecs * np.clip(vals, 0.0, None)[:, None, :]
        final = clipped @ np.conj(np.transpose(vecs, (0, 2, 1)))
        s, _ = _psd_pinv_sqrt(final.sum(axis=0))
        final = s @ final @ s
        final = 0.5 * (final + np.conj(np.transpose(final, (0, 2, 1))))
    povm = POVM(tuple(final))
    value = _success(weighted, final)
    return DiscriminationResult(
        success_probability=min(max(value, best_value), 1.0),
        povm=povm,
        method="iterative",
        converged=converged,
        iterations=iterations,
    )


class AccessibleInfo(NamedTuple):
    bits: float
    povm: POVM


def povm_mutual_information(e: ens.CQEnsemble, povm: POVM) -> float:
    """Mutual information in bits between the key and the POVM outcome."""
    table = ens.measurement_table(e, povm)
    joint = e.prior[:, None] * table
    return dist.mutual_information(joint.reshape(-1), (e.num_keys, povm.num_outcomes))


def _frame_table(frame: np.ndarray, state_stack: np.ndarray) -> np.ndarray:
    """p(y | k) for the rank-1 POVM defined by the rows of an isometry frame."""
    table = np.einsum("ya,kab,yb->ky", frame, state_stack, frame.conj()).real
    return np.clip(table, 0.0, None)


def _table_mi(prior: np.ndarray, table: np.ndarray) -> float:
    joint = prior[:, None] * table
    py = joint.sum(axis=0)
    mask = joint > 0.0
    outer = np.outer(prior, py)
    return max(0.0, float((joint[mask] * (np.log2(joint[mask]) - np.log2(outer[mask]))).sum()))


def _haar_isometry(outcomes: int, d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((outcomes, outcomes)) + 1j * rng.standard_normal((outcomes, outcomes))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q[:, :d]


def _coordinate_ascent(
    prior: np.ndarray,
    state_stack: np.ndarray,
    frame: np.ndarray,
    max_sweeps: int,
    tol: float,
) -> tuple[float, np.ndarray]:
    """Maximize mutual information by composing elementary two-row rotations."""
    m = frame.shape[0]
    current = _table_mi(prior, _frame_table(frame, state_stack))
    for _ in range(max_sweeps):
        sweep_start = current
        for i in range(m):
            for j in range(i + 1, m):
                for phase in (1.0, 1.0j):
                    row_i = frame[i].copy()
                    row_j = frame[j].copy()

                    def negated(theta):
                        c, s = np.cos(theta), np.sin(theta)
                        frame[i] = c * row_i + phase * s * row_j
                        frame[j] = -np.conj(phase) * s * row_i + c * row_j
                        return -_table_mi(prior, _frame_table(frame, state_stack))

                    res = minimize_scalar(
                        negated, bounds=(-np.pi / 2, np.pi / 2), method="bounded",
                        options={"xatol": 1e-6, "maxiter": 30},
                    )
                    if -res.fun > current + 1e-14:
                        current = -res.fun
                        negated(float(res.x))  # leave the frame at the optimum
                    else:
                        frame[i] = row_i
                        frame[j] = row_j
        # re-orthonormalize drift accumulated by the rotations
        q, r = np.linalg.qr(frame)
        frame = q * (np.diag(r) / np.abs(np.diag(r)))
        current = _table_mi(prior, _frame_table(frame, state_stack))
        if current - sweep_start < tol:
            break
    return current, frame


def accessible_info_lower_bound(
    e: ens.CQEnsemble,
    restarts: int = 2,
    seed: int = 0,
    outcomes: int | None = None,
    max_sweeps: int = 8,
) -> AccessibleInfo:
    """Best mutual information found over a family of measurements.

    Deterministic candidates (square-root measurement, average-state
    eigenbasis, a briefly refined minimum-error POVM) are always
    evaluated; ``restarts`` seeded local searches over rank-1 frames with
    up to d^2 outcomes refine further.  The result is a LOWER bound on the
    extractable information only; the true maximum may be higher.
    """
    d = e.state_dim
    if outcomes is not None and outcomes < d:
        raise ValidationError(f"{outcomes} outcomes cannot form a rank-1 frame in dimension {d}")
    state_stack = np.stack([s.matrix for s in e.states])
    candidates = [
        square_root_measurement(e).povm,
        eigenbasis_povm(ens.average_state(e)),
        minimum_error_iterate(e, max_iters=60).povm,
    ]
    best_bits = -1.0
    best_povm = candidates[0]
    for povm in candidates:
        bits = povm_mutual_information(e, povm)
        if bits > best_bits:
            best_bits, best_povm = bits, povm
    m = min(outcomes or d * d, MAX_OUTCOMES)
    rng = np.random.default_rng(seed)
    for _ in range(max(0, restarts)):
        frame = _haar_isometry(m, d, rng)
        bits, frame = _coordinate_ascent(e.prior, state_stack, frame, max_sweeps, 1e-9)
        if bits > best_bits:
            kets = frame.conj()
            povm = POVM(tuple(np.outer(k, k.conj()) for k in kets))
            best_bits, best_povm = bits, povm
    return AccessibleInfo(bits=float(best_bits), povm=best_povm)


def conditioned_ensemble(e: ens.CQEnsemble, known_bits, known_values) -> ens.CQEnsemble:
    """Restrict an ensemble to keys consistent with known bit values.

    Bit positions are MSB-first.  The prior is renormalized over the
    surviving keys, which are reindexed by their remaining bits in the
    original order.
    """
    positions = tuple(known_bits)
    values = tuple(int(v) for v in known_values)
    if len(positions) != len(values):
        raise ValidationError("known_bits and known_values differ in length")
    if len(set(positions)) != len(positions):
        raise ValidationError(f"duplicate positions in {positions}")
    if any(not 0 <= b < e.n_bits for b in positions):
        raise ValidationError(f"positions {positions} outside [0, {e.n_bits})")
    if any(v not in (0, 1) for v in values):
        raise ValidationError(f"bit values {values} must be 0 or 1")
    if not positions:
        return e
    keep = []
    for k in range(e.num_keys):
        bits = [(k >> (e.n_bits - 1 - b)) & 1 for b in positions]
        if tuple(bits) == values:
            keep.append(k)
    mass = float(e.prior[keep].sum())
    if mass <= 0.0:
        raise ZeroMassError(f"conditioning event {dict(zip(positions, values))} has zero mass")
    return ens.CQEnsemble(
        n_bits=e.n_bits - len(positions),
        prior=e.prior[keep] / mass,
        states=tuple(e.states[k] for k in keep),
    )
