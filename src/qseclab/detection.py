"""Measurement optimization: POVMs, binary and M-ary discrimination,
and lower bounds on the information a measurement can extract.

A measurement is validated once, where it enters: ``POVM`` checks a
caller's, and those derived here from a validated ensemble are plain
read-only (outcomes, d, d) ``complex128`` element arrays, and the joints
they induce with the key are not validated either.  Kept once per
ensemble: the average state's eigendecomposition, the square-root
measurement, its joint with the key and that joint's information, and
the search's best candidate.  ``criteria_record`` puts the trace criteria
of :mod:`ensembles` beside the classical ones that the square-root
measurement induces, in one record per ensemble.

The binary optimum has a closed form (Helstrom), which
``minimum_error_iterate`` returns for two keys.  For more keys it starts
from the square-root (pretty good) measurement and refines it by the
fixed-point map of the optimality conditions, iterated on factors of the
elements and extrapolated wherever that does not lower the success; a
result is labelled converged only when its duality gap certifies it.  The
search reads the refinement's elements only, so it computes no gap.  The
extractable-information search is exact when every state is diagonal: the
computational basis then attains the Holevo information.  When every state
is the same, no measurement tells the keys apart and the candidates stand.
Otherwise it evaluates a few deterministic candidate measurements, then
runs seeded Barzilai-Borwein gradient ascents of the mutual information
over rank-1 measurement frames kept on the POVM set by their polar factors,
for at most ``ASCENT_STEPS`` attempts each; that result is reported strictly
as a lower bound, with the number of restarts under caller control.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from . import distributions as dist
from . import ensembles as ens
from .errors import DimensionCapError, ValidationError, ZeroMassError, _require_integer
from .operators import _as_hermitian, _descending, _rank_one, eig_hermitian

ELEMENT_PSD_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
MAX_OUTCOMES = 256
ASCENT_STEPS = 200  # cap on attempts per restart; a stalled ascent stops sooner
_EPS = float(np.finfo(np.float64).eps)
_TWO_OVER_LN2 = 2.0 / np.log(2.0)


@dataclass(frozen=True, eq=False)
class POVM:
    """A caller's measurement: positive elements summing to the identity.

    ``stack``, the element array the functions here take, is a read-only
    (outcomes, d, d) ``complex128`` copy of the input, which may be any
    sequence of equal-sized square matrices or a 3-D array.
    """

    stack: np.ndarray

    def __post_init__(self):
        if len(self.stack) == 0:
            raise ValidationError("a POVM needs at least one element")
        try:
            stack = _as_hermitian(self.stack, ndim=3)
        except ValueError:
            # a ragged sequence: the first malformed element, if any, names the fault
            dims = sorted({_as_hermitian(el).shape[0] for el in self.stack})
            raise ValidationError(f"elements have mixed dimensions {dims}") from None
        if len(stack) > MAX_OUTCOMES:
            raise ValidationError(f"{len(stack)} outcomes exceed cap {MAX_OUTCOMES}")
        low = float(np.linalg.eigvalsh(stack)[:, 0].min())
        if low < -ELEMENT_PSD_TOL:
            raise ValidationError(f"element eigenvalue {low:.3e} below tolerance")
        dev = float(np.abs(stack.sum(axis=0) - np.eye(stack.shape[-1])).max())
        if dev > COMPLETENESS_TOL:
            raise ValidationError(f"elements sum to identity only within {dev:.3e}")
        object.__setattr__(self, "stack", stack)


def _read_only(elements: np.ndarray) -> np.ndarray:
    """Derived elements as returned: the same array, made read-only."""
    elements.setflags(write=False)
    return elements


@functools.cache
def _computational_basis(dim: int) -> np.ndarray:
    """Elements of the computational-basis measurement, built once per dimension."""
    return _read_only(_rank_one(np.eye(dim, dtype=np.complex128)))


def eigenbasis_povm(matrix: np.ndarray) -> np.ndarray:
    """Elements of the projective measurement in a Hermitian matrix's eigenbasis."""
    return _eigenbasis_elements(eig_hermitian(matrix)[1])


def _eigenbasis_elements(vecs: np.ndarray) -> np.ndarray:
    """The projectors onto the columns of ``vecs``, in column order."""
    return _read_only(_rank_one(np.asarray(vecs, dtype=np.complex128).T))


@dataclass(frozen=True)
class DiscriminationResult:
    """Outcome of a discrimination strategy.

    ``success_probability >= max(prior)`` holds for the closed-form binary
    optimum and the refined M-ary result; the raw
    square-root measurement can dip below it for skewed priors, so the
    bound is asserted by tests only where it is a theorem.  ``elements``,
    the measurement returned, is a read-only (outcomes, d, d) array whose
    outcome k names key k (a last one may cover the average's kernel).
    ``gap``, where set, certifies the result: the optimum lies in
    ``[success_probability, success_probability + gap]``.  ``method`` names
    the measurement returned: ``helstrom`` (the binary optimum, gap 0),
    ``square_root``, ``trivial_guess`` (measure nothing, name the likeliest
    key) or ``iterative`` (a refinement that beat both).  For
    ``minimum_error_iterate``, ``converged`` means certified: the iteration
    stopped on its own and the gap is at most 1e-6.
    """

    success_probability: float
    elements: np.ndarray
    method: str
    converged: bool
    iterations: int
    gap: float | None = None


def _hermitian_part(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + np.conj(np.swapaxes(x, -1, -2)))


def _success(weighted: np.ndarray, elements: np.ndarray) -> float:
    return float(np.einsum("kij,kji->", elements, weighted).real)


def _duality_gap(weighted: np.ndarray, elements: np.ndarray) -> float:
    """Yuen-Kennedy-Lax bound on how far ``elements`` fall short of the optimum.

    With L the Hermitian part of sum_k W_k E_k (trace: the success P) and t
    the largest amount by which some W_k exceeds L, Y = L + t I dominates
    every W_k, so no measurement succeeds with more than tr Y = P + t d.
    """
    lam = _hermitian_part((weighted @ elements).sum(axis=0))
    t = max(0.0, -float(np.linalg.eigvalsh(lam - weighted)[:, 0].min()))
    return t * weighted.shape[-1]


def _helstrom(weighted: np.ndarray) -> DiscriminationResult:
    """The optimal measurement of two weighted states W_0, W_1: the projector
    onto the positive eigenspace of W_0 - W_1 and its complement.  The
    success is the value of those elements, (sum(p) + ||W_0 - W_1||_1) / 2
    up to round-off."""
    vals, vecs = np.linalg.eigh(weighted[0] - weighted[1])
    positive = vecs[:, vals > 0.0]
    projector = positive @ positive.conj().T
    return _measured(weighted, np.stack([projector, np.eye(len(vals)) - projector]),
                     "helstrom", gap=0.0)


def _measured(weighted: np.ndarray, elements: np.ndarray, method: str,
              gap: float | None = None) -> DiscriminationResult:
    """The result of a closed-form measurement: ``elements`` made read-only,
    scored on their first K outcomes, one per weighted state W_k (a last
    outcome on the average's kernel scores nothing)."""
    success = min(_success(weighted, elements[: len(weighted)]), 1.0)
    return DiscriminationResult(success, _read_only(elements), method, True, 0, gap)


def _pinv_sqrt_spectrum(vals: np.ndarray) -> np.ndarray:
    """The inverse square roots of a PSD matrix's ascending spectrum, 0 off
    its support (eigenvalues up to 1e-12 of the largest)."""
    cutoff = max(float(vals[-1]), 0.0) * 1e-12
    if vals[0] > cutoff:  # eigh sorts ascending: full rank
        return 1.0 / np.sqrt(vals)
    support = vals > cutoff
    inv_sqrt = np.zeros_like(vals)
    inv_sqrt[support] = 1.0 / np.sqrt(vals[support])
    return inv_sqrt


def _psd_pinv_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Inverse square root of a PSD matrix on its support, 0 on its kernel."""
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * _pinv_sqrt_spectrum(vals)) @ vecs.conj().T


@ens._once_per_ensemble
def _average_eigh(e: ens.CQEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of the average state, as read-only arrays: the one
    eigensolve the square-root measurement and the eigenbasis candidate of
    the search both build on."""
    vals, vecs = np.linalg.eigh(ens.average_state(e))
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


@ens._once_per_ensemble
def square_root_measurement(e: ens.CQEnsemble) -> DiscriminationResult:
    """The pretty-good measurement built from the weighted ensemble states.

    Elements are ``S p_k rho_k S`` with S the inverse square root of the
    average state on its support; where the average state is
    rank-deficient, the projector onto its kernel completes the POVM (that
    outcome never fires on in-support states).  More than ``MAX_OUTCOMES``
    keys are a ``DimensionCapError``: every K-outcome measurement built
    here starts from this one.
    """
    if e.num_keys > MAX_OUTCOMES:
        raise DimensionCapError(
            f"{e.num_keys} keys exceed the {MAX_OUTCOMES}-outcome cap of a measurement"
        )
    vals, vecs = _average_eigh(e)
    inv_sqrt = _pinv_sqrt_spectrum(vals)
    s = (vecs * inv_sqrt) @ vecs.conj().T
    weighted = e.prior[:, None, None] * e.stack
    # s @ wk @ s is Hermitian only up to round-off that can exceed 1e-12
    elements = _hermitian_part(s @ weighted @ s)
    if not inv_sqrt.all():  # zeros mark the kernel of a rank-deficient average state
        kernel = (vecs * (inv_sqrt == 0.0)) @ vecs.conj().T
        elements = np.concatenate([elements, kernel[None]])
    return _measured(weighted, elements, "square_root")


def minimum_error_iterate(
    e: ens.CQEnsemble, max_iters: int = 500, tol: float = 1e-9
) -> DiscriminationResult:
    """Minimum-error discrimination: exact for two keys, refined otherwise.

    Two keys get the Helstrom measurement (method ``helstrom``, gap 0, no
    iterations).  Otherwise the elements E_k = B_k B_k^dag start from the
    square-root measurement and their factors go through the fixed-point
    map of the optimality conditions (Jezek, Rehacek and Fiurasek, PRA 65,
    060301(R), 2002): with C_k = W_k B_k, W_k = p_k rho_k and
    A = sum_k C_k C_k^dag, the next factors are A^{-1/2} C_k, which keeps
    the elements summing to the identity on their support.  Each step
    extrapolates, C_k = 2 W_k B_k - W_k B'_k with B' the factors before;
    a step whose success falls below the last is refused and the next
    takes the plain map.  At the optimum W_k B_k = Lambda B_k, so the
    extrapolation vanishes there.  Each map applied counts as one of at
    most ``max_iters`` iterations; the loop stops once the success moves
    by less than ``tol`` (relative).

    Reports the success probability of the returned elements, never below
    the square-root value or the best trivial guess, with the duality gap
    of Yuen, Kennedy and Lax (IEEE Trans. IT 21, 125, 1975) as its
    certificate.  ``converged`` is True only when the loop stopped and the
    gap is at most 1e-6: any other result is flagged, not raised.  The
    refinement itself is ``_minimum_error_refinement``; the search takes
    its elements without this certificate.
    """
    result, stopped, iterations = _minimum_error_refinement(e, max_iters, tol)
    if e.num_keys == 2:
        return result  # the Helstrom measurement, certified by its closed form
    gap = _duality_gap(e.prior[:, None, None] * e.stack, result.elements[: e.num_keys])
    # certified: the loop stopped on its own and the gap closes to 1e-6
    return replace(result, converged=stopped and gap <= 1e-6, iterations=iterations, gap=gap)


def _minimum_error_refinement(
    e: ens.CQEnsemble, max_iters: int, tol: float = 1e-9
) -> tuple[DiscriminationResult, bool, int]:
    """:func:`minimum_error_iterate` before its certificate: the result (the
    Helstrom measurement for two keys, final as it is), whether the loop
    stopped on its own, and the iterations it ran."""
    weighted = e.prior[:, None, None] * e.stack
    if e.num_keys == 2:
        return _helstrom(weighted), True, 0
    srm = square_root_measurement(e)
    d = e.state_dim
    start = srm.elements[: e.num_keys]

    floor = srm
    best_value = srm.success_probability
    best_elements = start
    # measuring nothing and guessing the likeliest key is a valid baseline
    guess = int(np.argmax(e.prior))
    trivial = np.zeros_like(start)
    trivial[guess] = np.eye(d)
    if float(e.prior[guess]) > best_value:
        best_value = float(e.prior[guess])
        best_elements = trivial
        floor = DiscriminationResult(best_value, _read_only(trivial), "trivial_guess", True, 0)

    # factors of the start, B_k = V_k sqrt(L_k) for E_k = V_k L_k V_k^dag; the
    # map multiplies factors on the left only, so any factorisation will do
    vals, vecs = np.linalg.eigh(start)
    factors = vecs * np.sqrt(np.maximum(vals, 0.0))[:, None, :]
    product = weighted @ factors  # W_k B_k, kept from step to step
    previous = float(np.vdot(factors, product).real)  # sum_k tr(B_k^dag W_k B_k)
    best_factors = None
    last_product = None  # W_k B_k a step back; None makes the next step plain
    stopped = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        c = product if last_product is None else 2.0 * product - last_product
        columns = c.transpose(1, 0, 2).reshape(d, -1)  # [C_0 C_1 ...]
        factors = _psd_pinv_sqrt(columns @ columns.conj().T) @ c
        trial = weighted @ factors
        value = float(np.vdot(factors, trial).real)
        if last_product is not None and value < previous:
            last_product = None  # refused: the next step is the plain map
            continue
        last_product, product = product, trial
        if value > best_value:  # each iterate is a fresh array, never written
            best_value = value
            best_factors = factors
        if abs(value - previous) < tol * max(1.0, abs(previous)):
            stopped = True
            break
        previous = value
    method = floor.method
    if best_factors is not None:
        best_elements = _hermitian_part(best_factors @ np.conj(np.swapaxes(best_factors, -1, -2)))
        method = "iterative"

    # complete the best refinement to a full POVM on the whole space; the
    # leftover is the complement of the refinement's support
    final = best_elements.copy()
    final[guess] += _hermitian_part(np.eye(d) - best_elements.sum(axis=0))
    final = _hermitian_part(final)
    vals, vecs = np.linalg.eigh(final)
    if vals[:, 0].min() < -ELEMENT_PSD_TOL:
        # the inverse square root can amplify round-off past the element
        # tolerance, in the completion or in an element built from factors:
        # clip every element onto the positive cone and rescale the clipped
        # elements so that they still sum to the identity
        clipped = vecs * np.clip(vals, 0.0, None)[:, None, :]
        final = clipped @ np.conj(np.transpose(vecs, (0, 2, 1)))
        s = _psd_pinv_sqrt(final.sum(axis=0))
        final = _hermitian_part(s @ final @ s)
        if _success(weighted, final) < floor.success_probability:
            return floor, stopped, iterations  # the repair cost more than the iteration gained
    result = DiscriminationResult(
        min(_success(weighted, final), 1.0), _read_only(final), method, False, 0
    )
    return result, stopped, iterations


class AccessibleInfo(NamedTuple):
    bits: float
    elements: np.ndarray


def povm_mutual_information(e: ens.CQEnsemble, elements: np.ndarray) -> float:
    """Mutual information in bits between the key and the measured outcome
    (a joint derived from the validated ensemble, not validated again)."""
    return dist._information(ens._measured_joint(e, elements))[0]


@ens._once_per_ensemble
def _srm_joint(e: ens.CQEnsemble) -> tuple[np.ndarray, float]:
    """The joint distribution of key and square-root-measurement outcome,
    read-only, and its mutual information in bits: shared by the campaign's
    ``pinsker`` check, the measured criteria and the search's candidates."""
    joint = ens._measured_joint(e, square_root_measurement(e).elements)
    joint.setflags(write=False)
    return joint, dist._information(joint)[0]


@dataclass(frozen=True)
class CriteriaRecord:
    """All secrecy criteria evaluated on one ensemble.

    ``d`` is the per-key average form, ``d_joint`` the explicit joint form
    (None beyond the joint-dimension cap), ``d_prime`` the prior-weighted
    variant, ``chi`` the Holevo information in bits.  ``delta_e`` and
    ``i_e_deficit`` are the classical counterparts under the measurement
    named in ``p1_bound_notes``.
    """

    d: float
    d_joint: float | None
    d_prime: float
    chi: float
    delta_e: float
    i_e_deficit: float
    p1_bound_notes: str

    def __post_init__(self):
        for name in ("d", "d_prime", "delta_e"):
            value = getattr(self, name)
            if not -1e-12 <= value <= 1.0 + 1e-12:
                raise ValidationError(f"{name} = {value!r} outside [0, 1]")
        if self.d_joint is not None and not -1e-12 <= self.d_joint <= 1.0 + 1e-12:
            raise ValidationError(f"d_joint = {self.d_joint!r} outside [0, 1]")
        if self.chi < -1e-12:
            raise ValidationError(f"chi = {self.chi!r} negative")

    def to_dict(self) -> dict:
        return asdict(self)


def criteria_record(e: ens.CQEnsemble) -> CriteriaRecord:
    """Evaluate every criterion on one ensemble.

    The joint form is included when the joint dimension fits the cap.  The
    measured quantities are those of the square-root measurement, so more
    than ``MAX_OUTCOMES`` keys are a ``DimensionCapError``.
    """
    d = ens.mean_conditional_distance(e)
    d_joint = None
    if e.num_keys * e.state_dim <= ens.JOINT_DIM_CAP:
        d_joint = ens.joint_product_distance(e)
    chi = ens.holevo_information(e)
    if chi > e.n_bits + 1e-9:
        raise ValidationError(f"chi = {chi!r} exceeds key length {e.n_bits}")
    measured = ens._joint_criteria(e, _srm_joint(e)[0])
    top = float(measured.cpd_table.max())
    notes = (
        f"measurement: square-root measurement; max posterior key mass {top:.6g}; "
        "classical delta computed as v(joint, product) with no extra 1/2 "
        "prefactor so it contracts exactly from d; "
        + dist.EVENT_GAP_NOTE
    )
    return CriteriaRecord(
        d=d,
        d_joint=d_joint,
        d_prime=ens.weighted_conditional_distance(e),
        chi=chi,
        delta_e=measured.delta_e,
        i_e_deficit=measured.i_e_deficit,
        p1_bound_notes=notes,
    )


def _haar_isometry(outcomes: int, d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((outcomes, outcomes)) + 1j * rng.standard_normal((outcomes, outcomes))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q[:, :d]


def _ascent_slope(kets: np.ndarray, gradient: np.ndarray) -> tuple[np.ndarray, float]:
    """The ascent's direction from the frame ``kets``, ``gradient``'s part
    tangent to the isometries G - V herm(V^dag G), and the first-order bits
    per unit step along it or along ``gradient``: (2 / ln 2) ||tangent||_F^2."""
    tangent = gradient - kets @ _hermitian_part(kets.conj().T @ gradient)
    return tangent, _TWO_OVER_LN2 * float(np.vdot(tangent, tangent).real)


def _frame_ascent(
    prior: np.ndarray, states: np.ndarray, kets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Maximize mutual information over the rank-1 POVM {v_y v_y^dag}.

    The information's gradient at the frame V is R_y v_y, with
    R_y = sum_k p_k ln(t_ky / q_y) rho_k (Rehacek, Englert and Kaszlikowski,
    PRA 71, 054303, 2005).  Each step moves along its tangent part xi, and
    V + step * xi returns to a POVM as its polar factor, taken by SVD.  The
    steps are the Riemannian Barzilai-Borwein ones of Wen and Yin (Math.
    Program. 142, 397, 2013), from the last changes s in V and y in xi:
    <s, s> / |<s, y>| and |<s, y>| / <y, y> in turn, 1 at first.  A trial
    is kept when its value is at least C + 1e-4 * step * slope, the slope
    being ``_ascent_slope``'s and C the mean of the kept values weighted down
    by 0.85 per later kept step (Zhang and Hager, SIAM J. Optim. 14, 1043,
    2004); otherwise, or on NaN, the step halves.  As a kept step may lose
    information, the best kept frame is returned.  The ascent stops before
    an attempt whose first-order gain is at most a rounding unit of the
    value, eps * max(1, I), or after ``ASCENT_STEPS`` attempts.  Each attempt
    makes one information call, on an unvalidated joint; the gradient is
    computed once per kept frame.
    """
    prior_col = prior[:, None]
    weight = np.log(2.0) * prior_col

    def evaluate(v):
        rho_v = states @ v.T  # rho_v[k, :, y] = rho_k v_y
        table = np.maximum(np.einsum("ya,kay->ky", v.conj(), rho_v).real, 0.0)
        return (*dist._information(prior_col * table), rho_v)

    def direction(v, log2_ratio, rho_v):
        return _ascent_slope(v, np.einsum("ky,kay->ya", weight * log2_ratio, rho_v))

    current, log2_ratio, rho_v = evaluate(kets)
    tangent, slope = direction(kets, log2_ratio, rho_v)
    best, best_kets = current, kets
    average, weight_sum = current, 1.0  # Zhang and Hager's C and Q
    step, kept = 1.0, 0
    for _ in range(ASCENT_STEPS):
        if step * slope <= _EPS * max(1.0, current):
            break
        u, _, vh = np.linalg.svd(kets + step * tangent, full_matrices=False)
        trial = u @ vh
        value, log2_ratio, rho_v = evaluate(trial)
        if not value >= average + 1e-4 * step * slope:
            step /= 2.0
            continue
        trial_tangent, slope = direction(trial, log2_ratio, rho_v)
        s, y = trial - kets, trial_tangent - tangent
        sy = abs(float(np.vdot(s, y).real))
        kept += 1
        if sy > 0.0:
            step = float(np.vdot(s, s).real) / sy if kept % 2 else sy / float(np.vdot(y, y).real)
        kets, tangent, current = trial, trial_tangent, value
        average = (0.85 * weight_sum * average + value) / (0.85 * weight_sum + 1.0)
        weight_sum = 0.85 * weight_sum + 1.0
        if value > best:
            best, best_kets = value, kets
    return best, best_kets


def accessible_info_lower_bound(
    e: ens.CQEnsemble,
    restarts: int = 2,
    seed: int = 0,
) -> AccessibleInfo:
    """Best mutual information found over a family of measurements.

    When every state is diagonal, the measurement in the computational
    basis is returned at once: it attains the Holevo information, so the
    result is exact.  Otherwise deterministic candidates (square-root
    measurement, average-state eigenbasis, and 60 minimum-error refinement
    steps) are evaluated, once per ensemble; ``restarts`` seeded ascents over
    rank-1 frames with min(d^2, ``MAX_OUTCOMES``) outcomes (``_frame_ascent``:
    Barzilai-Borwein steps, each ascent from a Haar-random frame and stopped
    once stalled or after ``ASCENT_STEPS`` attempts) refine further.  That
    result is a LOWER bound on the extractable information only.  When every
    state equals the first, every joint is a product and I_acc = 0, so the
    best candidate is returned and no ascent runs.  ``restarts`` and ``seed``
    must be integers of at least 0, whether an ascent runs or not.
    """
    for name, value in (("restarts", restarts), ("seed", seed)):
        _require_integer(name, value)
        if value < 0:
            raise ValidationError(f"{name} must be at least 0, got {value}")
    d = e.state_dim
    if np.count_nonzero(e.stack) == np.count_nonzero(np.diagonal(e.stack, axis1=1, axis2=2)):
        elements = _computational_basis(d)
        return AccessibleInfo(bits=povm_mutual_information(e, elements), elements=elements)
    best_bits, best_elements = _best_candidate(e)
    # identical states give every measurement a product joint: I_acc = 0, and
    # an ascent could add round-off only
    if restarts > 0 and not (e.stack == e.stack[0]).all():
        m = min(d * d, MAX_OUTCOMES)
        rng = np.random.default_rng(seed)
        for _ in range(restarts):
            bits, kets = _frame_ascent(e.prior, e.stack, _haar_isometry(m, d, rng).conj())
            if bits > best_bits:
                best_bits, best_elements = bits, _read_only(_rank_one(kets))
    return AccessibleInfo(bits=float(best_bits), elements=best_elements)


@ens._once_per_ensemble
def _best_candidate(e: ens.CQEnsemble) -> tuple[float, np.ndarray]:
    """The most informative of the search's deterministic candidates: the
    square-root measurement, the average-state eigenbasis and 60
    minimum-error refinement steps, with its information in bits.  The
    eigenbasis is :func:`eigenbasis_povm`'s, from the shared eigensolve;
    the refinement's elements are ``minimum_error_iterate(e, 60)``'s, taken
    without the duality gap that certifies them, which nothing here reads."""
    best_bits, best_elements = _srm_joint(e)[1], square_root_measurement(e).elements
    for elements in (
        _eigenbasis_elements(_descending(*_average_eigh(e))[1]),
        _minimum_error_refinement(e, 60)[0].elements,
    ):
        bits = povm_mutual_information(e, elements)
        if bits > best_bits:
            best_bits, best_elements = bits, elements
    return best_bits, best_elements


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
    keep = np.flatnonzero((ens._bit_rows(e.n_bits, positions) == values).all(axis=1))
    mass = float(e.prior[keep].sum())
    if mass <= 0.0:
        raise ZeroMassError(f"conditioning event {dict(zip(positions, values))} has zero mass")
    return ens.CQEnsemble(
        n_bits=e.n_bits - len(positions),
        prior=e.prior[keep] / mass,
        states=e.stack[keep],
    )
