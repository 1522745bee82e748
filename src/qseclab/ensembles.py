"""Classical-quantum key ensembles and the secrecy criteria computed on them.

A ``CQEnsemble`` pairs a prior over n-bit key values with one probe state
per key.  A state is validated once, where it enters: the ensemble checks
its states as one stack, and every matrix derived from that stack (the
average state, the joint state, the ideal reference) is a plain array
that nothing validates again, nor is a distribution derived from it (a
measurement's joint with the key, a posterior row).  A quantity that
depends on the immutable ensemble alone is computed once and kept on it
(``_once_per_ensemble``).  On top of it this module evaluates the
trace-distance secrecy criterion in its two equivalent forms (explicit
joint-vs-product state, and prior-weighted average of per-key
distances), the prior-weighted variant used for non-uniform priors, the
ideal-reference comparison, the Holevo information, the measured
(classical) counterparts induced by a measurement's element array, and
key-subset uniformity gaps.  The record of every criterion on one ensemble
is ``detection.criteria_record``: its classical half is the square-root
measurement's, which that module builds.

Key-bit convention: key value k is an integer in [0, 2^n); bit position 0
is the most significant bit, so for n = 2 the keys order as
00, 01, 10, 11.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field
from functools import wraps
from typing import NamedTuple

import numpy as np

from . import distributions as dist
from . import operators as ops
from .errors import (
    DimensionCapError,
    DimensionMismatchError,
    EmptySubsetError,
    Error,
    ParseError,
    ValidationError,
    _require_integer,
)
from .operators import DensityOperator

JOINT_DIM_CAP = 64
MAX_KEY_BITS = dist.MAX_DENSE_SIZE.bit_length() - 1  # 2^n keys stay a dense vector


@dataclass(frozen=True, eq=False)
class CQEnsemble:
    """Prior over 2^n key values paired with per-key probe states.

    The states are held once, as one validated stack: ``stack`` is a
    read-only (keys, d, d) array and ``spectra`` the read-only (keys, d)
    ascending spectra its validation computed.  ``states`` may be any
    sequence of state matrices or ``DensityOperator`` objects, or a 3-D
    array, validated first, together, with one batched eigensolve
    (:func:`operators._as_states`); only where that fails is each state
    validated alone, in key order, so a faulty state's own error comes
    before any fault of ``n_bits`` (an integer), of the prior, of the state
    count or of mixed dimensions.  The ensemble is immutable, so
    quantities derived from it are kept on it.
    """

    n_bits: int
    prior: np.ndarray
    states: InitVar[Sequence]  # read back through the property set after the class
    stack: np.ndarray = field(init=False, repr=False)
    spectra: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, states):
        matrices = states
        if not (isinstance(states, np.ndarray) and states.ndim == 3):
            matrices = [s.matrix if isinstance(s, DensityOperator) else s for s in states]
        try:
            stack, spectra = ops._as_states(matrices)
        except (ValidationError, DimensionCapError, ValueError, TypeError):
            # a faulty, over-cap, ragged or empty sequence: each state
            # validated alone, in order, names the first fault
            stack = None
            matrices = _each_alone(matrices)
        _require_integer("key length", self.n_bits)
        object.__setattr__(self, "n_bits", int(self.n_bits))
        if self.n_bits < 0:
            raise ValidationError("key length must be nonnegative")
        if self.n_bits > MAX_KEY_BITS:
            raise ValidationError(f"key length {self.n_bits} exceeds cap {MAX_KEY_BITS}")
        prior = dist.validate_distribution(self.prior)
        n_keys = 2**self.n_bits
        if prior.size != n_keys:
            raise ValidationError(f"prior has {prior.size} entries, expected {n_keys}")
        if len(matrices) != n_keys:
            raise ValidationError(f"{len(matrices)} states supplied, expected {n_keys}")
        if stack is None:
            dims = sorted({len(m) for m in matrices})
            raise ValidationError(f"states have mixed dimensions {dims}")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "spectra", spectra)

    @property
    def num_keys(self) -> int:
        return 2**self.n_bits

    @property
    def state_dim(self) -> int:
        return self.stack.shape[-1]

    def key_label(self, k: int) -> str:
        return format(k, f"0{self.n_bits}b") if self.n_bits else ""


def _each_alone(matrices) -> list:
    """Each of ``matrices`` (any iterable) validated alone as a
    ``DensityOperator``, in key order, as its matrix.  The first error
    stops the walk with ``key`` set on it, the index of the state it
    stopped at, whether that state's validation raised it or, from the
    file reader's lazy iterable, the making of its matrix.  ``CQEnsemble``
    runs it before any other check, and the reader names the state by it."""
    out = []
    try:
        for m in matrices:
            out.append(DensityOperator(m).matrix)
    except (Error, ValueError, TypeError) as exc:
        exc.key = len(out)
        raise
    return out


def _states(e: CQEnsemble) -> tuple[DensityOperator, ...]:
    """The per-key states, built from ``stack`` on each call; no
    computation of the package reads them."""
    return tuple(DensityOperator(m) for m in e.stack)


# set after the class: a property in its body would be taken as the init field's default
CQEnsemble.states = property(_states)


def _once_per_ensemble(fn):
    """Compute ``fn(e)`` on the first call for an ensemble and keep it there,
    in a slot named by the function's module and qualified name."""
    key = f"_once_{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def once(e):
        if key not in e.__dict__:
            e.__dict__[key] = fn(e)
        return e.__dict__[key]

    return once


def _bit_rows(count: int, positions=None) -> np.ndarray:
    """Key bits in key order: row k holds the bits of key k (a ``count``-bit
    key) at ``positions``, all of them by default, MSB first."""
    columns = np.arange(count) if positions is None else np.asarray(positions, dtype=np.int64)
    return (np.arange(2**count)[:, None] >> (count - 1 - columns)) & 1


def uniform_prior(n_bits: int) -> np.ndarray:
    return np.full(2**n_bits, 1.0 / 2**n_bits)


@_once_per_ensemble
def average_state(e: CQEnsemble) -> np.ndarray:
    """The prior-averaged probe state, a read-only (d, d) array built once
    per ensemble from its validated stack."""
    return ops._read_only((e.prior[:, None, None] * e.stack).sum(axis=0))


def joint_product_distance(e: CQEnsemble) -> float:
    """Trace distance between the joint state and the product of marginals.

    The block-diagonal joint state of key register and probe is built
    explicitly, so the total dimension 2^n * d is capped at 64; beyond the
    cap use :func:`mean_conditional_distance`, which is equal.
    """
    d = e.state_dim
    total = e.num_keys * d
    if total > JOINT_DIM_CAP:
        raise DimensionCapError(f"joint dimension {total} exceeds cap {JOINT_DIM_CAP}")
    joint = np.zeros((total, total), dtype=np.complex128)
    for k, block in enumerate(e.prior[:, None, None] * e.stack):
        joint[k * d:(k + 1) * d, k * d:(k + 1) * d] = block
    product = np.kron(np.diag(e.prior.astype(np.complex128)), average_state(e))
    return float(ops._half_trace_norms(joint - product))


def conditional_distances(e: CQEnsemble, reference: np.ndarray | None = None) -> np.ndarray:
    """Per-key half trace norms ``0.5 * || rho_k - reference ||_1``.

    The reference, a (d, d) matrix, defaults to the ensemble average
    state; the maximally mixed state gives the ideal-reference variant.
    """
    ref = average_state(e) if reference is None else np.asarray(reference)
    if ref.shape != e.stack.shape[1:]:
        raise DimensionMismatchError(f"reference shape {ref.shape} != {e.stack.shape[1:]}")
    return ops._half_trace_norms(e.stack - ref)


@dataclass(frozen=True)
class IdealComparison:
    per_key: dict
    mean: float


def ideal_comparison_value(e: CQEnsemble) -> IdealComparison:
    """Per-key and mean half trace norms against the maximally mixed state."""
    values = conditional_distances(e, reference=np.eye(e.state_dim) / e.state_dim)
    per_key = {e.key_label(k): float(v) for k, v in enumerate(values)}
    return IdealComparison(per_key=per_key, mean=float(e.prior @ values))


@_once_per_ensemble
def mean_conditional_distance(e: CQEnsemble) -> float:
    """Prior-weighted mean distance between per-key states and the average.

    Equals :func:`joint_product_distance` for every prior; the joint form
    is kept as an independent cross-check within the dimension cap.
    """
    return float(e.prior @ conditional_distances(e))


def weighted_conditional_distance(e: CQEnsemble) -> float:
    """Half the summed trace norms of ``p(k) rho_k - avg/N``.

    Coincides with :func:`mean_conditional_distance` when the prior is
    uniform; for skewed priors it keeps the per-key weighting inside the
    norm.
    """
    avg = average_state(e) / e.num_keys
    norms = ops._half_trace_norms(e.prior[:, None, None] * e.stack - avg)
    # a running sum in key order: numpy's pairwise sum rounds differently from 8 keys on
    return float(np.cumsum(norms)[-1])


@_once_per_ensemble
def holevo_information(e: CQEnsemble) -> float:
    """Average-state entropy minus mean per-key entropy, in bits.

    Upper-bounds the mutual information extractable by any measurement on
    the probe; clamped at zero after a round-off allowance: a prior accepted
    eps = ``dist.PROB_SUM_TOL`` off one shifts it by eps / ln 2, and 1e-12 more.
    """
    value = dist._entropy_bits(np.clip(np.linalg.eigvalsh(average_state(e)), 0.0, 1.0))
    # one entropy per key: a masked sum over the (keys, d) array rounds differently
    value -= float(e.prior @ np.array([dist._entropy_bits(row)
                                       for row in np.clip(e.spectra, 0.0, 1.0)]))
    if value < -(dist.PROB_SUM_TOL / np.log(2.0) + 1e-12):
        raise ValidationError(f"negative Holevo information {value:.3e}")
    return max(0.0, value)


class MeasuredCriteria(NamedTuple):
    """Classical quantities induced by measuring an ensemble."""

    delta_e: float
    i_e_deficit: float
    cpd_table: np.ndarray        # outcome-major: row y holds p(k | y)


def measurement_table(e: CQEnsemble, elements: np.ndarray) -> np.ndarray:
    """Outcome probabilities per key under (outcomes, d, d) elements: (k, y) is p(y | k)."""
    if elements.shape[-1] != e.state_dim:
        raise DimensionMismatchError(f"POVM dim {elements.shape[-1]} != state dim {e.state_dim}")
    table = np.einsum("yij,kji->ky", elements, e.stack).real
    table = np.maximum(table, 0.0)
    return table / table.sum(axis=1, keepdims=True)


def measured_criteria(e: CQEnsemble, elements: np.ndarray) -> MeasuredCriteria:
    """Joint-vs-product variational distance, entropy deficit and CPDs.

    The classical distance is ``v(p(y|k) p0(k), p(y) p0(k))`` with no
    extra prefactor, so it contracts exactly from the operator criterion;
    a circulating variant carries an additional 1/2, which reports note
    rather than adopt.  Row y of the posterior table is p(k | y); an
    unreachable outcome keeps the prior as its row.  The information
    deficit is the outcome-averaged gap between full key entropy and
    posterior entropy, ``sum_y p(y) (n - H(K | y))``.
    """
    return _joint_criteria(e, _measured_joint(e, elements))


def _measured_joint(e: CQEnsemble, elements: np.ndarray) -> np.ndarray:
    """The (keys, outcomes) joint p(k) p(y | k) of key and outcome."""
    return e.prior[:, None] * measurement_table(e, elements)


def _joint_criteria(e: CQEnsemble, joint: np.ndarray) -> MeasuredCriteria:
    """:func:`measured_criteria` of the (keys, outcomes) joint a measurement
    induces on ``e``, which is not validated again.  An outcome no likelier
    than ``dist.PROB_SUM_TOL``, the slack a prior's total is accepted with,
    is unreachable: such a p(y) may be round-off alone (the square-root
    measurement's kernel outcome reads 3.5e-18 under some BLAS kernels, 0
    under others), and its posterior round-off over round-off."""
    py = joint.sum(axis=0)
    delta = dist._variational(joint, e.prior[:, None] * py)
    cpds = np.divide(joint.T, py[:, None], out=np.tile(e.prior, (py.size, 1)),
                     where=py[:, None] > dist.PROB_SUM_TOL)
    deficit = float(py @ (e.n_bits - np.array([dist._entropy_bits(row) for row in cpds])))
    return MeasuredCriteria(delta_e=delta, i_e_deficit=max(0.0, deficit), cpd_table=cpds)


def semantic_security_gap(cpd, subset_positions) -> tuple[float, float]:
    """Uniformity gap of a key-bit subset marginal.

    Marginalizes a distribution over n-bit keys onto the given bit
    positions (MSB-first) and returns the largest and the value-averaged
    absolute deviation from the uniform value 2^-|subset|.
    """
    p = dist.validate_distribution(cpd)
    n_bits = p.size.bit_length() - 1
    if 2**n_bits != p.size:
        raise ValidationError(f"CPD size {p.size} is not a power of two")
    positions = tuple(subset_positions)
    if not positions:
        raise EmptySubsetError("subset of key bits must be non-empty")
    if len(set(positions)) != len(positions):
        raise ValidationError(f"duplicate bit positions in {positions}")
    if any(not 0 <= b < n_bits for b in positions):
        raise ValidationError(f"bit positions {positions} outside [0, {n_bits})")
    keys, values = np.arange(p.size), np.zeros(p.size, dtype=np.int64)
    for b in positions:  # shift in one bit per position: a few 2^n vectors at most
        values <<= 1
        values |= (keys >> (n_bits - 1 - b)) & 1
    marginal = np.bincount(values, weights=p, minlength=2 ** len(positions))
    gaps = np.abs(marginal - 2.0 ** -len(positions))
    return float(gaps.max()), float(gaps.mean())


# ---------------------------------------------------------------------------
# Ensemble file format: {"n": int, "prior": [...], "states": [matrix literals]}
# ---------------------------------------------------------------------------

def ensemble_to_dict(e: CQEnsemble) -> dict:
    return {
        "n": e.n_bits,
        "prior": [float(w) for w in e.prior],
        "states": ops.matrix_to_pairs(e.stack),
    }


def ensemble_from_dict(obj) -> CQEnsemble:
    """The ensemble of a parsed ensemble file, built by one ``CQEnsemble`` call.

    ``states`` is read as one stack: one float64 conversion of all the
    literals, which the ensemble validates with one batched eigensolve.
    Only where the literals do not parse as one stack is each parsed and
    validated alone, in order.  The ensemble's own order holds: a faulty
    state, named ``state k: ...`` (a ``ParseError``, ``ValidationError`` or
    ``DimensionCapError`` as its own error is one), comes before a fault of
    the value of ``n``, of ``prior`` or of the state count.  The reader adds
    one check of its own: ``prior`` must be a list of JSON numbers, and any
    other is a ``ParseError`` after any faulty state.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"ensemble record must be an object, got {type(obj).__name__}")
    missing = {"n", "prior", "states"} - set(obj)
    if missing:
        raise ParseError(f"ensemble record missing fields {sorted(missing)}")
    if type(obj["n"]) is not int:  # a JSON integer; bool and float are not
        raise ParseError(f'"n" must be an integer, got {type(obj["n"]).__name__}')
    if not isinstance(obj["states"], list):
        raise ParseError(f'"states" must be a list, got {type(obj["states"]).__name__}')
    # numpy would read a bool, a numeric string or a one-entry list as a number
    prior_ok = isinstance(obj["prior"], list) and all(type(p) in (int, float) for p in obj["prior"])
    try:
        states = ops.matrix_from_pairs(obj["states"])
    except ParseError:
        states = None
    try:
        if states is None or states.ndim != 3:  # each literal parsed and validated alone
            states = _each_alone(map(_one_literal, obj["states"]))
        ensemble = CQEnsemble(n_bits=obj["n"], prior=obj["prior"], states=states)
    except (Error, ValueError, TypeError, OverflowError) as exc:
        if hasattr(exc, "key"):  # the walk met a faulty state
            kind = next((c for c in (ValidationError, DimensionCapError) if isinstance(exc, c)),
                        ParseError)
            raise kind(f"state {exc.key}: {exc}") from exc
        if prior_ok:
            if isinstance(exc, Error):
                raise
            raise ParseError(f"bad ensemble record: {exc}") from exc
    if not prior_ok:  # whether numpy read it as a distribution or failed on it
        raise ParseError('"prior" must be a list of numbers')
    return ensemble


def _one_literal(literal) -> np.ndarray:
    """The matrix of one state's literal."""
    matrix = ops.matrix_from_pairs(literal)
    if matrix.ndim != 2:  # a literal holds one matrix, not a stack
        raise ParseError("matrix literal must have shape (rows, cols, 2), "
                         f"got {(*matrix.shape, 2)}")
    return matrix


def load_ensemble(path) -> CQEnsemble:
    """The ensemble of the file at ``path`` (:func:`ensemble_from_dict`).

    The cyclic garbage collector is paused from ``json.load`` until the
    parsed literal lists are released, and then left as it was found: a
    JSON document holds no reference cycle, so the collector has nothing to
    find in it, while the tens of thousands of young lists of a large file
    would set off collections that each walk every object the process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return ensemble_from_dict(_parsed(path))
    finally:
        if enabled:
            gc.enable()


def _parsed(path):
    """The JSON value in the file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    # ValueError covers bad JSON, bad UTF-8 and integers too long to parse
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_ensemble(e: CQEnsemble, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            # json.dumps encodes in C; json.dump streams through the Python encoder
            fh.write(json.dumps(ensemble_to_dict(e), sort_keys=True) + "\n")
    except OSError as exc:
        raise Error(f"cannot write {path}: {exc.strerror}") from exc
