"""Classical probability distributions: distances, entropies, extremal shapes.

Distributions are plain 1-D float arrays validated at the boundary
(nonnegative, summing to one within 1e-10).  Everything entropic is in
bits.  Alongside the standard quantities this module carries the
spike-plus-uniform-tail constructions that maximize the top probability
mass under an entropy-deficit or variational-distance constraint, an
exhaustive event-gap oracle, and the Markov-inequality conversion from
average to individual guarantees.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleError,
    SizeMismatchError,
    ValidationError,
)

_LN2 = math.log(2.0)

PROB_SUM_TOL = 1e-10
MAX_DENSE_SIZE = 2**24
MAX_MATERIALIZE = 2**16
MAX_EXHAUSTIVE_EVENTS = 24

EVENT_GAP_NOTE = (
    "event-gap identity: max_E |p(E) - q(E)| equals v(P, Q) exactly; "
    "the factor-2 variant '2 v(P,Q) = max_E |p(E) - q(E)|' seen in some "
    "statements fails against the exhaustive subset oracle and is flagged, "
    "not adopted."
)


def validate_distribution(probs) -> np.ndarray:
    """Check nonnegativity and unit total mass; return a read-only copy."""
    p = np.asarray(probs, dtype=np.float64).reshape(-1)
    if p.size < 1 or p.size > MAX_DENSE_SIZE:
        raise SizeMismatchError(f"size {p.size} outside [1, {MAX_DENSE_SIZE}]")
    if not np.all(np.isfinite(p)):
        raise ValidationError("distribution contains non-finite entries")
    if p.min() < -PROB_SUM_TOL:
        raise ValidationError(f"negative probability {p.min():.3e}")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, not 1")
    out = np.clip(p, 0.0, None)
    if p.min() < 0.0:  # the clip added mass: take it back
        out /= out.sum()
    out.setflags(write=False)
    return out


def _pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = validate_distribution(p)
    q = validate_distribution(q)
    if p.size != q.size:
        raise SizeMismatchError(f"sizes {p.size} and {q.size} differ")
    return p, q


def variational_distance(p, q) -> float:
    """Half the L1 distance between two probability vectors; in [0, 1]."""
    return _variational(*_pair(p, q))


def _variational(p: np.ndarray, q: np.ndarray) -> float:
    """Half the L1 distance of two same-shape weight arrays (unvalidated); in [0, 1]."""
    return min(max(0.5 * float(np.abs(p - q).sum()), 0.0), 1.0)


def max_event_gap(p, q, mode: str = "greedy") -> tuple[float, tuple[int, ...]]:
    """Largest probability gap over events, with a witness event.

    In ``greedy`` mode the witness is ``{i : p_i > q_i}``, whose gap equals
    the variational distance exactly.  In ``exhaustive`` mode all 2^N
    subsets are enumerated (N <= 24) and the first event attaining the
    maximal absolute gap is returned; both modes agree wherever the
    exhaustive mode is defined.
    """
    p, q = _pair(p, q)
    diff = p - q
    if mode == "greedy":
        mask = diff > 0
        gap = float(diff[mask].sum())
        return gap, tuple(int(i) for i in np.nonzero(mask)[0])
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    n = p.size
    if n > MAX_EXHAUSTIVE_EVENTS:
        raise SizeMismatchError(f"exhaustive mode capped at N={MAX_EXHAUSTIVE_EVENTS}")
    sums = np.zeros(1)
    for i in range(n):
        sums = np.concatenate([sums, sums + diff[i]])
    best = int(np.argmax(np.abs(sums)))
    witness = tuple(i for i in range(n) if (best >> i) & 1)
    return float(abs(sums[best])), witness


def shannon_entropy(p) -> float:
    """Entropy in bits, with 0 log 0 := 0; lies in [0, log2 N]."""
    return _entropy_bits(validate_distribution(p))


def _entropy_bits(p: np.ndarray) -> float:
    """Entropy in bits of nonnegative weights (unvalidated), with 0 log 0 := 0."""
    positive = p[p > 0.0]
    return max(0.0, float(-(positive * np.log2(positive)).sum()))


def binary_entropy(x: float) -> float:
    """Entropy in bits of a (x, 1-x) coin; defined on [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log1p(-x) / _LN2


def mutual_information(joint) -> float:
    """Mutual information in bits of a 2-D joint distribution over ``(k, y)``.

    Product joints give zero.
    """
    j = np.asarray(joint, dtype=np.float64)
    if j.ndim != 2:
        raise SizeMismatchError(f"joint has {j.ndim} dimensions, expected 2")
    validate_distribution(j)
    return _information(np.clip(j, 0.0, None))[0]


def _information(j: np.ndarray) -> tuple[float, np.ndarray]:
    """Bits of a nonnegative 2-D joint (unvalidated) and log2(j / pk py), zero off its support.

    A C-ordered joint with no zero entry whose marginal products ``pk * py``
    are all normal floats (the ascent's tables) is the dense case: its logs
    and the weighted sum run over the whole array, with the same operands
    in the same order as over a full support.  Otherwise the logs run over
    the support only, and where ``pk * py`` is not a normal float it has
    lost bits or underflowed to 0, so its log is taken as
    ``log2(pk) + log2(py)`` there.
    """
    pk, py = j.sum(axis=1), j.sum(axis=0)
    product = pk[:, None] * py
    if j.flags.c_contiguous and j.min() > 0.0 and product.min() >= sys.float_info.min:
        log2_ratio = np.log2(j) - np.log2(product)
        return max(0.0, float((j * log2_ratio).sum())), log2_ratio
    mask = j > 0.0
    positive = j[mask]
    product = product[mask]
    if product.min() >= sys.float_info.min:
        log2_product = np.log2(product)
    else:
        low = product < sys.float_info.min
        log2_product = np.log2(product, out=np.zeros_like(product), where=~low)
        rows, cols = np.nonzero(mask)
        log2_product[low] = np.log2(pk[rows[low]]) + np.log2(py[cols[low]])
    on_support = np.log2(positive) - log2_product
    log2_ratio = np.zeros_like(j)
    log2_ratio[mask] = on_support
    return max(0.0, float((positive * on_support).sum())), log2_ratio


# ---------------------------------------------------------------------------
# Extremal spike constructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpikeConstruction:
    """A spike-plus-uniform-tail distribution meeting a constraint exactly.

    ``resulting_p1`` is the spike mass found by the module;
    ``reference_p1`` is the closed-form companion value (a first-order
    approximation for the entropy-deficit kind, a differing published-style
    formula for the distance kind, flagged via ``discrepancy``).
    ``resulting_distribution`` is derived from ``resulting_p1`` on each
    read, for N <= 2^16 only.  ``residual`` is the constraint value at
    ``resulting_p1`` minus the target 2^-exponent; a construction whose
    residual exceeds min(1e-9, 1e-6 * 2^-exponent) is infeasible.
    """

    n: int
    constraint_kind: str
    constraint_exponent: float
    resulting_p1: float
    reference_p1: float
    reference_exponent: float
    residual: float
    discrepancy: bool
    note: str

    def __post_init__(self):
        bound = min(1e-9, 1e-6 * 2.0**-self.constraint_exponent)
        if not abs(self.residual) <= bound:
            raise InfeasibleError(
                f"{self.constraint_kind} 2^-{self.constraint_exponent} cannot be met within "
                f"{bound:.1e} in double precision at n = {self.n} (residual {self.residual:.1e})"
            )

    @property
    def resulting_distribution(self) -> np.ndarray | None:
        """The spike followed by its uniform tail; None for N > 2^16."""
        return _materialize_spike(self.resulting_p1, self.n)


def _materialize_spike(p1: float, n_bits: int) -> np.ndarray | None:
    # decided from n_bits alone: 2^n_bits is not built for a huge n
    if n_bits > MAX_MATERIALIZE.bit_length() - 1:
        return None
    size = 2**n_bits
    out = np.full(size, (1.0 - p1) / (size - 1))
    out[0] = p1
    # absorb rounding into the last tail entry so the mass is exactly one;
    # with p1 near 1 that can push the entry below zero, which the
    # validation clips (renormalizing the rest)
    out[-1] += 1.0 - out.sum()
    return validate_distribution(out)


# g(t) = t^2 * sum_j (-t)^j / ((j + 1)(j + 2)) for |t| < 0.1, coefficients
# highest first; 15 terms leave a relative truncation error below 1e-16
_G_SERIES = tuple(1.0 / ((j + 1) * (j + 2)) for j in reversed(range(15)))


def _weighted_g(weight: float, t: float) -> float:
    """``weight * g(t)`` with ``g(t) = (1 + t) ln(1 + t) - t >= 0``, from
    its Taylor series for small |t| and without overflow for large t."""
    if abs(t) < 0.1:
        series = 0.0
        for c in _G_SERIES:
            series = c - t * series
        return weight * t * t * series
    if t <= -1.0:
        return weight  # g(-1) = 1
    return weight * (1.0 + t) * math.log1p(t) - weight * t


def spike_entropy_deficit(p1: float, n_bits: int) -> float:
    """``n - H(spike)`` for the spike with top mass ``p1`` over N = 2^n outcomes.

    This is the divergence from uniform, evaluated at the excess
    x = p1 - 1/N of the float p1 (exact near uniform):
    ``D ln 2 = g(Nx)/N + (1 - 1/N) g(-Nx/(N - 1))``.  Both terms are
    non-negative, so nothing cancels however close the spike is to
    uniform.  From n = 1024 on N overflows a float; there Nx >> 1 at every
    deficit a float can hold, and the divergence is summed directly as
    ``p1 ln(N p1) + (1 - p1) ln((1 - p1) N / (N - 1))``.
    """
    if n_bits < sys.float_info.max_exp:
        size = 2.0**n_bits
        x = p1 - 1.0 / size
        nats = (_weighted_g(1.0 / size, size * x)
                + _weighted_g(1.0 - 1.0 / size, -size * x / (size - 1.0)))
    else:
        # ln(N / (N - 1)) is 2^-n to within 2^-2n; from n = 1075 on 2^-n is 0.0
        nats = (p1 * (n_bits * _LN2 + math.log(p1))
                + (1.0 - p1) * (math.log1p(-p1) + 2.0**-n_bits))
    return nats / _LN2


def _power_of_half(exponent: float, what: str) -> float:
    """``2^-exponent``, refused where it is not a normal float: an infinite
    exponent, or one so large that the power underflows."""
    value = 2.0**-exponent
    if not value >= sys.float_info.min:
        raise InfeasibleError(
            f"{what} 2^-{exponent} is below the smallest normal float {sys.float_info.min:.6e}"
        )
    return value


def spike_for_mutual_information(n_bits: int, l_prime: float) -> SpikeConstruction:
    """Maximal spike mass with entropy deficit ``n - H(P) = 2^-l'``.

    Found by bisection on the spike mass (the deficit is monotone along
    the spike family) to a residual within 1e-12 of the target, or until
    the bracket holds no float between its ends.  The deficit does not
    cancel (``spike_entropy_deficit``), so only the float grid of spike
    masses limits the result: a miss by more than min(1e-9, 1e-6 * 2^-l')
    is infeasible.  The companion value ``2^-(l' + log2 n)`` is the usual approximation for the
    same extremal mass; it is reported, not substituted.
    """
    if n_bits < 1:
        raise InfeasibleError("key length must be at least one bit")
    if not l_prime > 0.0:
        raise InfeasibleError(f"constraint exponent must be positive, got {l_prime!r}")
    reference_exponent = l_prime + math.log2(n_bits)
    reference_p1 = _power_of_half(reference_exponent, "first-order reference mass")
    target = 2.0**-l_prime
    if not target < n_bits:
        raise InfeasibleError(f"deficit 2^-{l_prime} is not below {n_bits} bits")
    lo, hi = 2.0**-n_bits, 1.0
    # halving [2^-n, 1] brings its ends to adjacent floats within 1100 steps
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        residual = spike_entropy_deficit(mid, n_bits) - target
        if abs(residual) <= 1e-12 * target or mid in (lo, hi):
            break
        if residual < 0.0:
            lo = mid
        else:
            hi = mid
    p1 = mid
    return SpikeConstruction(
        n=n_bits,
        constraint_kind="mutual_information",
        constraint_exponent=float(l_prime),
        resulting_p1=float(p1),
        reference_p1=float(reference_p1),
        reference_exponent=float(reference_exponent),
        residual=float(residual),
        discrepancy=False,
        note=(
            f"root-found spike mass {p1:.6e}; first-order reference "
            f"2^-{reference_exponent:.6f} = {reference_p1:.6e} "
            f"(ratio {p1 / reference_p1:.4f})"
        ),
    )


def spike_for_variational_distance(n_bits: int, l: float) -> SpikeConstruction:
    """Maximal spike mass subject to ``v(P, U) = 2^-l``.

    Direct optimization gives ``p1 = 1/N + 2^-l`` (move mass epsilon onto
    one point, deplete the tail evenly).  The differing formula
    ``2^-l - 1/N`` circulating for the same quantity is recorded alongside
    with a discrepancy flag instead of being silently chosen.  The excess
    2^-l must survive rounding onto the float grid of ``p1``: where the
    excess the float carries misses it by more than min(1e-9, 1e-6 * 2^-l),
    the distance is infeasible.
    """
    if n_bits < 1:
        raise InfeasibleError("key length must be at least one bit")
    if not l > 0.0:
        raise InfeasibleError(f"constraint exponent must be positive, got {l!r}")
    if n_bits >= sys.float_info.max_exp:
        raise InfeasibleError(
            f"key length {n_bits} must be below {sys.float_info.max_exp}: 2^n overflows a float"
        )
    size = 2**n_bits
    epsilon = _power_of_half(l, "distance")
    if epsilon > 1.0 - 1.0 / size:
        raise InfeasibleError(
            f"distance 2^-{l} exceeds the maximum 1 - 1/N = {1.0 - 1.0 / size}"
        )
    p1 = 1.0 / size + epsilon
    reference_p1 = epsilon - 1.0 / size
    return SpikeConstruction(
        n=n_bits,
        constraint_kind="variational_distance",
        constraint_exponent=float(l),
        resulting_p1=float(p1),
        reference_p1=float(reference_p1),
        reference_exponent=float(l),
        residual=float((p1 - 1.0 / size) - epsilon),
        discrepancy=True,
        note=(
            f"optimized spike mass 1/N + 2^-l = {p1:.6e} disagrees with the "
            f"formula value 2^-l - 1/N = {reference_p1:.6e} by exactly 2/N; "
            "both are reported"
        ),
    )


def markov_individual_bound(average_bound: float, exceed_factor: float) -> tuple[float, float]:
    """Convert an average guarantee into an individual one via Markov.

    For a nonnegative variable with mean at most ``average_bound`` and any
    factor c > 1, returns ``(c * average_bound, 1/c)``: the probability of
    exceeding the threshold is at most 1/c.
    """
    if average_bound < 0.0:
        raise ValueError("average bound must be nonnegative")
    if not exceed_factor > 1.0:
        raise ValueError(f"exceed factor must be > 1, got {exceed_factor!r}")
    return average_bound * exceed_factor, 1.0 / exceed_factor


def pushforward_max(p, index_map) -> float:
    """Largest output mass after pushing ``p`` through a deterministic map.

    ``index_map`` is either a callable on indices or a sequence of output
    indices.  The result is always at least ``max(p)``: merging inputs can
    only grow the top mass, so no deterministic post-processing reduces an
    adversary's best single guess.
    """
    p = validate_distribution(p)
    if callable(index_map):
        targets = np.asarray([int(index_map(i)) for i in range(p.size)])
    else:
        targets = np.asarray(index_map, dtype=np.int64).reshape(-1)
        if targets.size != p.size:
            raise SizeMismatchError(f"map length {targets.size} != {p.size}")
    if targets.min() < 0:
        raise ValueError("map produced a negative index")
    return float(np.bincount(targets, weights=p).max())
