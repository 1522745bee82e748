"""The basis-locking counterexample and its known-plaintext attack.

Construction: the first key bit selects which conjugate qubit basis
carries it, and the first qubit's actual basis state selects the basis in
which the second qubit encodes the second key bit.  Every per-key probe
state is an equal mixture of two orthogonal product projectors, so it
sits at trace distance 1/2 from the maximally mixed reference, yet an
attacker who knows the first bit unlocks the second deterministically by
measuring qubit one in the bit's basis and steering the second-qubit
basis by the outcome.

Two variants are provided.  ``symmetric_corrected`` completes the
first-qubit encoding pattern for all four keys.  ``as_printed`` keeps an
asymmetric fourth state (both mixture terms share one first-slot
projector), which breaks the deterministic unlock for known first bit 0;
whether that asymmetry is intentional is not decidable, so both variants
are first-class and every report labels the one in use.

``build_chained_locking_ensemble`` extends the construction to n bits,
each qubit encoding its bit in the basis selected by the previous
qubit's state; at n = 2 it reproduces ``symmetric_corrected``.  Every
locking ensemble, two-bit or chained, is attacked by one sequential
unlock rule (``_walk_states``), which tracks per qubit whether it lies in
basis 1-3: qubit 1 is measured in the known bit's basis, each later qubit
in 1-3 after a first-state outcome (1 or 2), else in 2-4, and a
first-state outcome decodes its qubit's bit as 1.  An attack is one chain
of count draws over its (hidden bits, coin) terms (``_unlock``), whose
expectation is the exact closed form.  Where every Born weight on the path
is 0 or 1 (every chained ensemble, ``symmetric_corrected``, and
``as_printed`` with known first bit 1), every draw is certain.

Basis realization is fixed for bit-reproducibility: state 1 = (1, 0),
state 3 = (0, 1), state 2 = (1, 1)/sqrt2, state 4 = (1, -1)/sqrt2, so
1-3 and 2-4 are the two conjugate bases (``KETS``; ``OVERLAP2`` holds the
exact Born weights between them).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import detection, distributions, ensembles as ens, operators as ops
from .errors import ValidationError, _require_integer

BASIS_13 = (1, 3)
BASIS_24 = (2, 4)

_S = 1.0 / np.sqrt(2.0)
KETS = np.array([[1.0, 0.0], [_S, _S], [0.0, 1.0], [_S, -_S]], dtype=np.complex128)  # states 1..4
KETS.setflags(write=False)
_PROJECTORS = ops._rank_one(KETS)
# Born weights |<i|j>|^2 at [i - 1, j - 1]: exactly 0, 1/2 or 1 for two
# mutually unbiased bases, where computing them from KETS would carry the
# round-off of 1/sqrt2 into the deterministic attack paths
OVERLAP2 = np.array([
    [1.0, 0.5, 0.0, 0.5],
    [0.5, 1.0, 0.5, 0.0],
    [0.0, 0.5, 1.0, 0.5],
    [0.5, 0.0, 0.5, 1.0],
])
OVERLAP2.setflags(write=False)

# half of the 2-term mixture; exact in binary floating point
_HALF = 0.5
# the KPA sampler draws counts, not trials, so its time and memory do not
# grow with the trial count; MAX_TRIALS stays as the count that reports and
# the CLI refuse past: at 10^7 trials the empirical rate's standard error is
# at most 1.6e-4, finer than any figure a report compares, so a larger count
# buys nothing and is more likely a typo
MAX_TRIALS = 10**7

TERM_TABLES = {
    "symmetric_corrected": {
        (1, 1): ((1, 1), (3, 2)),
        (1, 0): ((1, 3), (3, 4)),
        (0, 1): ((2, 1), (4, 2)),
        (0, 0): ((2, 3), (4, 4)),
    },
    "as_printed": {
        (1, 1): ((1, 1), (3, 2)),
        (1, 0): ((1, 3), (3, 4)),
        (0, 1): ((2, 1), (4, 2)),
        (0, 0): ((4, 3), (4, 4)),
    },
}

VARIANTS = tuple(TERM_TABLES)
_BUILT: dict = {}  # variant -> its LockingEnsemble, built on first use


@dataclass(frozen=True, eq=False)
class LockingEnsemble:
    """A term table together with the ensemble it generates, all read-only.

    ``terms`` maps each key (tuple of bits, first bit first) to the two
    product terms of its state; each term is a tuple of basis-state
    indices, one per qubit.  ``term_orthogonality`` records, per key,
    whether the two mixture terms are orthogonal (they are for every key
    of symmetric_corrected; as_printed breaks it on key 00, whose state
    then has eigenvalues (2 +- sqrt2)/4 instead of (1/2, 1/2)).
    """

    variant: str
    terms: MappingProxyType
    ensemble: ens.CQEnsemble
    term_orthogonality: MappingProxyType

    @property
    def n_bits(self) -> int:
        return self.ensemble.n_bits


def _key_rows(n_bits) -> np.ndarray:
    """The bits of the 2^n keys of a locking ensemble on n qubits, row k for key k."""
    if n_bits < 2:
        raise ValidationError(f"a locking ensemble needs at least two key bits, got {n_bits}")
    if 2**n_bits > ops.MAX_DIM:
        raise ValidationError(f"probe dimension 2^{n_bits} exceeds cap {ops.MAX_DIM}")
    return ens._bit_rows(n_bits)


def _table_slots(terms: dict) -> tuple[np.ndarray, list]:
    """The basis states of a term table, shape (keys, 2, n), in key order,
    and its keys; the table must hold exactly the 2^n keys of n bits, each
    with two terms of n basis states 1..4."""
    if not terms:
        raise ValidationError("a term table needs at least two key bits, got no keys")
    first = next(iter(terms))
    if not isinstance(first, tuple):
        raise ValidationError(f"key {first!r}: a key is a tuple of bits")
    n_bits = len(first)
    keys = [tuple(row) for row in _key_rows(n_bits).tolist()]
    known = set(keys)
    for bits in terms:
        if bits not in known:
            raise ValidationError(f"key {bits!r}: not one of the {len(keys)} keys of {n_bits} bits")
    for bits in keys:
        if bits not in terms:
            raise ValidationError(f"key {bits}: missing from the term table")
        pair = terms[bits]
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise ValidationError(f"key {bits}: expected two terms, got {pair!r}")
        if any(not isinstance(t, (tuple, list)) or len(t) != n_bits
               or not all(type(s) is int and 1 <= s <= 4 for s in t) for t in pair):
            raise ValidationError(f"key {bits}: each term must hold {n_bits} basis states 1..4")
    return np.array([terms[bits] for bits in keys]), keys


def _term_states(slots: np.ndarray) -> np.ndarray:
    """The states 1/2 (P + Q) of the term pairs ``slots`` (keys, 2, n), as a
    raw (keys, d, d) stack; each product term is built with one batched
    product per qubit, every entry the same single product ``np.kron``
    forms, in the same operand order."""
    flat = slots.reshape(-1, slots.shape[-1]) - 1  # first and second term of each key in turn
    out = _PROJECTORS[flat[:, 0]]
    for index in flat[:, 1:].T:
        dim = 2 * out.shape[-1]
        out = (out[:, :, None, :, None] * _PROJECTORS[index][:, None, :, None, :]).reshape(-1, dim, dim)
    states = out[0::2] + out[1::2]
    states *= _HALF
    return states


def build_term_ensemble(terms: dict, variant: str) -> LockingEnsemble:
    """Assemble a locking ensemble from an explicit term table.

    Keys are indexed with the first bit most significant; the prior is
    uniform.  A table must hold exactly the 2^n keys of n bits, with
    n >= 2 (the first bit selects a basis that later bits are read in)
    and 2^n <= 64, and each key two terms of one basis state (an int
    1..4) per key bit; any other table is a ``ValidationError`` naming
    the key.  All 2 * 2^n product terms are built at once, one batched
    Kronecker product per qubit, and the states reach ``CQEnsemble`` as
    one raw stack.  Term orthogonality is verified numerically per key:
    where the two product terms are orthogonal the state must come out
    with eigenvalues (1/2, 1/2) within 1e-10; non-orthogonal term pairs
    (the as_printed key 00) are permitted and recorded.
    """
    slots, keys = _table_slots(terms)
    n_bits = slots.shape[-1]
    ensemble = ens.CQEnsemble(
        n_bits=n_bits, prior=ens.uniform_prior(n_bits), states=_term_states(slots)
    )
    orthogonal = (OVERLAP2[slots[:, 0] - 1, slots[:, 1] - 1] == 0.0).any(axis=1)
    top = ensemble.spectra[:, ::-1][:, :2]
    for bits, ok, pair in zip(keys, orthogonal.tolist(), top):
        if ok and np.abs(pair - 0.5).max() > 1e-10:
            raise ValidationError(f"state {bits}: orthogonal terms but eigenvalues {pair}")
    return LockingEnsemble(
        variant=variant,
        terms=MappingProxyType({bits: tuple(map(tuple, terms[bits])) for bits in keys}),
        ensemble=ensemble,
        term_orthogonality=MappingProxyType(dict(zip(keys, orthogonal.tolist()))),
    )


def build_locking_ensemble(variant: str = "symmetric_corrected") -> LockingEnsemble:
    """The two-bit locking ensemble, in the requested variant; each variant
    is built once per process, and later calls return the same object."""
    if variant not in TERM_TABLES:
        raise ValidationError(f"unknown variant {variant!r}; pick one of {VARIANTS}")
    if variant not in _BUILT:
        _BUILT[variant] = build_term_ensemble(TERM_TABLES[variant], variant)
    return _BUILT[variant]


def _walk_states(known: np.ndarray, took: np.ndarray) -> np.ndarray:
    """The basis states 1..4 of the chained steering walk that takes the
    fixed choices ``took`` (n, walks), shape (walks, n).

    Qubit 1 lies in basis 1-3 for known first bit 1, else 2-4; each later
    qubit lies in 1-3 after its predecessor took the first state of its
    basis (1 or 2), else 2-4.  ``took`` picks, per qubit, that first state
    or the second (3 or 4): the coin or encoded bit when building, the
    outcome (the decoded bit) when attacking.
    """
    in13 = np.vstack([known == 1, took[:-1]])
    return (np.where(in13, BASIS_13[0], BASIS_24[0]) + np.where(took, 0, 2)).T


def build_chained_locking_ensemble(n_bits: int) -> LockingEnsemble:
    """The n-bit generalization of the two-bit construction.

    Bit 1 picks the basis of qubit 1 (its state within the basis is the
    coin of the two-term mixture); each later qubit encodes its bit in
    the basis selected by the previous qubit's state.  For n = 2 this
    reproduces the symmetric_corrected table.
    """
    _require_integer("number of bits", n_bits)
    n_bits = int(n_bits)
    keys = _key_rows(n_bits).repeat(2, axis=0)  # each key for coin 0, then coin 1
    took = np.vstack([np.tile([True, False], 2**n_bits), keys[:, 1:].T == 1])
    slots = [tuple(row) for row in _walk_states(keys[:, 0], took).tolist()]
    terms = {tuple(key): tuple(slots[2 * k:2 * k + 2])
             for k, key in enumerate(ens._bit_rows(n_bits).tolist())}
    return build_term_ensemble(terms, f"chained_{n_bits}")


# ---------------------------------------------------------------------------
# Known-plaintext attack
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KPAResult:
    success_rate: float
    closed_form_success: float
    trials: int
    seed: int
    strategy: dict | str

    def to_dict(self) -> dict:
        return {
            "empirical_success": self.success_rate,
            "closed_form_success": self.closed_form_success,
            "trials": self.trials,
            "seed": self.seed,
            "strategy": self.strategy,
        }


def kpa_simulate(
    le: LockingEnsemble,
    known_k1: int,
    trials: int,
    seed: int,
) -> KPAResult:
    """Run the sequential unlock on keys with a known first bit.

    Each trial draws the hidden bits and the mixture coin uniformly,
    measures every qubit in the basis ``_walk_states`` steers to from the
    previous outcome, and succeeds when the decoded bits equal the hidden
    ones.  The successes are drawn as counts from one generator
    (``_unlock``), Binomial(trials, closed form) as for a walk per trial,
    at a cost that does not grow with ``trials``.  The closed form is the
    expectation of the same chain of draws; where every Born weight on the
    attack's path is 0 or 1, every draw is certain and the count is
    ``trials`` or 0 for every seed.  Returns the empirical rate next to the
    closed-form rate.
    """
    for name, value in (("trials", trials), ("seed", seed), ("known first bit", known_k1)):
        _require_integer(name, value)
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    if seed < 0:
        raise ValidationError(f"seed must be at least 0, got {seed}")
    if trials > MAX_TRIALS:
        raise ValidationError(f"{trials} trials exceed cap {MAX_TRIALS}")
    if known_k1 not in (0, 1):
        raise ValidationError(f"known first bit must be 0 or 1, got {known_k1!r}")
    trials, seed, known_k1 = int(trials), int(seed), int(known_k1)
    terms = np.array([le.terms[(known_k1, *h)] for h in ens._bit_rows(le.n_bits - 1).tolist()])
    # Born weight of the first state of basis 2-4 ([0]) or 1-3 ([1]) on each
    # (hidden bits, coin) term, row 2 * hidden + coin: (2, n, terms)
    weights = OVERLAP2[[BASIS_24[0] - 1, BASIS_13[0] - 1]][:, terms.reshape(-1, le.n_bits).T - 1]
    correct = _unlock(weights, known_k1, trials, np.random.default_rng([seed, known_k1]))
    closed_form = _unlock(weights, known_k1, 1)
    return KPAResult(
        success_rate=correct / trials,
        closed_form_success=closed_form,
        trials=trials,
        seed=seed,
        strategy=_describe_unlock(le.n_bits, known_k1, closed_form),
    )


def _unlock(weights, known_k1, trials, rng=None) -> float:
    """Successes among ``trials`` trials of the sequential unlock, followed
    as counts down one chain: how many fall on each (hidden bits, coin)
    term, how many of those take each outcome of qubit 1, and per later
    qubit how many survivors take the outcome that decodes its hidden bit.
    With ``rng`` each step is a draw (one multinomial, then one binomial per
    qubit: the conditional-binomial method); without, it is its expectation,
    and ``trials = 1`` gives the exact success probability, since every
    weight is 0, 1/2 or 1 and 1/terms a power of two.  ``weights`` as in
    ``kpa_simulate``."""
    _, n, terms = weights.shape
    rows = np.arange(terms)
    if rng is None:
        draw, alive = np.multiply, np.full(terms, trials / terms)
    else:
        draw, alive = rng.binomial, rng.multinomial(trials, np.full(terms, 1.0 / terms))
    took = draw(alive, weights[known_k1, 0])
    alive = np.stack([alive - took, took])  # by qubit 2's basis: 2-4, then 1-3
    in13 = np.array([[False], [True]])
    for j, bit in enumerate(ens._bit_rows(n - 1).repeat(2, axis=0).T == 1, start=1):
        first = weights[:, j].take(rows + terms * in13)
        alive = draw(alive, np.where(bit, first, 1.0 - first))
        in13 = bit  # a decoding outcome steers the next qubit by its bit
    return float(alive.sum())


def _describe_unlock(n: int, known_k1: int, closed_form: float) -> dict | str:
    """The report's account of the unlock: one line for n >= 3; for two
    bits, the bases and decode table that ``_walk_states`` yields for the
    four outcome pairs."""
    if n > 2:
        return f"sequential unlock over {n - 1} hidden bits"
    # first state taken on both qubits, on qubit 1 only, on qubit 2 only, on neither
    took = (ens._bit_rows(2) == 0).T
    pairs = _walk_states(np.full(4, known_k1), took).tolist()
    (f1, s1), (_, s2), (f3, s3), (_, s4) = pairs
    return {
        "known_first_bit": known_k1,
        "first_qubit_basis": [f1, f3],
        "second_qubit_basis_by_first_outcome": {str(f1): [s1, s2], str(f3): [s3, s4]},
        "decode_table": {f"{f},{s}": int(t) for (f, s), t in zip(pairs, took[1])},
        "closed_form_success": closed_form,
    }


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LockingReport:
    variant: str
    criteria: detection.CriteriaRecord
    ideal: ens.IdealComparison
    half_plus_ideal: float
    kpa: dict
    average_state_distance_from_mixed: float
    notes: tuple

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "criteria": self.criteria.to_dict(),
            "ideal_reference_per_key": dict(sorted(self.ideal.per_key.items())),
            "ideal_reference_mean": self.ideal.mean,
            "half_plus_ideal": self.half_plus_ideal,
            "kpa": {str(k): v.to_dict() for k, v in sorted(self.kpa.items())},
            "average_state_distance_from_mixed": self.average_state_distance_from_mixed,
            "notes": list(self.notes),
        }


def locking_report(le: LockingEnsemble, trials: int = 100_000, seed: int = 0) -> LockingReport:
    """Assemble every criterion plus the attack outcome for one ensemble.

    The headline composition is one half plus the mean ideal-reference
    distance: the binary distinguishing success against the maximally
    mixed reference, which reaches 1.0 here even though the trace
    criterion itself sits near one half.
    """
    criteria = detection.criteria_record(le.ensemble)
    ideal = ens.ideal_comparison_value(le.ensemble)
    kpa = {k1: kpa_simulate(le, k1, trials, seed) for k1 in (0, 1)}
    d = le.ensemble.state_dim
    mixed_distance = float(ops._half_trace_norms(ens.average_state(le.ensemble) - np.eye(d) / d))
    skewed = [str(bits) for bits, ok in sorted(le.term_orthogonality.items()) if not ok]
    if skewed:
        structure = (
            "mixture terms are orthogonal (eigenvalues 1/2, 1/2, 0...) for all "
            f"keys except {', '.join(skewed)}"
        )
    else:
        structure = (
            "every per-key state is an equal mixture of orthogonal product "
            "projectors (eigenvalues 1/2, 1/2, 0...)"
        )
    notes = (
        f"variant: {le.variant}",
        structure,
        "half_plus_ideal is the binary distinguishing success against the "
        "maximally mixed reference",
        distributions.EVENT_GAP_NOTE,
    )
    return LockingReport(
        variant=le.variant,
        criteria=criteria,
        ideal=ideal,
        half_plus_ideal=0.5 + ideal.mean,
        kpa=kpa,
        average_state_distance_from_mixed=mixed_distance,
        notes=notes,
    )
