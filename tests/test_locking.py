"""Tests for the basis-locking counterexample and its attack simulation."""

import itertools
import tracemalloc

import numpy as np
import pytest

from qseclab import ensembles as ens, locking, operators as ops
from qseclab.errors import ValidationError

SQRT2 = np.sqrt(2.0)
CONJUGATE = {1: 2, 2: 1, 3: 4, 4: 3}  # each basis state to one of the other basis
FLIP = {1: 3, 3: 1, 2: 4, 4: 2}  # each basis state to the other state of its basis


def independent_first_qubit_marginal(state):
    """Partial-trace oracle written directly with einsum."""
    blocks = state.matrix.reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", blocks)


@pytest.fixture
def all_equal_control():
    """Control ensemble: every key maps to the same state, so nothing leaks."""
    terms = {bits: ((1, 1), (3, 2)) for bits in itertools.product((0, 1), repeat=2)}
    return locking.build_term_ensemble(terms, "control_all_equal")


def sequential_unlock_oracle(le, known_k1):
    """Success of the chained sequential unlock, from the density matrices.

    Qubit 1 is measured in basis 1-3 when the known first bit is 1, else in
    2-4; each later qubit in 1-3 after an outcome 1 or 2, else in 2-4.  An
    outcome on the first state of its basis (1 or 2) decodes the bit as 1.
    Sums tr((P_o1 x ... x P_on) rho_k) over the outcome sequences that decode
    the hidden bits of key k, with projectors built from ``locking.KETS``.
    """
    n = le.n_bits
    projectors = [np.outer(ket, ket.conj()) for ket in locking.KETS]
    total = 0.0
    for hidden in itertools.product((0, 1), repeat=n - 1):
        key = int("".join(map(str, (known_k1, *hidden))), 2)
        rho = le.ensemble.states[key].matrix
        for took_first in itertools.product((True, False), repeat=n):
            first = 1 if known_k1 == 1 else 2
            measured = np.ones((1, 1))
            for took in took_first:
                state = first if took else first + 2
                measured = np.kron(measured, projectors[state - 1])
                first = 1 if state in (1, 2) else 2
            if took_first[1:] == tuple(bit == 1 for bit in hidden):
                total += float(np.trace(measured @ rho).real)
    return total / 2 ** (n - 1)


def per_term_kron_build(terms):
    """The states of a term table built one key and one term at a time, with
    one ``np.kron`` per qubit, their spectra validated one state at a time,
    and per key whether the two product terms are orthogonal (tr(P Q) = 0)."""
    def product(slots):
        out = locking._PROJECTORS[slots[0] - 1]
        for index in slots[1:]:
            out = np.kron(out, locking._PROJECTORS[index - 1])
        return out

    states, spectra, orthogonality = [], [], {}
    for bits, (first, second) in terms.items():
        p, q = product(first), product(second)
        state = ops.DensityOperator(0.5 * (p + q))
        states.append(state.matrix)
        spectra.append(state.eigenvalues)
        orthogonality[bits] = abs(np.trace(p @ q)) < 1e-12
    return np.stack(states), np.stack(spectra), orthogonality


REFERENCE_BLOCK = 2**16  # the block size the per-trial reference draws in
LAW_TRIALS, LAW_SEEDS = 1000, 400  # the per-trial law test's sample


def reference_chain_walk(known, n, takes_first):
    """The steering walk written over basis states: per row, qubit j lies in
    the basis whose first state is ``first`` (1 or 2), ``takes_first(j,
    first)`` picks ``first`` or ``first + 2``, and the next qubit's basis
    follows the state taken.  Returns the states and the choices, (rows, n)."""
    states = np.empty((len(known), n), dtype=np.int64)
    took = np.empty((len(known), n), dtype=bool)
    first = np.where(known == 1, 1, 2)
    for j in range(n):
        took[:, j] = takes_first(j, first)
        states[:, j] = np.where(took[:, j], first, first + 2)
        first = np.where(took[:, j], 1, 2)
    return states, took


def reference_chained_terms(n_bits):
    """The chained term table built by ``reference_chain_walk``."""
    keys = ens._bit_rows(n_bits).repeat(2, axis=0)
    takes_first = np.column_stack([np.tile([True, False], 2**n_bits), keys[:, 1:] == 1])
    slots, _ = reference_chain_walk(keys[:, 0], n_bits, lambda j, _: takes_first[:, j])
    slots = [tuple(row) for row in slots.tolist()]
    return {tuple(key): tuple(slots[2 * k:2 * k + 2])
            for k, key in enumerate(ens._bit_rows(n_bits).tolist())}


def reference_unlock_block(rng, terms, known_k1, size):
    """One block of the sampler with 2-D gathers: the hidden bits as int64,
    then the coins, then one uniform row per qubit compared with the Born
    weight of the state the walk measures on the prepared one."""
    n = terms.shape[-1]
    hidden = rng.integers(0, 2, size=(size, n - 1))
    coin = rng.integers(0, 2, size=size)
    prepared = terms[hidden @ (1 << np.arange(n - 2, -1, -1)), coin]
    _, decoded = reference_chain_walk(
        np.full(size, known_k1), n,
        lambda j, first: rng.random(size) < locking.OVERLAP2[first - 1, prepared[:, j] - 1],
    )
    return int(np.all(decoded[:, 1:] == (hidden == 1), axis=1).sum())


def chain_term_rows(le, known_k1):
    """The prepared states of the keys with a known first bit, one row per
    (hidden bits, coin) term in the order hidden bits, then coin; (terms, n)."""
    return np.array([le.terms[(known_k1, *h)] for h in ens._bit_rows(le.n_bits - 1).tolist()]
                    ).reshape(-1, le.n_bits)


def per_trial_success_count(le, known_k1, trials, seed):
    """Successes of the attack walked one trial at a time by
    ``reference_unlock_block``, in blocks of ``REFERENCE_BLOCK`` trials, on
    a generator seeded apart from the one ``kpa_simulate`` draws from."""
    rng = np.random.default_rng(seed)
    terms = chain_term_rows(le, known_k1).reshape(-1, 2, le.n_bits)
    return sum(reference_unlock_block(rng, terms, known_k1, min(REFERENCE_BLOCK, trials - start))
               for start in range(0, trials, REFERENCE_BLOCK))


def reference_success_count(le, known_k1, trials, seed):
    """Successes of ``kpa_simulate`` by the count sampler written with scalar
    draws from the same generator.  The trials are split over the terms by a
    chain of conditional binomials, one term at a time; then each term's
    count by qubit 1's outcome, one term at a time; then, qubit by qubit,
    first over the terms whose qubit 1 took its basis's second state, then
    its first, one binomial per term gives the survivors that decode that
    qubit's hidden bit.  The basis of each qubit follows the state taken on
    the one before, as in ``reference_chain_walk``."""
    rng = np.random.default_rng([seed, known_k1])
    terms = chain_term_rows(le, known_k1)
    hidden = ens._bit_rows(le.n_bits - 1).repeat(2, axis=0) == 1
    size = len(terms)
    counts, left, share = [], trials, 1.0
    for _ in range(size - 1):
        count = int(rng.binomial(left, (1.0 / size) / share)) if left else 0
        counts.append(count)
        left -= count
        share -= 1.0 / size
    counts.append(left)
    first = 1 if known_k1 == 1 else 2
    took = [int(rng.binomial(count, locking.OVERLAP2[first - 1, term[0] - 1]))
            for count, term in zip(counts, terms)]
    alive = [[count - t for count, t in zip(counts, took)], took]
    for j in range(1, le.n_bits):
        for took_first in (0, 1):
            for r, term in enumerate(terms):
                steered_by = took_first if j == 1 else hidden[r, j - 2]
                first = 1 if steered_by else 2
                decoding = first if hidden[r, j - 1] else first + 2
                p = locking.OVERLAP2[decoding - 1, term[j] - 1]
                alive[took_first][r] = int(rng.binomial(alive[took_first][r], p))
    return sum(alive[0]) + sum(alive[1])


def last_slot_moved(n_bits, move, keys=None):
    """The chained n-bit table with the last slot of every term moved by
    ``move`` (a map of basis states), or, for ``keys``, of the first term of
    those keys only."""
    chain = locking.build_chained_locking_ensemble(n_bits)
    terms = dict(chain.terms)
    for bits in terms if keys is None else keys:
        pair = terms[bits]
        moved = tuple(t[:-1] + (move[t[-1]],) for t in pair)
        terms[bits] = moved if keys is None else (moved[0], pair[1])
    return locking.build_term_ensemble(terms, f"chained_{n_bits}_moved")


def attack_source(source, known_k1):
    """A two-bit variant, a chained key length, or a chained n-bit table
    whose last slot is moved: into the conjugate basis in every term
    ("conjugate_n"), so that each trial's last outcome is a fair coin; to
    the other state of its basis in every term ("flip_all_n"), so that
    every trial certainly fails; or so in the first term of the key
    (known_k1, 1, ..., 1) only ("flip_one_n"), so that every outcome is
    certain but one (hidden bits, coin) term fails."""
    if isinstance(source, int):
        return locking.build_chained_locking_ensemble(source)
    if source in locking.VARIANTS:
        return locking.build_locking_ensemble(source)
    kind, n_bits = source.rsplit("_", 1)
    n_bits = int(n_bits)
    if kind == "conjugate":
        return last_slot_moved(n_bits, CONJUGATE)
    if kind == "flip_all":
        return last_slot_moved(n_bits, FLIP)
    return last_slot_moved(n_bits, FLIP, keys=[(known_k1,) + (1,) * (n_bits - 1)])


# the two-bit report's strategy block per known first bit, written out so that
# a drift in its rendering fails here (closed_form_success varies by variant)
PINNED_STRATEGY = {
    0: {
        "known_first_bit": 0,
        "first_qubit_basis": [2, 4],
        "second_qubit_basis_by_first_outcome": {"2": [1, 3], "4": [2, 4]},
        "decode_table": {"2,1": 1, "2,3": 0, "4,2": 1, "4,4": 0},
    },
    1: {
        "known_first_bit": 1,
        "first_qubit_basis": [1, 3],
        "second_qubit_basis_by_first_outcome": {"1": [1, 3], "3": [2, 4]},
        "decode_table": {"1,1": 1, "1,3": 0, "3,2": 1, "3,4": 0},
    },
}


@pytest.fixture
def conjugate_control():
    """symmetric_corrected with every qubit-2 slot moved into the conjugate
    basis: a control arm on which the unlock's second outcome is a fair coin,
    so its decoding degrades to coin flipping."""
    terms = {bits: tuple((first, CONJUGATE[second]) for first, second in pair)
             for bits, pair in locking.TERM_TABLES["symmetric_corrected"].items()}
    return locking.build_term_ensemble(terms, "conjugate_second_qubit")


class TestBasis:
    def test_default_basis_invariants(self):
        kets = locking.KETS
        assert abs(np.vdot(kets[0], kets[2])) < 1e-12
        assert abs(np.vdot(kets[1], kets[3])) < 1e-12
        for i in (0, 2):
            for j in (1, 3):
                assert abs(np.vdot(kets[i], kets[j])) ** 2 == pytest.approx(0.5, abs=1e-12)
        for i, j in itertools.product(range(4), repeat=2):
            born = abs(np.vdot(kets[i], kets[j])) ** 2
            assert abs(locking.OVERLAP2[i, j] - born) <= 1e-12
            assert locking.OVERLAP2[i, j] in (0.0, 0.5, 1.0)

    def test_fixed_realization(self):
        kets = locking.KETS
        np.testing.assert_allclose(kets[0], [1, 0])
        np.testing.assert_allclose(kets[2], [0, 1])
        np.testing.assert_allclose(kets[1], [1 / SQRT2, 1 / SQRT2])
        np.testing.assert_allclose(kets[3], [1 / SQRT2, -1 / SQRT2])

    @pytest.mark.parametrize("name", ["KETS", "OVERLAP2"])
    def test_module_constants_are_read_only(self, name):
        constant = getattr(locking, name)
        assert not constant.flags.writeable
        with pytest.raises(ValueError):
            constant[0, 0] = 0.0


class TestConstruction:
    def test_symmetric_eigenvalues_half_half(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        for state in le.ensemble.states:
            vals = np.sort(np.linalg.eigvalsh(state.matrix))[::-1]
            np.testing.assert_allclose(vals, [0.5, 0.5, 0.0, 0.0], atol=1e-10)
        assert all(le.term_orthogonality.values())

    def test_as_printed_breaks_pattern_on_key_00(self):
        le = locking.build_locking_ensemble("as_printed")
        assert le.term_orthogonality == {
            (0, 0): False, (0, 1): True, (1, 0): True, (1, 1): True,
        }
        # the asymmetric state has eigenvalues (2 +- sqrt2)/4
        vals = np.sort(np.linalg.eigvalsh(le.ensemble.states[0].matrix))[::-1]
        np.testing.assert_allclose(
            vals, [(2 + SQRT2) / 4, (2 - SQRT2) / 4, 0.0, 0.0], atol=1e-10
        )

    def test_as_printed_first_qubit_marginal_of_00(self):
        le = locking.build_locking_ensemble("as_printed")
        marginal = independent_first_qubit_marginal(le.ensemble.states[0])
        ket = locking.KETS[3]
        np.testing.assert_allclose(marginal, np.outer(ket, ket.conj()), atol=1e-12)

    def test_symmetric_first_qubit_marginal_of_00(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        marginal = independent_first_qubit_marginal(le.ensemble.states[0])
        expected = 0.5 * sum(np.outer(ket, ket.conj()) for ket in locking.KETS[[1, 3]])
        np.testing.assert_allclose(marginal, expected, atol=1e-12)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValidationError):
            locking.build_locking_ensemble("fixed")

    @pytest.mark.parametrize("pair", [
        ((0, 1), (3, 2)),  # slot 0 would index the last basis state
        ((5, 1), (3, 2)),  # slot 5 is past the end of the basis
        ((1,), (3,)),  # one slot per term for two-bit keys
    ], ids=["slot-0", "slot-5", "one-slot-terms"])
    def test_malformed_term_rejected(self, pair):
        terms = {bits: pair for bits in itertools.product((0, 1), repeat=2)}
        with pytest.raises(ValidationError, match="basis states"):
            locking.build_term_ensemble(terms, "malformed")

    def test_one_bit_table_rejected(self):
        # no hidden bit to unlock: the attack would describe a second qubit
        terms = {(0,): ((2,), (4,)), (1,): ((1,), (3,))}
        with pytest.raises(ValidationError, match="at least two key bits"):
            locking.build_term_ensemble(terms, "one")

    @pytest.mark.parametrize("edit, message", [
        (lambda t: {}, "at least two key bits, got no keys"),
        (lambda t: {k: v for k, v in t.items() if k != (0, 0)},
         r"key \(0, 0\): missing from the term table"),
        (lambda t: {**t, (0, 1): t[(0, 1)][:1]}, r"key \(0, 1\): expected two terms"),
        (lambda t: {**t, (1, 0): (*t[(1, 0)], (1, 1))}, r"key \(1, 0\): expected two terms"),
        (lambda t: {**t, (1, 1, 1): ((1, 1, 1), (3, 2, 1))},
         r"key \(1, 1, 1\): not one of the 4 keys of 2 bits"),
        (lambda t: {**t, (0, 2): t[(0, 1)]}, r"key \(0, 2\): not one of the 4 keys"),
        (lambda t: {"00": t[(0, 0)]}, "key '00': a key is a tuple of bits"),
        (lambda t: {**t, (1, 1): (1, 3)}, r"key \(1, 1\): each term must hold 2 basis states"),
    ], ids=["empty", "missing-key", "one-term", "three-terms", "extra-key", "non-bit-key",
            "string-key", "int-terms"])
    def test_malformed_table_names_the_key(self, edit, message):
        terms = edit(dict(locking.TERM_TABLES["symmetric_corrected"]))
        with pytest.raises(ValidationError, match=message):
            locking.build_term_ensemble(terms, "malformed")

    @pytest.mark.parametrize("n_bits", [2.0, "3", True, None])
    def test_chained_bit_count_must_be_an_integer(self, n_bits):
        with pytest.raises(ValidationError, match="must be an integer"):
            locking.build_chained_locking_ensemble(n_bits)

    @pytest.mark.parametrize("n_bits, message", [
        (1, "at least two key bits, got 1"), (7, "probe dimension 2\\^7 exceeds cap 64"),
    ])
    def test_chained_bit_count_in_range(self, n_bits, message):
        with pytest.raises(ValidationError, match=message):
            locking.build_chained_locking_ensemble(n_bits)

    def test_numpy_integer_bit_count_accepted(self):
        le = locking.build_chained_locking_ensemble(np.int64(3))
        assert le.variant == "chained_3" and le.n_bits == 3

    @pytest.mark.parametrize("variant", locking.VARIANTS)
    def test_one_shared_read_only_object_per_variant(self, variant):
        le = locking.build_locking_ensemble(variant)
        assert locking.build_locking_ensemble(variant) is le
        with pytest.raises(TypeError):
            le.terms[(0, 0)] = ((1, 1), (1, 1))
        with pytest.raises(TypeError):
            le.term_orthogonality[(0, 0)] = True
        assert le.terms == locking.TERM_TABLES[variant]

    @pytest.mark.parametrize("source", [*locking.VARIANTS, *range(2, 7)])
    def test_bit_equal_to_the_per_term_kron_build(self, source):
        le = (locking.build_term_ensemble(locking.TERM_TABLES[source], source)
              if isinstance(source, str) else locking.build_chained_locking_ensemble(source))
        states, spectra, orthogonality = per_term_kron_build(le.terms)
        assert np.array_equal(le.ensemble.stack, states)
        assert np.array_equal(le.ensemble.spectra, spectra)
        assert dict(le.term_orthogonality) == orthogonality
        assert list(le.terms) == [tuple(row) for row in ens._bit_rows(le.n_bits).tolist()]

    @pytest.mark.parametrize("n_bits", [2, 4, 6])
    def test_no_kron_and_one_eigensolve_per_build(self, monkeypatch, n_bits):
        krons, solves = [], []
        kron, eigvalsh = np.kron, np.linalg.eigvalsh
        monkeypatch.setattr(np, "kron", lambda *a: krons.append(a) or kron(*a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a.shape) or eigvalsh(a))
        locking.build_chained_locking_ensemble(n_bits)
        assert krons == []
        assert solves == [(2**n_bits, 2**n_bits, 2**n_bits)]

    def test_chained_reduces_to_symmetric_at_two_bits(self):
        chain = locking.build_chained_locking_ensemble(2)
        table = {bits: pair for bits, pair in chain.terms.items()}
        assert table == locking.TERM_TABLES["symmetric_corrected"]


class TestIdealComparison:
    def test_symmetric_all_keys_at_half(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        comparison = ens.ideal_comparison_value(le.ensemble)
        for value in comparison.per_key.values():
            assert value == pytest.approx(0.5, abs=1e-10)
        assert comparison.mean == pytest.approx(0.5, abs=1e-10)

    def test_as_printed_pattern_keys_at_half(self):
        le = locking.build_locking_ensemble("as_printed")
        comparison = ens.ideal_comparison_value(le.ensemble)
        for key in ("11", "10", "01"):
            assert comparison.per_key[key] == pytest.approx(0.5, abs=1e-10)
        # eigenvalue arithmetic for the asymmetric state
        eigs = np.array([(2 + SQRT2) / 4, (2 - SQRT2) / 4, 0.0, 0.0])
        expected = 0.5 * np.abs(eigs - 0.25).sum()
        assert comparison.per_key["00"] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("variant", ["as_printed", "symmetric_corrected"])
    def test_report_reads_the_ensemble_values(self, variant):
        le = locking.build_locking_ensemble(variant)
        report = locking.locking_report(le, trials=10, seed=0)
        assert report.ideal == ens.ideal_comparison_value(le.ensemble)
        avg = ens.average_state(le.ensemble)
        assert report.average_state_distance_from_mixed == float(
            ops._half_trace_norms(avg - np.eye(4) / 4))

    def test_half_trace_norm_arithmetic(self):
        # eigenvalues (1/2, 1/2, 0, 0) against 1/4 give 0.5 exactly
        eigs = np.array([0.5, 0.5, 0.0, 0.0])
        assert 0.5 * np.abs(eigs - 0.25).sum() == pytest.approx(0.5)


class TestUnlockingStrategy:
    def test_symmetric_deterministic_decode(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        for k1 in (0, 1):
            result = locking.kpa_simulate(le, k1, trials=10, seed=0)
            assert result.closed_form_success == 1.0
            assert result.strategy["first_qubit_basis"] == ([1, 3] if k1 == 1 else [2, 4])

    def test_as_printed_known_one_still_deterministic(self):
        le = locking.build_locking_ensemble("as_printed")
        assert locking.kpa_simulate(le, 1, trials=10, seed=0).closed_form_success == 1.0

    def test_as_printed_known_zero_degrades(self):
        # hand enumeration of the asymmetric branch gives exactly 7/8
        le = locking.build_locking_ensemble("as_printed")
        assert locking.kpa_simulate(le, 0, trials=10, seed=0).closed_form_success == 7 / 8

    def test_conjugate_strategy_is_coin_flip(self, conjugate_control):
        for k1 in (0, 1):
            assert locking.kpa_simulate(conjugate_control, k1, 1, 0).closed_form_success == 0.5
            assert sequential_unlock_oracle(conjugate_control, k1) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("variant, known_k1, closed_form", [
        ("symmetric_corrected", 0, 1.0),
        ("symmetric_corrected", 1, 1.0),
        ("as_printed", 0, 0.875),
        ("as_printed", 1, 1.0),
    ])
    def test_rendered_strategy_pinned(self, variant, known_k1, closed_form):
        le = locking.build_locking_ensemble(variant)
        rendered = locking.kpa_simulate(le, known_k1, trials=10, seed=0).to_dict()["strategy"]
        assert rendered == {**PINNED_STRATEGY[known_k1], "closed_form_success": closed_form}


def assert_peak_memory_flat_in_trials(le):
    """The sampler's tracemalloc peak at 10^6 trials is within 1.2x of 10^5."""
    locking.kpa_simulate(le, 0, trials=10, seed=0)  # one-off first-call allocations
    peaks = {}
    for trials in (10**5, 10**6):
        tracemalloc.start()
        try:
            locking.kpa_simulate(le, 0, trials=trials, seed=0)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[10**6] <= 1.2 * peaks[10**5]


class TestKPASimulate:
    def test_symmetric_both_known_bits_certain(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        for k1 in (0, 1):
            result = locking.kpa_simulate(le, k1, trials=20_000, seed=7)
            assert result.closed_form_success == 1.0
            assert result.success_rate == 1.0

    def test_wrong_basis_control_near_half(self, conjugate_control):
        trials = 40_000
        result = locking.kpa_simulate(conjugate_control, 1, trials=trials, seed=11)
        assert result.closed_form_success == 0.5
        sigma = np.sqrt(0.25 / trials)
        assert abs(result.success_rate - 0.5) <= 3 * sigma + 1e-9

    def test_as_printed_zero_branch_matches_closed_form(self):
        le = locking.build_locking_ensemble("as_printed")
        trials = 40_000
        result = locking.kpa_simulate(le, 0, trials=trials, seed=13)
        assert result.closed_form_success == pytest.approx(7 / 8)
        sigma = np.sqrt(result.closed_form_success * 0.125 / trials)
        assert abs(result.success_rate - 7 / 8) <= 4 * sigma

    def test_deterministic_given_seed(self):
        le = locking.build_locking_ensemble("as_printed")
        a = locking.kpa_simulate(le, 0, trials=5_000, seed=3)
        b = locking.kpa_simulate(le, 0, trials=5_000, seed=3)
        assert a.success_rate == b.success_rate

    def test_chained_three_bits_certain(self):
        chain = locking.build_chained_locking_ensemble(3)
        result = locking.kpa_simulate(chain, 1, trials=300, seed=5)
        assert result.closed_form_success == 1.0
        assert result.success_rate == 1.0

    def test_chained_sampler_on_a_non_deterministic_table(self):
        # Known first bit 1 leaves 8 equally likely (hidden bits, coin) terms.
        # Moving the last slot of one of them into the conjugate basis makes
        # the measured third qubit a fair coin on that term only, so the
        # unlock succeeds with probability 7/8 * 1 + 1/8 * 1/2 = 15/16.
        le = last_slot_moved(3, CONJUGATE, keys=[(1, 0, 1)])
        trials = 40_000
        result = locking.kpa_simulate(le, 1, trials=trials, seed=29)
        assert result.closed_form_success == 15 / 16
        assert sequential_unlock_oracle(le, 1) == pytest.approx(15 / 16, abs=1e-12)
        sigma = np.sqrt(15 / 16 * (1 / 16) / trials)
        assert abs(result.success_rate - 15 / 16) <= 5 * sigma
        assert result.success_rate < 1.0

    @pytest.mark.parametrize("known_k1", [0, 1])
    @pytest.mark.parametrize("source, anchor", [
        *((n, 1.0) for n in (2, 3, 4, 5)),
        *((variant, 1.0) for variant in locking.VARIANTS),
        ("conjugate_2", 0.5), ("conjugate_6", 0.5), ("flip_all_4", 0.0), ("flip_one_4", 15 / 16),
    ])
    def test_chain_closed_form_matches_born_oracle(self, source, anchor, known_k1):
        # source as in attack_source; the closed form is the sampler's
        # expectation, so the Born oracle is the independent check.  One
        # flipped term of the 16 (hidden bits, coin) terms at n = 4 fails
        le = attack_source(source, known_k1)
        oracle = sequential_unlock_oracle(le, known_k1)
        closed_form = locking.kpa_simulate(le, known_k1, 1, 0).closed_form_success
        assert closed_form == pytest.approx(oracle, abs=1e-12)
        assert closed_form == (7 / 8 if (source, known_k1) == ("as_printed", 0) else anchor)

    def test_blocks_deterministic_and_near_closed_form(self):
        le = locking.build_locking_ensemble("as_printed")
        trials = 3 * 2**16 + 17
        a = locking.kpa_simulate(le, 0, trials=trials, seed=23)
        b = locking.kpa_simulate(le, 0, trials=trials, seed=23)
        assert a.success_rate == b.success_rate
        assert a.trials == trials
        sigma = np.sqrt(7 / 8 * (1 / 8) / trials)
        assert abs(a.success_rate - 7 / 8) <= 5 * sigma

    def test_max_trials_attack_near_closed_form(self):
        le = locking.build_locking_ensemble("as_printed")
        result = locking.kpa_simulate(le, 0, trials=locking.MAX_TRIALS, seed=31)
        assert result.trials == locking.MAX_TRIALS
        sigma = np.sqrt(7 / 8 * (1 / 8) / locking.MAX_TRIALS)
        assert abs(result.success_rate - 7 / 8) <= 5 * sigma

    def test_peak_memory_flat_in_trials(self):
        assert_peak_memory_flat_in_trials(locking.build_locking_ensemble("as_printed"))

    def test_peak_memory_flat_in_trials_at_six_bits(self):
        # the per-term count arrays grow with n, and are largest here; the
        # last slot is moved into the conjugate basis so that the draws are
        # not all certain
        assert_peak_memory_flat_in_trials(last_slot_moved(6, CONJUGATE))

    @pytest.mark.parametrize("source, known_k1, rate", [
        *(("symmetric_corrected", k1, 1.0) for k1 in (0, 1)),
        ("as_printed", 1, 1.0),
        *((n, k1, 1.0) for n in range(3, 7) for k1 in (0, 1)),
        *(("flip_all_4", k1, 0.0) for k1 in (0, 1)),
    ])
    def test_certain_attack_scores_every_trial_or_none(self, source, known_k1, rate):
        # every Born weight on each term's path is 0 or 1 and the terms
        # agree, so every draw is certain, whatever the seed
        le = attack_source(source, known_k1)
        for trials in (1, 17, locking.MAX_TRIALS):
            for seed in (0, 3, 2**31 + 5):
                result = locking.kpa_simulate(le, known_k1, trials, seed)
                assert result.success_rate == rate, (trials, seed)
                assert result.trials == trials

    @pytest.mark.parametrize("n_bits", [2, 3, 4])
    @pytest.mark.parametrize("known_k1", [2, -1])
    def test_known_bit_outside_zero_one_rejected(self, n_bits, known_k1):
        le = locking.build_chained_locking_ensemble(n_bits)
        with pytest.raises(ValidationError, match="known first bit must be 0 or 1"):
            locking.kpa_simulate(le, known_k1, trials=10, seed=0)

    def test_all_equal_control_is_blind(self, all_equal_control):
        result = locking.kpa_simulate(all_equal_control, 1, trials=20_000, seed=17)
        assert result.closed_form_success == 0.5
        assert sequential_unlock_oracle(all_equal_control, 1) == pytest.approx(0.5, abs=1e-12)
        assert abs(result.success_rate - 0.5) <= 3 * np.sqrt(0.25 / 20_000)


class TestReferenceSampler:
    @pytest.mark.parametrize("n_bits", [2, 3, 4, 5, 6])
    def test_chained_table_matches_the_reference_walk(self, n_bits):
        chain = locking.build_chained_locking_ensemble(n_bits)
        assert dict(chain.terms) == reference_chained_terms(n_bits)

    @pytest.mark.parametrize("known_k1", [0, 1])
    @pytest.mark.parametrize("source", [
        *locking.VARIANTS, 2, 3, 4, 5, 6, "conjugate_2", "conjugate_6", "flip_all_4",
        "flip_one_4",
    ])
    def test_success_counts_equal_the_reference(self, source, known_k1):
        # source as in attack_source: only on the conjugate tables, the
        # one-term flip and as_printed with known bit 0 does the success
        # count depend on the draws; in every other case every draw is
        # certain
        le = attack_source(source, known_k1)
        for trials in (1, 17, 2**16, 2**16 + 1, 10**5, 3 * 2**16 + 17):
            for seed in (0, 7, 2**31 + 5):
                result = locking.kpa_simulate(le, known_k1, trials, seed)
                expected = reference_success_count(le, known_k1, trials, seed)
                assert result.success_rate == expected / trials, (trials, seed)

    @pytest.mark.parametrize("source, known_k1", [
        ("as_printed", 0),
        *((f"conjugate_{n}", k1) for n in (2, 6) for k1 in (0, 1)),
        *(("flip_one_4", k1) for k1 in (0, 1)),
    ])
    def test_success_count_follows_the_per_trial_law(self, source, known_k1):
        # Over LAW_SEEDS seeds of LAW_TRIALS trials, the counts of
        # kpa_simulate and of the per-trial walk are both samples of
        # Binomial(trials, closed form).  Bands are 4 sigma of the normal
        # approximation: the standard error of a mean of S counts with
        # variance v is sqrt(v / S), that of a sample variance v sqrt(2 / (S - 1))
        le = attack_source(source, known_k1)
        p = locking.kpa_simulate(le, known_k1, 1, 0).closed_form_success
        assert 0.0 < p < 1.0
        seeds = range(LAW_SEEDS)
        counts = np.array([locking.kpa_simulate(le, known_k1, LAW_TRIALS, s).success_rate
                           for s in seeds]) * LAW_TRIALS
        walked = np.array([per_trial_success_count(le, known_k1, LAW_TRIALS, s) for s in seeds])
        mean, var = LAW_TRIALS * p, LAW_TRIALS * p * (1 - p)
        mean_band, var_band = 4 * np.sqrt(var / LAW_SEEDS), 4 * var * np.sqrt(2 / (LAW_SEEDS - 1))
        for sample in (counts, walked):
            assert abs(sample.mean() - mean) <= mean_band
            assert abs(sample.var(ddof=1) - var) <= var_band
        assert abs(counts.mean() - walked.mean()) <= np.sqrt(2) * mean_band
        assert abs(counts.var(ddof=1) - walked.var(ddof=1)) <= np.sqrt(2) * var_band


class TestKPAArguments:
    @pytest.mark.parametrize("kwargs", [
        {"trials": 1000.0},
        {"trials": True},
        {"seed": -1},
        {"known_k1": 1.0},
    ], ids=["float-trials", "bool-trials", "negative-seed", "float-known-bit"])
    def test_invalid_argument_rejected(self, kwargs):
        le = locking.build_locking_ensemble("symmetric_corrected")
        with pytest.raises(ValidationError):
            locking.kpa_simulate(le, **{"known_k1": 1, "trials": 10, "seed": 0, **kwargs})

    def test_report_with_bool_trials_rejected(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        with pytest.raises(ValidationError):
            locking.locking_report(le, trials=True)

    def test_numpy_integers_accepted_as_python_ints(self):
        le = locking.build_locking_ensemble("as_printed")
        result = locking.kpa_simulate(le, np.int64(0), np.int32(500), np.uint8(3))
        expected = locking.kpa_simulate(le, 0, 500, 3)
        assert result.to_dict() == expected.to_dict()
        assert type(result.trials) is int and type(result.seed) is int
        assert type(result.strategy["known_first_bit"]) is int


class TestLockingReport:
    def test_symmetric_headline_numbers(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        report = locking.locking_report(le, trials=2_000, seed=0)
        assert report.half_plus_ideal == pytest.approx(1.0, abs=1e-10)
        assert report.criteria.d < 1.0 - 1e-6
        assert report.criteria.d == pytest.approx(0.5, abs=1e-10)
        assert report.kpa[0].closed_form_success == 1.0
        assert report.kpa[1].closed_form_success == 1.0
        # the trace criterion sits at one half while the attack is certain
        assert report.criteria.d < 1.0 - 1e-6
        assert report.kpa[1].success_rate == 1.0

    def test_as_printed_average_state_not_mixed(self):
        le = locking.build_locking_ensemble("as_printed")
        report = locking.locking_report(le, trials=500, seed=0)
        assert report.average_state_distance_from_mixed > 1e-3
        assert report.criteria.d < 1.0 - 1e-6

    def test_control_report_shows_no_leakage(self, all_equal_control):
        report = locking.locking_report(all_equal_control, trials=2_000, seed=0)
        assert report.criteria.d == pytest.approx(0.0, abs=1e-10)
        assert report.kpa[1].closed_form_success == pytest.approx(0.5)

    def test_round_trip_through_ensemble_format(self, tmp_path):
        le = locking.build_locking_ensemble("symmetric_corrected")
        path = tmp_path / "locking.json"
        ens.save_ensemble(le.ensemble, path)
        loaded = ens.load_ensemble(path)
        assert ens.mean_conditional_distance(loaded) == pytest.approx(
            ens.mean_conditional_distance(le.ensemble), abs=1e-12
        )
