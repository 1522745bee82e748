"""Tests for POVMs, discrimination optima and the information search."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qseclab
from qseclab import bounds, detection as det, distributions as dist, ensembles as ens, locking
from qseclab import operators as ops
from qseclab.errors import (
    DimensionCapError,
    Error,
    NotHermitianError,
    ValidationError,
    ZeroMassError,
)

from born_rule import outcome_distribution
from pure_state import pure_state
from qubit_oracle import brute_force_binary_qubit
from random_states import random_mixed_state, random_pure_state


def spectral_inverse_square_roots(vals):
    """A spectrum's inverse square roots on the support through the masked
    form, with the cutoff taken from the spectrum's maximum."""
    support = vals > max(float(vals.max()), 0.0) * 1e-12
    inv_sqrt = np.zeros_like(vals)
    inv_sqrt[support] = 1.0 / np.sqrt(vals[support])
    return inv_sqrt


def spectral_pinv_sqrt(matrix):
    """Inverse square root on the support through the masked spectrum, the
    form that also built the kernel projector on every call."""
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * spectral_inverse_square_roots(vals)) @ vecs.conj().T


def copying_minimum_error_iterate(e, max_iters=500, tol=1e-9):
    """The plain fixed-point loop on the elements that
    ``det.minimum_error_iterate`` ran for every key count before the binary
    closed form and the extrapolated factored iteration: it copied the
    elements on every improvement and took every inverse square root
    through the masked spectrum."""
    srm = det.square_root_measurement(e)
    d = e.state_dim
    weighted = e.prior[:, None, None] * e.stack
    elements = srm.elements[: e.num_keys]
    floor = srm
    best_value = srm.success_probability
    best_elements = elements.copy()
    guess = int(np.argmax(e.prior))
    trivial = np.zeros_like(elements)
    trivial[guess] = np.eye(d)
    if float(e.prior[guess]) > best_value:
        best_value = float(e.prior[guess])
        best_elements = trivial
        floor = det.DiscriminationResult(best_value, trivial, "trivial_guess", True, 0)
    converged = False
    iterations = 0
    previous = det._success(weighted, elements)
    for iterations in range(1, max_iters + 1):
        g = det._hermitian_part(weighted @ elements @ weighted)
        a_pinv = spectral_pinv_sqrt(g.sum(axis=0))
        elements = det._hermitian_part(a_pinv @ g @ a_pinv)
        value = det._success(weighted, elements)
        if value > best_value:
            best_value = value
            best_elements = elements.copy()
        if abs(value - previous) < tol * max(1.0, abs(previous)):
            converged = True
            break
        previous = value
    final = best_elements.copy()
    final[guess] += det._hermitian_part(np.eye(d) - best_elements.sum(axis=0))
    final = det._hermitian_part(final)
    vals, vecs = np.linalg.eigh(final)
    if vals[:, 0].min() < -det.ELEMENT_PSD_TOL:
        clipped = vecs * np.clip(vals, 0.0, None)[:, None, :]
        final = clipped @ np.conj(np.transpose(vecs, (0, 2, 1)))
        s = spectral_pinv_sqrt(final.sum(axis=0))
        final = det._hermitian_part(s @ final @ s)
        if det._success(weighted, final) < floor.success_probability:
            gap = det._duality_gap(weighted, floor.elements[: e.num_keys])
            return replace(floor, converged=converged, iterations=iterations, gap=gap)
    return det.DiscriminationResult(
        success_probability=min(det._success(weighted, final), 1.0),
        elements=final,
        method="trivial_guess" if best_elements is trivial else "iterative",
        converged=converged,
        iterations=iterations,
        gap=det._duality_gap(weighted, final),
    )


def factored_minimum_error_iterate(e, max_iters=500, tol=1e-9):
    """``det.minimum_error_iterate`` for more than two keys, step by step:
    the square-root start's eigen-factors, the map on factors with
    extrapolation 2 W B - W B_before, a refused step replaced by the plain
    map, every inverse square root through the masked spectrum."""
    srm = det.square_root_measurement(e)
    d = e.state_dim
    weighted = e.prior[:, None, None] * e.stack
    start = srm.elements[: e.num_keys]
    floor = srm
    best_value = srm.success_probability
    best_elements = start
    guess = int(np.argmax(e.prior))
    trivial = np.zeros_like(start)
    trivial[guess] = np.eye(d)
    if float(e.prior[guess]) > best_value:
        best_value = float(e.prior[guess])
        best_elements = trivial
        floor = det.DiscriminationResult(best_value, trivial, "trivial_guess", True, 0)

    def mapped(c):
        columns = c.transpose(1, 0, 2).reshape(d, -1)
        factors = spectral_pinv_sqrt(columns @ columns.conj().T) @ c
        product = weighted @ factors
        return factors, product, float(np.vdot(factors, product).real)

    vals, vecs = np.linalg.eigh(start)
    factors = vecs * np.sqrt(np.maximum(vals, 0.0))[:, None, :]
    product = weighted @ factors
    previous = float(np.vdot(factors, product).real)
    before = None
    best_factors = None
    stopped = False
    iterations = 0
    while iterations < max_iters:
        iterations += 1
        if before is None:
            factors, trial, value = mapped(product)
        else:
            factors, trial, value = mapped(2.0 * product - before)
            if value < previous:
                before = None
                continue
        before, product = product, trial
        if value > best_value:
            best_value, best_factors = value, factors
        if abs(value - previous) < tol * max(1.0, abs(previous)):
            stopped = True
            break
        previous = value
    method = floor.method
    if best_factors is not None:
        best_elements = det._hermitian_part(
            best_factors @ np.conj(np.swapaxes(best_factors, -1, -2)))
        method = "iterative"
    final = best_elements.copy()
    final[guess] += det._hermitian_part(np.eye(d) - best_elements.sum(axis=0))
    final = det._hermitian_part(final)
    result = None
    vals, vecs = np.linalg.eigh(final)
    if vals[:, 0].min() < -det.ELEMENT_PSD_TOL:
        clipped = vecs * np.clip(vals, 0.0, None)[:, None, :]
        final = clipped @ np.conj(np.transpose(vecs, (0, 2, 1)))
        s = spectral_pinv_sqrt(final.sum(axis=0))
        final = det._hermitian_part(s @ final @ s)
        if det._success(weighted, final) < floor.success_probability:
            result = floor
    if result is None:
        result = det.DiscriminationResult(
            min(det._success(weighted, final), 1.0), final, method, False, 0)
    gap = det._duality_gap(weighted, result.elements[: e.num_keys])
    return replace(result, converged=stopped and gap <= 1e-6, iterations=iterations, gap=gap)


def more_than_two_keys(recipes):
    instances = (bounds.build_instance(recipe) for recipe in recipes)
    return [e for e in instances if e.num_keys > 2]


def uniform_ensemble(states):
    n_keys = len(states)
    n_bits = n_keys.bit_length() - 1
    return ens.CQEnsemble(n_bits, np.full(n_keys, 1 / n_keys), tuple(states))


def orthogonal_ensemble(n_bits):
    n_keys = 2**n_bits
    return uniform_ensemble([pure_state(np.eye(n_keys)[k]) for k in range(n_keys)])


def two_basis_ensemble(n):
    """Key (basis, x) -> |x> or H^n |x> on n qubits, uniform prior."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    rotated = np.eye(1)
    for _ in range(n):
        rotated = np.kron(rotated, hadamard)
    kets = np.concatenate([np.eye(2**n), rotated.T])
    return uniform_ensemble([pure_state(k) for k in kets])


def trine_ensemble():
    """The equiprobable trine as a four-key ensemble whose last key has no mass."""
    kets = [np.array([np.cos(t), np.sin(t)]) for t in 2 * np.pi * np.arange(3) / 3]
    states = [pure_state(k) for k in kets] + [pure_state([1.0, 0.0])]
    return ens.CQEnsemble(2, np.array([1 / 3, 1 / 3, 1 / 3, 0.0]), states)


def tetrahedron_ensemble():
    """The four equiprobable qubit states whose Bloch vectors form a regular tetrahedron."""
    kets = [np.array([1.0, 0.0])] + [
        np.array([1.0, np.sqrt(2.0) * np.exp(2j * np.pi * k / 3)]) / np.sqrt(3.0)
        for k in range(3)
    ]
    return uniform_ensemble([pure_state(k) for k in kets])


def assert_valid_measurement(elements, dim):
    """The checks ``det.POVM`` applies to a caller's measurement: Hermitian
    elements within 1e-12, summing to the identity within
    ``COMPLETENESS_TOL``, none with an eigenvalue below -``ELEMENT_PSD_TOL``."""
    assert elements.dtype == np.complex128 and elements.shape[1:] == (dim, dim)
    assert 1 <= len(elements) <= det.MAX_OUTCOMES and not elements.flags.writeable
    assert np.abs(elements - np.conj(np.swapaxes(elements, -1, -2))).max() <= ops.HERMITIAN_TOL
    assert np.abs(elements.sum(axis=0) - np.eye(dim)).max() <= det.COMPLETENESS_TOL
    assert np.linalg.eigvalsh(elements)[:, 0].min() >= -det.ELEMENT_PSD_TOL


class TestPOVMValidation:
    def test_projective_pair_valid(self):
        povm = det.POVM((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert povm.stack.shape == (2, 2, 2)

    def test_non_positive_element_rejected(self):
        with pytest.raises(ValidationError, match="element eigenvalue -5.000e-01"):
            det.POVM((np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])))

    def test_stack_is_the_read_only_element_matrices(self):
        povm = det.POVM((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        with pytest.raises(ValueError):
            povm.stack[0, 0, 0] = 1.0

    def test_incomplete_elements_rejected(self):
        with pytest.raises(ValidationError):
            det.POVM((np.diag([0.5, 0.0]), np.diag([0.0, 0.5])))

    @pytest.mark.parametrize(
        "elements, error",
        [
            ((), ValidationError),
            ((np.full((1, 1), 1 / 257),) * 257, ValidationError),
            ((np.diag([1.0, 0.0]), np.diag([0.0, 0.0, 1.0])), ValidationError),
            ((np.ones((2, 3)) / 2,), NotHermitianError),
            ((np.array([[0.5, 1e-11], [0.0, 0.5]]), np.eye(2) / 2), NotHermitianError),
            ((np.array([[np.nan, 0.0], [0.0, 1.0]]),), NotHermitianError),
            ((np.eye(65),), DimensionCapError),
            ((np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(3)), NotHermitianError),
            ((np.array([[0.0, 1.0], [0.0, 0.0]]),) * 257, NotHermitianError),
        ],
        ids=["empty", "257_outcomes", "mixed_dims", "non_square", "off_hermitian", "nan", "d65",
             "mixed_dims_non_hermitian", "257_outcomes_non_hermitian"],
    )
    def test_malformed_input_raises_its_error_class(self, elements, error):
        with pytest.raises(Error) as caught:
            det.POVM(elements)
        assert type(caught.value) is error

    def test_stack_is_a_complex_copy_of_the_input(self):
        elements = [[[1, 0], [0, 0]], np.diag([0.0, 1.0])]
        povm = det.POVM(elements)
        assert povm.stack.dtype == np.complex128
        assert np.array_equal(povm.stack, np.array(elements, dtype=np.complex128))

    def test_writing_the_callers_array_leaves_the_stack(self):
        elements = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        povm = det.POVM(elements)
        elements[0, 0, 0] = 7.0
        np.testing.assert_array_equal(povm.stack, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])

    def test_measurements_wrap_no_element_as_an_operator(self, monkeypatch):
        calls = []
        post_init = ops.HermitianOperator.__post_init__

        def counted(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(ops.HermitianOperator, "__post_init__", counted)
        e = bounds.build_instance(bounds.EnsembleRecipe("random_mixed", 3, 8, 5))
        det.square_root_measurement(e)
        det.minimum_error_iterate(e)
        det.accessible_info_lower_bound(e, restarts=1)
        assert calls == []

    def test_outcome_distribution(self):
        povm = det.POVM((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        probs = outcome_distribution(povm.stack, ops.DensityOperator(np.diag([0.3, 0.7])))
        np.testing.assert_allclose(probs, [0.3, 0.7], atol=1e-12)

    def test_eigenbasis_of_a_matrix_is_that_of_its_operator(self):
        avg = ens.average_state(locking.build_locking_ensemble("as_printed").ensemble)
        from_matrix = det.eigenbasis_povm(avg)
        assert np.array_equal(from_matrix, det.eigenbasis_povm(ops.DensityOperator(avg).matrix))
        assert len(from_matrix) == 4


def binary_optimum(a, b, prior):
    """The closed-form binary optimum of states ``a`` and ``b`` with prior
    weight ``prior`` on ``a``: ``minimum_error_iterate`` on two keys runs
    the Helstrom measurement."""
    return det.minimum_error_iterate(ens.CQEnsemble(1, [prior, 1.0 - prior], (a, b)))


class TestHelstromBinary:
    def test_closed_form_is_certified(self):
        rng = np.random.default_rng(97)
        rho, sigma = random_mixed_state(3, rng), random_mixed_state(3, rng)
        assert binary_optimum(rho, sigma, 0.3).gap == 0.0

    def test_identical_states_coin_flip(self):
        rho = np.eye(2) / 2
        assert binary_optimum(rho, rho, 0.5).success_probability == pytest.approx(0.5)

    def test_orthogonal_states_perfect(self):
        result = binary_optimum(pure_state([1, 0]), pure_state([0, 1]), 0.5)
        assert result.success_probability == pytest.approx(1.0)

    def test_closed_form_equals_half_plus_half_distance(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = random_mixed_state(3, rng)
            b = random_mixed_state(3, rng)
            got = binary_optimum(a, b, 0.5).success_probability
            distance = float(ops._half_trace_norms(a.matrix - b.matrix))
            assert got == pytest.approx(0.5 + 0.5 * distance, abs=1e-10)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            a = random_mixed_state(2, rng)
            b = random_mixed_state(2, rng)
            closed = binary_optimum(a, b, 0.5).success_probability
            brute = brute_force_binary_qubit(a, b, 0.5).success_probability
            assert closed == pytest.approx(brute, abs=1e-6)

    def test_never_below_best_prior(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            a = random_mixed_state(2, rng)
            b = random_mixed_state(2, rng)
            prior = float(rng.uniform(0.05, 0.95))
            result = binary_optimum(a, b, prior)
            assert result.success_probability >= max(prior, 1 - prior) - 1e-12

    def test_returned_povm_is_optimal(self):
        rng = np.random.default_rng(53)
        a = random_mixed_state(2, rng)
        b = random_mixed_state(2, rng)
        result = binary_optimum(a, b, 0.5)
        achieved = 0.5 * outcome_distribution(result.elements, a)[0]
        achieved += 0.5 * outcome_distribution(result.elements, b)[1]
        assert achieved == pytest.approx(result.success_probability, abs=1e-10)
    def test_as_printed_unlock_optimum(self):
        # with known first bit 0, the two remaining as-printed states are told
        # apart with success (5 + sqrt 5) / 8, above the unlock rule's 7/8
        e = locking.build_locking_ensemble("as_printed").ensemble
        result = det.minimum_error_iterate(det.conditioned_ensemble(e, (0,), (0,)))
        assert result.method == "helstrom"
        assert result.success_probability == pytest.approx((5.0 + np.sqrt(5.0)) / 8.0, abs=1e-12)


class TestSquareRootMeasurement:
    def test_orthogonal_states_perfect(self):
        result = det.square_root_measurement(orthogonal_ensemble(2))
        assert result.success_probability == pytest.approx(1.0, abs=1e-10)

    def test_identical_states_uniform(self):
        e = uniform_ensemble([np.eye(2) / 2] * 4)
        result = det.square_root_measurement(e)
        assert result.success_probability == pytest.approx(0.25, abs=1e-10)

    def test_locking_between_quarter_and_refined(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        srm = det.square_root_measurement(le.ensemble)
        refined = det.minimum_error_iterate(le.ensemble)
        assert srm.success_probability >= 0.25 - 1e-12
        assert srm.success_probability <= refined.success_probability + 1e-9

    @pytest.mark.parametrize("dim, rank", [(6, 0), (6, 1), (6, 3), (6, 6), (1, 1), (64, 64)],
                             ids=["0", "1", "3", "6", "full-d1", "full-d64"])
    def test_inverse_square_root_is_bit_equal_to_the_spectral_form(self, dim, rank):
        rng = np.random.default_rng(rank)
        z = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        matrix = z @ z.conj().T
        assert np.array_equal(det._psd_pinv_sqrt(matrix), spectral_pinv_sqrt(matrix))
        # the cutoff reads the largest eigenvalue as the last of the ascending
        # spectrum: the same where round-off puts entries at or below zero,
        # and on an all-zero spectrum
        vals = np.linalg.eigvalsh(matrix)
        for spectrum in (vals, np.sort(np.concatenate([vals, [-1e-17, 0.0, 1e-30]])),
                         np.zeros(dim)):
            assert np.array_equal(det._pinv_sqrt_spectrum(spectrum),
                                  spectral_inverse_square_roots(spectrum))

    def test_kernel_completion_on_rank_deficient_average(self):
        # two pure states in a 4-dim space leave a kernel remainder outcome
        states = [pure_state(np.eye(4)[0]), pure_state(np.eye(4)[1])]
        e = uniform_ensemble(states)
        result = det.square_root_measurement(e)
        assert len(result.elements) == 3
        assert result.success_probability == pytest.approx(1.0, abs=1e-10)

    def test_more_keys_than_the_outcome_cap_are_refused(self):
        # every K-outcome measurement starts from this one
        assert len(det.square_root_measurement(
            bounds.build_instance(bounds.EnsembleRecipe("random_mixed", 8, 2, 0))).elements) == 256
        e = bounds.build_instance(bounds.EnsembleRecipe("random_mixed", 9, 2, 0))
        for measure in (det.square_root_measurement, det.minimum_error_iterate,
                        det.accessible_info_lower_bound, det.criteria_record):
            with pytest.raises(DimensionCapError) as raised:
                measure(e)
            assert str(raised.value) == "512 keys exceed the 256-outcome cap of a measurement"


class TestMinimumErrorIterate:
    def test_matches_classical_maximum_likelihood(self):
        # oracle: exact classical optimum for commuting diagonal states
        rng = np.random.default_rng(77)
        for _ in range(10):
            rows = rng.exponential(size=(4, 4))
            rows /= rows.sum(axis=1, keepdims=True)
            states = tuple(ops.DensityOperator(np.diag(r.astype(complex))) for r in rows)
            e = uniform_ensemble(states)
            expected = sum(max(0.25 * rows[k, y] for k in range(4)) for y in range(4))
            result = det.minimum_error_iterate(e, max_iters=3000, tol=1e-13)
            assert result.success_probability == pytest.approx(expected, abs=1e-8)

    def test_matches_helstrom_on_binary_ensembles(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            a = random_mixed_state(3, rng)
            b = random_mixed_state(3, rng)
            e = ens.CQEnsemble(1, [0.5, 0.5], (a, b))
            # the plain fixed-point loop, run on two keys, refines to the closed form
            refined = copying_minimum_error_iterate(e)
            closed = det.minimum_error_iterate(e)
            assert refined.success_probability == pytest.approx(
                closed.success_probability, abs=1e-6
            )

    def test_never_below_square_root_value(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            e = uniform_ensemble([random_mixed_state(4, rng) for _ in range(4)])
            srm = det.square_root_measurement(e)
            refined = det.minimum_error_iterate(e)
            assert refined.success_probability >= srm.success_probability - 1e-12

    def test_default_budget_certifies_a_slow_campaign_instance(self):
        # commuting_classical, n = 2, d = 4: the loop stops after 124
        # iterations at a gap of 4.0e-8; a budget of 100 leaves it
        # uncertified at a gap of 1.25e-6
        e = bounds.build_instance(bounds.default_recipes(300, seed=1)[67])
        result = det.minimum_error_iterate(e)
        assert result.converged
        assert result.gap <= 1e-6

    def test_never_below_best_prior_guess(self):
        states = (np.eye(2) / 2, np.eye(2) / 2)
        e = ens.CQEnsemble(1, [0.9, 0.1], states)
        result = det.minimum_error_iterate(e)
        assert result.success_probability == pytest.approx(0.9, abs=1e-9)

    @pytest.mark.parametrize(
        "n_bits, dim, seed", [(1, 2, 685), (2, 4, 224), (3, 8, 13), (3, 8, 101)]
    )
    def test_povm_valid_where_round_off_breaks_an_element(self, n_bits, dim, seed):
        # random_pure ensembles on which an element of the completed iterate
        # fell below -1e-10 (to -3.4e-7 for seed 13 at d = 8)
        e = bounds.build_instance(bounds.EnsembleRecipe("random_pure", n_bits, dim, seed))
        result = det.minimum_error_iterate(e, max_iters=60)
        total = sum(result.elements)
        np.testing.assert_allclose(total, np.eye(dim), atol=1e-12)
        srm = det.square_root_measurement(e).success_probability
        assert result.success_probability >= srm - 1e-12
        achieved = sum(
            w * np.trace(st.matrix @ el).real
            for w, st, el in zip(e.prior, e.states, result.elements)
        )
        assert achieved == pytest.approx(result.success_probability, abs=1e-12)

    def test_povm_is_valid_and_achieves_reported_value(self):
        le = locking.build_locking_ensemble("as_printed")
        result = det.minimum_error_iterate(le.ensemble)
        achieved = 0.0
        for k, (w, s) in enumerate(zip(le.ensemble.prior, le.ensemble.states)):
            achieved += w * outcome_distribution(result.elements, s)[k]
        assert achieved == pytest.approx(result.success_probability, abs=1e-9)

    @pytest.mark.parametrize("max_iters", [3, 500])
    def test_gap_brackets_the_helstrom_optimum(self, max_iters):
        rng = np.random.default_rng(89)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            make = random_pure_state if rng.random() < 0.5 else random_mixed_state
            a, b = make(dim, rng), make(dim, rng)
            prior = float(rng.uniform(0.05, 0.95))
            result = det.minimum_error_iterate(ens.CQEnsemble(1, [prior, 1.0 - prior], (a, b)),
                                               max_iters=max_iters)
            # (1 + ||p a - (1 - p) b||_1) / 2
            optimum = 0.5 + float(ops._half_trace_norms(prior * a.matrix
                                                        - (1.0 - prior) * b.matrix))
            value = result.success_probability
            assert value - 1e-12 <= optimum <= value + result.gap + 1e-12

    def test_gap_bounds_a_longer_run_on_campaign_instances(self):
        for recipe in bounds.default_recipes(300, seed=3):
            e = bounds.build_instance(recipe)
            short = det.minimum_error_iterate(e, max_iters=5)
            longer = det.minimum_error_iterate(e, max_iters=60)
            assert short.gap >= 0.0 and longer.gap >= 0.0
            # no measurement beats the short run's certified ceiling
            assert longer.success_probability <= short.success_probability + short.gap + 1e-12

    @pytest.mark.parametrize("max_iters", [60, 500])
    def test_bit_equal_to_the_factored_loop(self, max_iters):
        # the campaign recipes, the instances whose completion needed the
        # repair, and one whose best start is the trivial guess
        instances = more_than_two_keys(bounds.default_recipes(120, seed=3) + tuple(
            bounds.EnsembleRecipe("random_pure", n_bits, dim, seed)
            for n_bits, dim, seed in [(2, 4, 224), (3, 8, 13), (3, 8, 101)]))
        instances.append(ens.CQEnsemble(2, [0.7, 0.1, 0.1, 0.1], (np.eye(2) / 2,) * 4))
        for e in instances:
            got = det.minimum_error_iterate(e, max_iters=max_iters)
            expected = factored_minimum_error_iterate(e, max_iters=max_iters)
            assert (got.method, got.converged, got.iterations) == (
                expected.method, expected.converged, expected.iterations)
            assert got.success_probability == expected.success_probability
            assert got.gap == expected.gap
            assert np.array_equal(got.elements, expected.elements)

    def test_never_below_the_plain_loop_in_fewer_iterations(self):
        steps = plain_steps = 0
        for e in more_than_two_keys(bounds.default_recipes(300, seed=3)):
            got = det.minimum_error_iterate(e, max_iters=60)
            plain = copying_minimum_error_iterate(e, max_iters=60)
            assert got.success_probability >= plain.success_probability - 1e-8
            steps += got.iterations
            plain_steps += plain.iterations
        assert steps < plain_steps

    def test_converged_means_certified(self):
        results = [det.minimum_error_iterate(e, max_iters=60)
                   for e in more_than_two_keys(bounds.default_recipes(300, seed=3))]
        assert all(r.gap <= 1e-6 for r in results if r.converged)
        # the loop stopped on its own, yet the gap leaves the result uncertified
        assert any(not r.converged and r.iterations < 60 for r in results)

    def test_unbeaten_square_root_start_is_labelled_as_such(self):
        # labelled square_root exactly when the result is the completed start,
        # the result of zero iterations
        labels = set()
        for e in more_than_two_keys(bounds.default_recipes(200, seed=3)):
            result = det.minimum_error_iterate(e, max_iters=60)
            start = det.minimum_error_iterate(e, max_iters=0)
            unbeaten = start.method == "square_root" and np.array_equal(
                result.elements, start.elements)
            assert (result.method == "square_root") == unbeaten
            labels.add(result.method)
        assert {"square_root", "iterative"} <= labels

    @pytest.mark.parametrize("kets", [
        [[1, 0], [0, 1], [1, 1], [1, -1]],
        [[1, 0], [1, np.sqrt(2)], [1, np.sqrt(2) * np.exp(2j * np.pi / 3)],
         [1, np.sqrt(2) * np.exp(-2j * np.pi / 3)]],
    ], ids=["bb84", "tetrahedral"])
    def test_four_qubit_states_are_told_apart_half_the_time(self, kets):
        # at most d max(p) = 1/2 for any four qubit states, uniform prior;
        # the square-root measurement of both families reaches it
        e = uniform_ensemble([pure_state(np.asarray(k) / np.linalg.norm(k)) for k in kets])
        result = det.minimum_error_iterate(e)
        assert result.success_probability == pytest.approx(0.5, abs=1e-12)
        assert result.gap <= 1e-9 and result.converged

    def test_gap_closes_on_the_trivial_guess(self):
        states = (np.eye(2) / 2, np.eye(2) / 2)
        result = det.minimum_error_iterate(ens.CQEnsemble(1, [0.9, 0.1], states))
        assert result.gap == pytest.approx(0.0, abs=1e-12)

    def test_unbeaten_trivial_guess_is_labelled_as_such(self):
        states = (np.eye(2) / 2,) * 4
        result = det.minimum_error_iterate(ens.CQEnsemble(2, [0.7, 0.1, 0.1, 0.1], states))
        assert result.method == "trivial_guess"
        assert result.success_probability == pytest.approx(0.7, abs=1e-15)
        assert np.array_equal(result.elements, np.array([np.eye(2)] + [np.zeros((2, 2))] * 3))
        # a result that beats the guess keeps the iterative label
        distinct = tuple(ops.DensityOperator(np.diag(row).astype(complex)) for row in
                         [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7], [0.4, 0.3, 0.3]])
        assert det.minimum_error_iterate(
            ens.CQEnsemble(2, [0.4, 0.3, 0.2, 0.1], distinct)).method == "iterative"

    @pytest.mark.parametrize("max_iters", [0, 60])
    def test_binary_ensembles_get_the_helstrom_measurement(self, max_iters, monkeypatch):
        calls = []
        pinv_sqrt = det._psd_pinv_sqrt
        monkeypatch.setattr(det, "_psd_pinv_sqrt", lambda m: calls.append(m) or pinv_sqrt(m))
        rng = np.random.default_rng(101)
        for i in range(40):
            dim = int(rng.integers(2, 9))
            make = random_pure_state if i % 2 else random_mixed_state
            a, b = make(dim, rng), make(dim, rng)
            prior = float(rng.choice([rng.uniform(0.05, 0.95), rng.uniform(0.0, 1e-3)]))
            e = ens.CQEnsemble(1, [prior, 1.0 - prior], (a, b))
            result = det.minimum_error_iterate(e, max_iters=max_iters)
            closed = det._helstrom(np.stack([prior * a.matrix, (1.0 - prior) * b.matrix]))
            assert (result.method, result.converged, result.iterations, result.gap) == (
                "helstrom", True, 0, 0.0)
            assert result.success_probability == closed.success_probability
            assert np.array_equal(result.elements, closed.elements)
            weighted = e.prior[:, None, None] * e.stack
            assert det._duality_gap(weighted, result.elements) <= 1e-12
        assert calls == []

    def test_valid_povm_on_campaign_instances_and_historic_faults(self):
        # the three (seed, index) campaign instances whose completion once
        # fell below the element tolerance, and a campaign's worth besides
        recipes = bounds.default_recipes(400, seed=7) + tuple(
            bounds.default_recipes(index + 1, seed=seed)[index]
            for seed, index in [(7, 521), (7, 611), (505, 1991)])
        for recipe in recipes:
            e = bounds.build_instance(recipe)
            result = det.minimum_error_iterate(e, max_iters=60)
            assert_valid_measurement(result.elements, e.state_dim)
            assert result.gap >= 0.0


def diagonal_ensembles():
    """(ensemble, rows, prior) for 21 random ensembles of diagonal states,
    n <= 3 key bits, dimension 2 to 5 and skewed priors."""
    rng = np.random.default_rng(5)
    for n_bits, dim in [(1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 4), (3, 5)] * 3:
        rows = rng.exponential(size=(2**n_bits, dim))
        rows /= rows.sum(axis=1, keepdims=True)
        prior = rng.exponential(size=2**n_bits) + 0.1
        prior /= prior.sum()
        states = tuple(ops.DensityOperator(np.diag(r.astype(complex))) for r in rows)
        yield ens.CQEnsemble(n_bits, prior, states), rows, prior


def map_rule(e):
    """The exact minimum-error measurement when every state is diagonal.

    Diagonal states make discrimination classical, and its optimum is the
    maximum a posteriori rule: E_k projects onto the basis vectors y on
    which p_k rho_k(y, y) is largest, ties going to the first key.  One
    argmax, no eigensolve, duality gap 0.  Returns None if any state has a
    nonzero off-diagonal entry.
    """
    diagonal = np.diagonal(e.stack, axis1=1, axis2=2)
    if np.count_nonzero(e.stack) != np.count_nonzero(diagonal):
        return None
    weights = e.prior[:, None] * diagonal.real
    basis = np.arange(e.state_dim)
    elements = np.zeros_like(e.stack)
    elements[np.argmax(weights, axis=0), basis, basis] = 1.0
    return det.DiscriminationResult(
        success_probability=min(float(weights.max(axis=0).sum()), 1.0),
        elements=elements,
        method="map_rule",
        converged=True,
        iterations=0,
        gap=0.0,
    )


class TestMapRule:
    def test_success_is_the_classical_map_value(self):
        for e, rows, prior in diagonal_ensembles():
            expected = sum(max(prior[k] * rows[k, y] for k in range(len(prior)))
                           for y in range(rows.shape[1]))
            result = map_rule(e)
            assert result.gap == 0.0 and result.converged
            assert abs(result.success_probability - expected) <= 1e-12
            achieved = sum(w * np.trace(s.matrix @ el).real
                           for w, s, el in zip(prior, e.states, result.elements))
            assert abs(achieved - expected) <= 1e-12

    def test_matches_the_iteration_on_the_rotated_ensemble(self):
        # a Haar rotation keeps the optimum but takes the iterative path
        rng = np.random.default_rng(7)
        for e, _, prior in diagonal_ensembles():
            u = det._haar_isometry(e.state_dim, e.state_dim, rng)
            rotated = ens.CQEnsemble(
                e.n_bits, prior, tuple(ops.DensityOperator(u @ s.matrix @ u.conj().T)
                                       for s in e.states)
            )
            assert map_rule(rotated) is None
            iterated = det.minimum_error_iterate(rotated, max_iters=3000, tol=1e-13)
            closed = map_rule(e).success_probability
            assert iterated.success_probability == pytest.approx(closed, abs=1e-8)

    def test_ties_go_to_the_first_key(self):
        e = uniform_ensemble([np.eye(3) / 3] * 4)
        stack = map_rule(e).elements
        np.testing.assert_array_equal(stack[0], np.eye(3))
        assert not stack[1:].any()

    @pytest.mark.parametrize("restarts", [0, 2])
    @pytest.mark.parametrize("kind", ["commuting_classical", "spike_classical"])
    def test_search_reaches_the_computational_basis_information(self, kind, restarts,
                                                                monkeypatch):
        # commuting states: the computational basis attains chi, so the
        # search returns it without a square-root measurement or an ascent
        def forbidden(*args):
            raise AssertionError("the diagonal search took a general path")

        monkeypatch.setattr(det, "_frame_ascent", forbidden)
        monkeypatch.setattr(det, "square_root_measurement", forbidden)
        for recipe in bounds.default_recipes(60, seed=13, kinds=(kind,)):
            e = bounds.build_instance(recipe)
            basis = dist.mutual_information(e.prior[:, None] * np.diagonal(e.stack, 0, 1, 2).real)
            bits = det.accessible_info_lower_bound(e, restarts=restarts, seed=3).bits
            assert abs(bits - basis) <= 1e-12
            assert abs(bits - ens.holevo_information(e)) <= 2e-15


class TestAccessibleInfoLowerBound:
    def test_orthogonal_states_reach_key_length(self):
        for n_bits in (1, 2):
            info = det.accessible_info_lower_bound(orthogonal_ensemble(n_bits), restarts=0)
            assert info.bits == pytest.approx(n_bits, abs=1e-6)

    def test_identical_states_no_information(self):
        e = uniform_ensemble([np.eye(2) / 2] * 2)
        info = det.accessible_info_lower_bound(e, restarts=1, seed=5)
        assert info.bits == pytest.approx(0.0, abs=1e-9)

    def test_bounded_by_holevo_information_and_key_length(self):
        rng = np.random.default_rng(97)
        for _ in range(6):
            e = uniform_ensemble([random_mixed_state(2, rng) for _ in range(2)])
            info = det.accessible_info_lower_bound(e, restarts=1, seed=11)
            assert info.bits <= ens.holevo_information(e) + 1e-8
            assert info.bits <= e.n_bits + 1e-8

    def test_search_improves_or_keeps_candidates(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        base = det.accessible_info_lower_bound(le.ensemble, restarts=0)
        searched = det.accessible_info_lower_bound(le.ensemble, restarts=1, seed=2)
        assert searched.bits >= base.bits - 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_basis_ensemble_gives_n_over_2(self, n):
        # DiVincenzo et al., PRL 92, 067902 (2004): I_acc = n/2 while chi = n
        info = det.accessible_info_lower_bound(two_basis_ensemble(n), restarts=1, seed=n)
        assert info.bits == pytest.approx(n / 2, abs=1e-6)
        assert info.bits <= n / 2 + 1e-8

    def test_search_beats_candidates_on_mixed_d8_instance(self):
        e = bounds.build_instance(bounds.EnsembleRecipe("random_mixed", 3, 8, 1))
        base = det.accessible_info_lower_bound(e, restarts=0)
        searched = det.accessible_info_lower_bound(e, restarts=2)
        assert searched.bits >= base.bits + 0.05
        assert searched.bits <= ens.holevo_information(e) + 1e-8

    @pytest.mark.parametrize("restarts", [1, 2])
    @pytest.mark.parametrize("make, bits", [
        (trine_ensemble, np.log2(3 / 2)),         # Sasaki et al., PRA 59, 3325 (1999)
        (tetrahedron_ensemble, np.log2(4 / 3)),   # Davies, IEEE Trans. IT 24, 596 (1978)
    ], ids=["trine", "tetrahedron"])
    def test_symmetric_qubit_ensembles_reach_their_accessible_information(
            self, make, bits, restarts):
        info = det.accessible_info_lower_bound(make(), restarts=restarts, seed=0)
        assert abs(info.bits - bits) <= 1e-12

    def test_equiprobable_pure_pairs_reach_the_levitin_value(self):
        # two equiprobable pure states with overlap s: the Helstrom measurement
        # attains I_acc = 1 - h((1 - sqrt(1 - s^2)) / 2)
        rng = np.random.default_rng(0)
        for i in range(60):
            dim = 2 + i % 4
            a, b = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
            s = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
            error = (1.0 - np.sqrt(1.0 - s * s)) / 2.0
            h = -error * np.log2(error) - (1.0 - error) * np.log2(1.0 - error)
            info = det.accessible_info_lower_bound(uniform_ensemble([pure_state(a), pure_state(b)]),
                                                   restarts=0)
            assert abs(info.bits - (1.0 - h)) <= 1e-12

    def test_diagonal_ensembles_share_one_computational_basis(self):
        first = det.accessible_info_lower_bound(
            bounds.build_instance(bounds.EnsembleRecipe("commuting_classical", 2, 4, 1)))
        second = det.accessible_info_lower_bound(
            bounds.build_instance(bounds.EnsembleRecipe("spike_classical", 2, 4, 2)))
        assert first.elements is second.elements
        assert np.array_equal(first.elements, [np.diag(row) for row in np.eye(4)])
        assert not first.elements.flags.writeable

    def test_deterministic_given_seed(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        first = det.accessible_info_lower_bound(le.ensemble, restarts=1, seed=9)
        second = det.accessible_info_lower_bound(le.ensemble, restarts=1, seed=9)
        assert first.bits == second.bits

    @pytest.mark.parametrize("restarts", [0, 1])
    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be at least 0, got -1"),
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
    ], ids=["negative", "bool", "float"])
    def test_seed_is_refused_unless_a_non_negative_integer(self, restarts, seed, message):
        # at restarts=0 no generator is built, so the check cannot be left to it
        with pytest.raises(ValidationError) as raised:
            det.accessible_info_lower_bound(two_basis_ensemble(1), restarts=restarts, seed=seed)
        assert str(raised.value) == message

    @pytest.mark.parametrize("restarts, message", [
        (-1, "restarts must be at least 0, got -1"),
        (True, "restarts must be an integer, got True"),
        (1.5, "restarts must be an integer, got 1.5"),
    ], ids=["negative", "bool", "float"])
    def test_restarts_is_refused_unless_a_non_negative_integer(self, restarts, message):
        with pytest.raises(ValidationError) as raised:
            det.accessible_info_lower_bound(two_basis_ensemble(1), restarts=restarts)
        assert str(raised.value) == message

    @pytest.mark.parametrize("n_bits", [0, 1])
    def test_identical_states_return_the_candidates_without_an_ascent(self, n_bits, monkeypatch):
        # every joint is a product, so I_acc = 0 and an ascent could add
        # round-off only, after dozens of attempts at d = 64
        n_keys = 2**n_bits
        state = bounds._random_mixed_stack(1, 64, np.random.default_rng(0))
        e = ens.CQEnsemble(n_bits, [1.0 / n_keys] * n_keys, np.repeat(state, n_keys, axis=0))
        base = det.accessible_info_lower_bound(e, restarts=0)
        svd_calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd_calls.append(1) or svd(*a, **k))
        searched = det.accessible_info_lower_bound(e, restarts=1)
        assert svd_calls == []
        assert searched.bits == base.bits and searched.elements is base.elements

    def test_states_differing_in_one_entry_still_run_the_ascents(self, monkeypatch):
        stack = np.repeat(bounds._random_mixed_stack(1, 4, np.random.default_rng(0)), 2, axis=0)
        stack[1, 0, 1] += 1e-3  # one entry, and its mirror to stay Hermitian
        stack[1, 1, 0] += 1e-3
        e = ens.CQEnsemble(1, [0.5, 0.5], stack)
        svd_calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd_calls.append(1) or svd(*a, **k))
        det.accessible_info_lower_bound(e, restarts=1)
        assert svd_calls

    @pytest.mark.parametrize("n_bits, dim", [(2, 4), (1, 2)])
    def test_prior_and_traces_past_one_give_a_bound(self, n_bits, dim):
        # prior and traces each 9e-11 past one pass the input checks; the
        # ascent's joint then sums to about 1 + 1.8e-10, derived data that
        # is not validated again
        n_keys = 2**n_bits
        states = bounds._random_mixed_stack(n_keys, dim, np.random.default_rng(5)) * (1.0 + 9e-11)
        e = ens.CQEnsemble(n_bits, [(1.0 + 9e-11) / n_keys] * n_keys, states)
        info = det.accessible_info_lower_bound(e, restarts=1)
        assert 0.0 < info.bits <= ens.holevo_information(e) + 1e-8


def test_derived_measurements_pass_the_checks_of_a_callers():
    # the package validates the measurements it derives nowhere at run time;
    # the campaign recipes, both locking variants and the chained ensembles
    # hold every one of them to the checks of a caller's POVM here
    instances = [bounds.build_instance(recipe) for recipe in bounds.default_recipes(100, seed=3)]
    instances += [locking.build_locking_ensemble(variant).ensemble
                  for variant in ("as_printed", "symmetric_corrected")]
    instances += [locking.build_chained_locking_ensemble(n).ensemble for n in (3, 4, 5)]
    for e in instances:
        for elements in (det.square_root_measurement(e).elements,
                         det.eigenbasis_povm(ens.average_state(e)),
                         det.minimum_error_iterate(e).elements,
                         det.minimum_error_iterate(e, max_iters=60).elements,
                         det.accessible_info_lower_bound(e, restarts=1).elements):
            assert_valid_measurement(elements, e.state_dim)


def test_search_candidate_is_the_certified_minimum_error_measurement(monkeypatch):
    # the search takes the refinement's elements without the gap; they are
    # the elements minimum_error_iterate certifies, bit for bit
    instances = [bounds.build_instance(recipe) for recipe in bounds.default_recipes(120, seed=3)]
    instances += [locking.build_locking_ensemble(variant).ensemble
                  for variant in ("as_printed", "symmetric_corrected")]
    instances += [locking.build_chained_locking_ensemble(n).ensemble for n in (3, 4, 5)]
    instances.append(ens.CQEnsemble(2, [0.7, 0.1, 0.1, 0.1], (np.eye(2) / 2,) * 4))
    repaired = [bounds.EnsembleRecipe("random_pure", n_bits, dim, seed)
                for n_bits, dim, seed in [(1, 2, 685), (2, 4, 224), (3, 8, 13), (3, 8, 101)]]
    repaired += [bounds.default_recipes(index + 1, seed=seed)[index]
                 for seed, index in [(7, 521), (7, 611), (505, 1991)]]
    instances += [bounds.build_instance(recipe) for recipe in repaired]
    refined = []
    refine = det._minimum_error_refinement
    monkeypatch.setattr(det, "_minimum_error_refinement",
                        lambda *args: refined.append(refine(*args)) or refined[-1])
    for e in instances:
        refined.clear()
        det._best_candidate.__wrapped__(e)  # past the per-ensemble slot
        [(result, _, _)] = refined
        certified = det.minimum_error_iterate(e, max_iters=60).elements
        assert result.elements.dtype == certified.dtype
        assert np.array_equal(result.elements, certified)
        assert not result.elements.flags.writeable


def test_search_without_restarts_computes_no_gap_and_builds_no_generator(monkeypatch):
    instances = [bounds.build_instance(recipe) for recipe in bounds.default_recipes(60, seed=5)
                 if recipe.kind in ("random_mixed", "random_pure") and recipe.n_bits > 1]
    refined = []
    refine = det._minimum_error_refinement

    def refuse(*args, **kwargs):
        raise AssertionError("not on the path of a search without restarts")

    monkeypatch.setattr(det, "_minimum_error_refinement",
                        lambda *args: refined.append(args) or refine(*args))
    monkeypatch.setattr(det, "_duality_gap", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for e in instances:
        det.accessible_info_lower_bound(e, restarts=0)
    assert len(refined) == len(instances) > 0


def reference_frame_ascent(prior, states, kets):
    """The frame ascent as a plain loop.  Where round-off can tip an
    acceptance its arithmetic is the production loop's: the SVD polar
    factor, ``dist._information`` and its log ratio, the same products in the
    same order.  At each attempt it checks those against independent forms:
    the validated ``mutual_information``, the log ratio recomputed from the
    joint, and the frame returned to a POVM by G^{-1/2},
    G = sum_y w_y w_y^dag.  Returns the best kept value and the values of
    the start and of each attempt."""

    def evaluate(v):
        rho_v = states @ v.T  # rho_v[k, :, y] = rho_k v_y
        joint = prior[:, None] * np.maximum(np.einsum("ya,kay->ky", v.conj(), rho_v).real, 0.0)
        value, log2_ratio = dist._information(joint)
        assert abs(value - dist.mutual_information(joint)) <= 1e-12
        product = np.outer(prior, joint.sum(axis=0))
        ratio = np.divide(joint, product, out=np.ones_like(joint), where=joint > 0.0)
        np.testing.assert_allclose(log2_ratio, np.log2(ratio), rtol=0.0, atol=1e-12)
        return value, log2_ratio, rho_v

    def direction(v, log2_ratio, rho_v):
        gradient = np.einsum("ky,kay->ya", np.log(2.0) * prior[:, None] * log2_ratio, rho_v)
        overlap = v.conj().T @ gradient
        tangent = gradient - v @ (0.5 * (overlap + overlap.conj().T))
        return tangent, 2.0 / np.log(2.0) * float(np.vdot(tangent, tangent).real)

    current, log2_ratio, rho_v = evaluate(kets)
    tangent, slope = direction(kets, log2_ratio, rho_v)
    best, values = current, [current]
    average, weight_sum = current, 1.0
    step, kept = 1.0, 0
    for _ in range(det.ASCENT_STEPS):
        if step * slope <= np.finfo(float).eps * max(1.0, current):
            break
        target = kets + step * tangent
        u, _, vh = np.linalg.svd(target, full_matrices=False)
        trial = u @ vh
        np.testing.assert_allclose(
            trial, target @ det._psd_pinv_sqrt(target.T @ target.conj()).T, rtol=0.0, atol=1e-12)
        value, log2_ratio, rho_v = evaluate(trial)
        values.append(value)
        if value < average + 1e-4 * step * slope:
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
        best = max(best, value)
    return best, values


def _ascent_instances():
    """40 (ensemble, start frame) pairs: random_mixed and random_pure with
    n <= 3 and d <= 4, and the two-basis ensembles for n = 1, 2."""
    ensembles = [
        bounds.build_instance(bounds.EnsembleRecipe(kind, n_bits, dim, seed))
        for kind in ("random_mixed", "random_pure")
        for n_bits in (1, 2, 3)
        for dim in (2, 3, 4)
        for seed in (0, 1)
    ]
    ensembles += [two_basis_ensemble(n) for n in (1, 2) for _ in range(2)]
    rng = np.random.default_rng(211)
    for e in ensembles:
        d = e.state_dim
        yield e, det._haar_isometry(d * d, d, rng).conj()


def rounding_exit_frame_ascent(prior, states, kets):
    """The production ascent with another stop: only once its step
    ``kets + step * tangent`` rounds to ``kets`` itself.  Returns every
    kept (value, frame), the start first, and the number of attempts (one
    factorisation each)."""
    weight = np.log(2.0) * prior[:, None]

    def evaluate(v):
        rho_v = states @ v.T
        table = np.clip(np.einsum("ya,kay->ky", v.conj(), rho_v).real, 0.0, None)
        joint = prior[:, None] * table
        return (*dist._information(joint), rho_v)

    def direction(v, log2_ratio, rho_v):
        return det._ascent_slope(v, np.einsum("ky,kay->ya", weight * log2_ratio, rho_v))

    current, log2_ratio, rho_v = evaluate(kets)
    tangent, slope = direction(kets, log2_ratio, rho_v)
    kept = [(current, kets)]
    average, weight_sum = current, 1.0
    step = 1.0
    attempts = 0
    while attempts < det.ASCENT_STEPS:
        target = kets + step * tangent
        if np.array_equal(target, kets):
            break
        attempts += 1
        u, _, vh = np.linalg.svd(target, full_matrices=False)
        trial = u @ vh
        value, log2_ratio, rho_v = evaluate(trial)
        if not value >= average + 1e-4 * step * slope:
            step /= 2.0
            continue
        trial_tangent, slope = direction(trial, log2_ratio, rho_v)
        s, y = trial - kets, trial_tangent - tangent
        sy = abs(float(np.vdot(s, y).real))
        if sy > 0.0:
            step = (float(np.vdot(s, s).real) / sy if len(kept) % 2
                    else sy / float(np.vdot(y, y).real))
        kets, tangent, current = trial, trial_tangent, value
        average = (0.85 * weight_sum * average + value) / (0.85 * weight_sum + 1.0)
        weight_sum = 0.85 * weight_sum + 1.0
        kept.append((current, kets))
    return kept, attempts


def counted_frame_ascent(monkeypatch, prior, states, kets):
    """``det._frame_ascent`` with the values of its information calls: one
    for the start and one per attempt."""
    values = []
    information = dist._information

    def counted(joint):
        values.append(information(joint)[0])
        return information(joint)

    with monkeypatch.context() as patch:
        patch.setattr(dist, "_information", counted)
        bits, found = det._frame_ascent(prior, states, kets)
    return bits, found, values


def information_gradient(prior, states, kets):
    """R_y v_y with R_y = sum_k p_k ln(t_ky / q_y) rho_k, as rows."""
    rho_v = np.einsum("kab,yb->kya", states, kets)
    table = np.einsum("ya,kya->ky", kets.conj(), rho_v).real
    joint = prior[:, None] * table
    ratio = joint / np.outer(prior, joint.sum(axis=0))
    return np.einsum("ky,kya->ya", prior[:, None] * np.log(ratio), rho_v)


@pytest.fixture(scope="module")
def ascents():
    return [
        (e, reference_frame_ascent(e.prior, e.stack, kets),
         det._frame_ascent(e.prior, e.stack, kets))
        for e, kets in _ascent_instances()
    ]


@st.composite
def small_ensembles(draw):
    """An ensemble of 2 or 4 keys on d <= 4, each state A A^dag / tr(A A^dag)
    from a drawn complex A, under a drawn prior, and a Haar start frame."""
    n_bits, dim = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    entries = st.lists(st.floats(-1.0, 1.0), min_size=2 * dim * dim, max_size=2 * dim * dim)
    states = []
    for _ in range(2**n_bits):
        a = np.reshape(draw(entries), (2, dim, dim))
        rho = (a[0] + 1j * a[1]) @ (a[0] + 1j * a[1]).conj().T
        assume(np.trace(rho).real > 1e-3)
        states.append(rho / np.trace(rho).real)
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=2**n_bits,
                                     max_size=2**n_bits)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (ens.CQEnsemble(n_bits, weights / weights.sum(), states),
            det._haar_isometry(dim * dim, dim, rng).conj())


def assert_ascent_properties(e, kets):
    """The ascent from ``kets`` ends no lower than it starts, no higher than
    the Holevo information, on an isometry."""
    bits, found = det._frame_ascent(e.prior, e.stack, kets)
    table = np.einsum("ya,kab,yb->ky", kets.conj(), e.stack, kets).real
    start = dist.mutual_information(e.prior[:, None] * np.clip(table, 0.0, None))
    assert bits >= start - 1e-12
    assert bits <= ens.holevo_information(e) + 1e-8
    np.testing.assert_allclose(found.T @ found.conj(), np.eye(e.state_dim), rtol=0.0, atol=1e-12)


class TestFrameAscent:
    def test_matches_the_loop_reference(self, ascents, monkeypatch):
        # every information call agrees, so every ascent, capped or not,
        # ends on the reference's value
        assert len(ascents) >= 40
        for (e, kets), (_, (expected, expected_values), _) in zip(_ascent_instances(), ascents):
            bits, _, values = counted_frame_ascent(monkeypatch, e.prior, e.stack, kets)
            assert len(values) == len(expected_values)
            np.testing.assert_allclose(values, expected_values, rtol=0.0, atol=1e-12)
            assert abs(bits - expected) <= 1e-12

    def test_stops_at_a_kept_frame_of_the_rounding_exit_loop(self, monkeypatch):
        # the stall exit only ends the loop sooner: every attempt before it
        # is the rounding-exit loop's, so the result is one of that loop's
        # kept frames, and what that loop gains after it is round-off (at
        # most 1.8e-14, from random_mixed n=1 d=3 seed 1)
        for e, kets in _ascent_instances():
            kept, attempts = rounding_exit_frame_ascent(e.prior, e.stack, kets)
            bits, found, values = counted_frame_ascent(monkeypatch, e.prior, e.stack, kets)
            assert any(bits == value and np.array_equal(found, frame) for value, frame in kept)
            assert len(values) - 1 <= attempts
            assert max(value for value, _ in kept) - bits <= 2e-14

    def test_stalled_ascent_stops_before_its_step_rounds_away(self, monkeypatch):
        # from this start the ascent reaches I_acc = 1/2 and stalls there;
        # a loop that stops only when its step rounds to the frame runs on
        e = two_basis_ensemble(1)
        kets = det._haar_isometry(4, 2, np.random.default_rng(2)).conj()
        _, attempts = rounding_exit_frame_ascent(e.prior, e.stack, kets)
        bits, _, values = counted_frame_ascent(monkeypatch, e.prior, e.stack, kets)
        assert 0 < len(values) - 1 < attempts
        assert bits == pytest.approx(0.5, abs=1e-12)

    def test_two_basis_ascent_from_a_slow_start_uses_the_whole_cap(self, monkeypatch):
        # from this start the momentum rule this ascent replaced stalled
        # within 1e-6 of I_acc = 1/2; this one still climbs at the cap,
        # 1.46e-6 short, and gets within 5e-11 of 1/2 in 5000 attempts
        e = two_basis_ensemble(1)
        kets = det._haar_isometry(4, 2, np.random.default_rng(7)).conj()
        bits, _, values = counted_frame_ascent(monkeypatch, e.prior, e.stack, kets)
        assert len(values) - 1 == det.ASCENT_STEPS
        assert 0.0 < 0.5 - bits <= 1.5e-6
        monkeypatch.setattr(det, "ASCENT_STEPS", 5000)
        assert det._frame_ascent(e.prior, e.stack, kets)[0] == pytest.approx(0.5, abs=1e-10)

    def test_attempt_budget_reaches_the_long_run_value(self, monkeypatch):
        # from this start the ascent stalls after more than 100 attempts, at
        # the value of a 5000-attempt run; a budget of 100 stops 2e-7 short
        e = bounds.build_instance(bounds.EnsembleRecipe("random_mixed", 2, 4, 0))
        kets = det._haar_isometry(16, 4, np.random.default_rng(7)).conj()
        bits, _, values = counted_frame_ascent(monkeypatch, e.prior, e.stack, kets)
        monkeypatch.setattr(det, "ASCENT_STEPS", 5000)
        long_run, _ = det._frame_ascent(e.prior, e.stack, kets)
        assert abs(bits - long_run) <= 1e-9
        assert len(values) - 1 > 100

    def test_ascent_keeps_its_bounds_on_the_instances(self):
        for e, kets in _ascent_instances():
            assert_ascent_properties(e, kets)

    @settings(max_examples=60, deadline=None)
    @given(drawn=small_ensembles())
    def test_ascent_keeps_its_bounds_on_drawn_ensembles(self, drawn):
        assert_ascent_properties(*drawn)

    @pytest.mark.parametrize("kind,n_bits,dim,seed", [
        ("random_mixed", 1, 2, 0), ("random_pure", 2, 3, 1), ("random_mixed", 2, 4, 5),
    ])
    def test_slope_is_the_first_order_gain_along_the_polar_path(self, kind, n_bits, dim, seed):
        e = bounds.build_instance(bounds.EnsembleRecipe(kind, n_bits, dim, seed))
        kets = det._haar_isometry(dim * dim, dim, np.random.default_rng(seed)).conj()
        gradient = information_gradient(e.prior, e.stack, kets)

        def information(s):
            u, _, vh = np.linalg.svd(kets + s * gradient, full_matrices=False)
            frame = u @ vh
            table = np.einsum("ya,kab,yb->ky", frame.conj(), e.stack, frame).real
            return dist.mutual_information(e.prior[:, None] * table)

        h = 1e-5
        difference = (information(h) - information(-h)) / (2.0 * h)
        assert det._ascent_slope(kets, gradient)[1] == pytest.approx(difference, rel=1e-5)

    def test_returned_frame_is_a_povm(self, ascents):
        for e, _, (_, kets) in ascents:
            gram = kets.T @ kets.conj()
            np.testing.assert_allclose(gram, np.eye(e.state_dim), rtol=0.0, atol=1e-12)

    def test_search_validates_the_information_of_candidates_only(self, monkeypatch):
        # a candidate is evaluated through its measurement table, an ascent
        # attempt through the frame's own; no derived joint is validated
        tables, validated = [], []
        table, validate = ens.measurement_table, dist.validate_distribution

        def counted_table(*args):
            tables.append(args)
            return table(*args)

        def counted_validate(*args):
            validated.append(args)
            return validate(*args)

        monkeypatch.setattr(ens, "measurement_table", counted_table)
        monkeypatch.setattr(dist, "validate_distribution", counted_validate)
        for steps in (10, det.ASCENT_STEPS):
            monkeypatch.setattr(det, "ASCENT_STEPS", steps)
            # a new ensemble each time: the candidates are evaluated once per ensemble
            e = bounds.build_instance(bounds.EnsembleRecipe("random_mixed", 2, 2, 3))
            tables.clear()
            validated.clear()
            det.accessible_info_lower_bound(e, restarts=2)
            # one evaluation per candidate measurement, none per ascent attempt
            assert len(tables) == 3
            assert validated == []


class TestConditionedEnsemble:
    def test_conditioning_on_nothing_is_identity(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        assert det.conditioned_ensemble(le.ensemble, (), ()) is le.ensemble

    def test_locking_conditioned_on_first_bit(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        cond = det.conditioned_ensemble(le.ensemble, (0,), (1,))
        assert cond.n_bits == 1
        np.testing.assert_allclose(cond.prior, [0.5, 0.5])
        # remaining keys keep their second-bit order: 10 then 11
        np.testing.assert_allclose(cond.states[0].matrix, le.ensemble.states[2].matrix)
        np.testing.assert_allclose(cond.states[1].matrix, le.ensemble.states[3].matrix)

    def test_classical_bayes_oracle(self):
        # diagonal states conditioned on one bit match classical conditioning
        rng = np.random.default_rng(103)
        rows = rng.exponential(size=(4, 4))
        rows /= rows.sum(axis=1, keepdims=True)
        prior = rng.exponential(size=4) + 0.1
        prior /= prior.sum()
        states = tuple(ops.DensityOperator(np.diag(r.astype(complex))) for r in rows)
        e = ens.CQEnsemble(2, prior, states)
        cond = det.conditioned_ensemble(e, (0,), (1,))
        mass = prior[2] + prior[3]
        np.testing.assert_allclose(cond.prior, [prior[2] / mass, prior[3] / mass], atol=1e-12)
        np.testing.assert_allclose(cond.states[0].matrix, np.diag(rows[2].astype(complex)))

    def test_zero_mass_condition(self):
        states = (np.eye(2) / 2,) * 4
        e = ens.CQEnsemble(2, [0.5, 0.5, 0.0, 0.0], states)
        with pytest.raises(ZeroMassError):
            det.conditioned_ensemble(e, (0,), (1,))


class TestSubsetAttackSuperiority:
    """Attacking a key subset directly beats measuring the whole key and
    reducing classically; quantified on the locking ensemble."""

    @staticmethod
    def _marginal_bit_success(e, elements, bit):
        table = ens.measurement_table(e, elements)
        joint = e.prior[:, None] * table  # (key, outcome)
        success = 0.0
        for y in range(table.shape[1]):
            masses = {}
            for k in range(e.num_keys):
                b = (k >> (e.n_bits - 1 - bit)) & 1
                masses[b] = masses.get(b, 0.0) + joint[k, y]
            success += max(masses.values())
        return success

    def test_locking_gap(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        e = le.ensemble
        # conditioned attack: binary problem, exactly solvable
        success_conditioned = 0.0
        for value in (0, 1):
            cond = det.conditioned_ensemble(e, (0,), (value,))
            result = det.minimum_error_iterate(cond)
            success_conditioned += 0.5 * result.success_probability
        assert success_conditioned == pytest.approx(1.0, abs=1e-10)
        # whole-key measurement then classical reduction to the second bit
        full = det.minimum_error_iterate(e)
        marginal = self._marginal_bit_success(e, full.elements, bit=1)
        assert success_conditioned >= marginal - 1e-8

    def test_random_ensembles(self):
        rng = np.random.default_rng(107)
        for _ in range(5):
            e = uniform_ensemble([random_mixed_state(4, rng) for _ in range(4)])
            success_conditioned = 0.0
            for value in (0, 1):
                cond = det.conditioned_ensemble(e, (0,), (value,))
                result = det.minimum_error_iterate(cond)
                success_conditioned += 0.5 * result.success_probability
            full = det.minimum_error_iterate(e)
            marginal = self._marginal_bit_success(e, full.elements, bit=1)
            assert success_conditioned >= marginal - 1e-8


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy stays a test-only oracle
    src = os.path.dirname(os.path.dirname(qseclab.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import qseclab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
