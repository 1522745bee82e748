"""Tests for classical-quantum ensembles and the secrecy criteria."""

import decimal
import gc
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qseclab import bounds, detection, distributions as dist, ensembles as ens, locking
from qseclab import operators as ops
from qseclab.errors import (
    DimensionCapError,
    DimensionMismatchError,
    EmptySubsetError,
    NotHermitianError,
    NotPositiveError,
    ParseError,
    TraceNotOneError,
    ValidationError,
)

from pure_state import pure_state
from random_states import random_mixed_state


def random_ensemble(n_bits, dim, rng, uniform=True):
    n_keys = 2**n_bits
    states = tuple(random_mixed_state(dim, rng) for _ in range(n_keys))
    if uniform:
        prior = np.full(n_keys, 1.0 / n_keys)
    else:
        prior = rng.exponential(size=n_keys) + 1e-3
        prior /= prior.sum()
    return ens.CQEnsemble(n_bits, prior, states)


def orthogonal_ensemble(n_bits):
    n_keys = 2**n_bits
    states = tuple(pure_state(np.eye(n_keys)[k]) for k in range(n_keys))
    return ens.CQEnsemble(n_bits, np.full(n_keys, 1 / n_keys), states)


def constant_ensemble(n_bits, dim=4):
    state = np.eye(dim) / dim
    n_keys = 2**n_bits
    return ens.CQEnsemble(n_bits, np.full(n_keys, 1 / n_keys), (state,) * n_keys)


class TestConstruction:
    def test_prior_size_must_match(self):
        with pytest.raises(ValidationError):
            ens.CQEnsemble(2, [0.5, 0.5], (np.eye(2) / 2,) * 4)

    def test_state_count_must_match(self):
        with pytest.raises(ValidationError):
            ens.CQEnsemble(1, [0.5, 0.5], (np.eye(2) / 2,) * 3)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            ens.CQEnsemble(1, [0.5, 0.5], (np.eye(2) / 2, np.eye(4) / 4))

    def test_key_labels_msb_first(self):
        e = constant_ensemble(2)
        assert [e.key_label(k) for k in range(4)] == ["00", "01", "10", "11"]

    def test_no_states_names_the_count(self):
        with pytest.raises(ValidationError, match="^0 states supplied, expected 2$"):
            ens.CQEnsemble(1, [0.5, 0.5], ())

    def test_validated_and_raw_states_give_one_stack(self):
        raw = _good_states(4, seed=9)
        mixed = [ops.DensityOperator(raw[0]), raw[1], ops.DensityOperator(raw[2]), raw[3]]
        e = ens.CQEnsemble(2, ens.uniform_prior(2), mixed)
        plain = ens.CQEnsemble(2, ens.uniform_prior(2), raw)
        assert np.array_equal(e.stack, plain.stack)
        assert np.array_equal(e.spectra, plain.spectra)

    def test_stack_is_the_read_only_state_matrices(self):
        e = random_ensemble(2, 3, np.random.default_rng(6))
        np.testing.assert_array_equal(e.stack, np.stack([s.matrix for s in e.states]))
        with pytest.raises(ValueError):
            e.stack[0, 0, 0] = 1.0


def _one_by_one_density(matrix):
    """The per-state density checks the stack validator replaced, kept as the
    reference for its errors."""
    m = np.array(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[-1] != m.shape[-2]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] < 1 or m.shape[-1] > ops.MAX_DIM:
        raise DimensionCapError(
            f"dimension {m.shape[-1]} outside supported range [1, {ops.MAX_DIM}]"
        )
    if not np.all(np.isfinite(m)):
        raise NotHermitianError("matrix contains non-finite entries")
    dev = np.abs(m - np.conj(np.swapaxes(m, -1, -2))).max()
    if dev > ops.HERMITIAN_TOL:
        raise NotHermitianError(f"max deviation from conjugate transpose {dev:.3e}")
    eigenvalues = np.linalg.eigvalsh(m)
    if eigenvalues[0] < -ops.POSITIVITY_TOL:
        raise NotPositiveError(float(eigenvalues[0]))
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > ops.TRACE_TOL:
        raise TraceNotOneError(f"trace {tr!r} differs from 1 beyond {ops.TRACE_TOL}")
    return m


def _one_by_one_ensemble(n_bits, prior, states):
    """The ensemble construction that validated each state alone, in key order."""
    if n_bits < 0:
        raise ValidationError("key length must be nonnegative")
    if n_bits > ens.MAX_KEY_BITS:
        raise ValidationError(f"key length {n_bits} exceeds cap {ens.MAX_KEY_BITS}")
    prior = dist.validate_distribution(prior)
    n_keys = 2**n_bits
    if prior.size != n_keys:
        raise ValidationError(f"prior has {prior.size} entries, expected {n_keys}")
    matrices = [s.matrix if isinstance(s, ops.DensityOperator) else _one_by_one_density(s)
                for s in states]
    if len(matrices) != n_keys:
        raise ValidationError(f"{len(matrices)} states supplied, expected {n_keys}")
    dims = {m.shape[0] for m in matrices}
    if len(dims) != 1:
        raise ValidationError(f"states have mixed dimensions {sorted(dims)}")


def _raised(build, *args):
    try:
        build(*args)
    except Exception as exc:  # noqa: BLE001 - the class and text are compared
        return type(exc), str(exc)
    return None


def _good_states(count, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return [random_mixed_state(dim, rng).matrix for _ in range(count)]


def _off_hermitian(m):
    m = m.copy()
    m[0, 1] += 1e-9
    return m


def _with_entry(value):
    def fault(m):
        m = m.copy()
        m[1, 1] = value
        return m
    return fault


# each turns a valid 3x3 state into one that fails one check
STATE_FAULTS = {
    "nan": _with_entry(np.nan),
    "inf": _with_entry(np.inf),
    "not_hermitian": _off_hermitian,
    "not_positive": lambda m: np.diag([1.2, -0.1, -0.1]).astype(complex),
    "barely_negative": lambda m: np.diag([1.0 + 2e-9, -2e-9, 0.0]).astype(complex),
    "trace": lambda m: 2.0 * m,
}
# these give the state another shape, so the stack is ragged
SHAPE_FAULTS = {
    "non_square": lambda m: np.zeros((3, 4)),
    "vector": lambda m: np.full(3, 1 / 3),
    "scalar": lambda m: 1.0,
    "over_cap": lambda m: np.eye(ops.MAX_DIM + 1) / (ops.MAX_DIM + 1),
    "empty": lambda m: np.zeros((0, 0)),
}


class TestStackValidation:
    """One batched validation raises what validating each state alone raised."""

    def assert_same_error(self, n_bits, prior, states):
        expected = _raised(_one_by_one_ensemble, n_bits, prior, states)
        assert expected is not None
        assert _raised(ens.CQEnsemble, n_bits, prior, states) == expected

    @pytest.mark.parametrize("fault", sorted({**STATE_FAULTS, **SHAPE_FAULTS}))
    @pytest.mark.parametrize("n_bits", [1, 2, 3])
    def test_one_fault_at_each_key(self, fault, n_bits):
        make = {**STATE_FAULTS, **SHAPE_FAULTS}[fault]
        n_keys = 2**n_bits
        for k in range(n_keys):
            states = _good_states(n_keys)
            states[k] = make(states[k])
            self.assert_same_error(n_bits, ens.uniform_prior(n_bits), states)
            if fault in STATE_FAULTS:
                self.assert_same_error(n_bits, ens.uniform_prior(n_bits), np.stack(states))

    @pytest.mark.parametrize("first", sorted(STATE_FAULTS))
    @pytest.mark.parametrize("second", sorted({**STATE_FAULTS, **SHAPE_FAULTS}))
    def test_the_first_failing_key_names_the_fault(self, first, second):
        states = _good_states(4)
        states[1] = STATE_FAULTS[first](states[1])
        states[3] = {**STATE_FAULTS, **SHAPE_FAULTS}[second](states[3])
        self.assert_same_error(2, ens.uniform_prior(2), states)

    def test_the_first_failing_key_gives_the_value(self):
        states = _good_states(4)
        states[1], states[3] = 3.0 * states[1], 2.0 * states[3]
        self.assert_same_error(2, ens.uniform_prior(2), states)
        states[1] = np.diag([1.1, -0.1, 0.0]).astype(complex)
        states[3] = np.diag([1.5, -0.5, 0.0]).astype(complex)
        self.assert_same_error(2, ens.uniform_prior(2), states)

    @pytest.mark.parametrize("later", sorted(STATE_FAULTS))
    @pytest.mark.parametrize("fault", sorted(STATE_FAULTS))
    def test_a_fault_at_a_high_key_of_a_large_stack(self, fault, later):
        n_bits = 12
        stack = np.tile(np.stack(_good_states(4)), (2**(n_bits - 2), 1, 1))
        k = 2**n_bits - 5
        stack[k] = STATE_FAULTS[fault](stack[k])
        stack[k + 3] = STATE_FAULTS[later](stack[k + 3])
        expected = _raised(ops.DensityOperator, stack[k])
        assert expected is not None
        assert _raised(ens.CQEnsemble, n_bits, ens.uniform_prior(n_bits), stack) == expected

    @pytest.mark.parametrize("shape", [(4, 3, 4), (4, 3), (4, 0, 0), (4, 65, 65), (4, 2, 2, 2)])
    def test_every_state_of_one_wrong_shape(self, shape):
        self.assert_same_error(2, ens.uniform_prior(2), np.zeros(shape))

    def test_ragged_states_with_a_bad_prior_name_the_prior(self):
        states = [np.eye(2) / 2, np.diag([2.0, 0.0, 0.0])]
        self.assert_same_error(1, [0.5, 0.6], states)
        self.assert_same_error(1, [0.5, 0.6], [np.eye(2) / 2, np.eye(3) / 3])

    def test_ragged_states(self):
        for states in ([np.eye(2) / 2, np.eye(3) / 3],
                       [np.eye(2) / 2, np.diag([2.0, 0.0, 0.0])],
                       [np.eye(2) / 2, np.eye(3) / 3, np.eye(3) / 3],
                       [np.eye(2) / 2, np.eye(4) / 4],
                       []):
            self.assert_same_error(1, [0.5, 0.5], states)

    def test_validated_states_with_a_bad_raw_state(self):
        states = [np.eye(3) / 3, *_good_states(2), 2.0 * np.eye(3)]
        self.assert_same_error(2, ens.uniform_prior(2), states)

    def test_spectra_are_the_per_state_eigenvalues(self):
        states = _good_states(8, dim=5, seed=3)
        e = ens.CQEnsemble(3, ens.uniform_prior(3), states)
        assert np.array_equal(e.spectra, np.stack([ops.DensityOperator(m).eigenvalues
                                                   for m in states]))
        assert not e.spectra.flags.writeable
        assert all(np.array_equal(s.matrix, m) for s, m in zip(e.states, states))

    def test_validated_states_are_taken_as_they_are(self):
        states = [ops.DensityOperator(m) for m in _good_states(4)]
        e = ens.CQEnsemble(2, ens.uniform_prior(2), states)
        assert np.array_equal(e.spectra, np.stack([s.eigenvalues for s in states]))


class TestAverageState:
    def test_constant_ensemble(self):
        e = constant_ensemble(2)
        np.testing.assert_allclose(ens.average_state(e), np.eye(4) / 4, atol=1e-14)

    def test_two_orthogonal_pure_states(self):
        e = orthogonal_ensemble(1)
        np.testing.assert_allclose(ens.average_state(e), np.diag([0.5, 0.5]), atol=1e-14)

    def test_locking_as_printed_average_is_not_mixed(self):
        le = locking.build_locking_ensemble("as_printed")
        avg = ens.average_state(le.ensemble)
        assert ops._half_trace_norms(avg - np.eye(4) / 4) > 1e-3

    def test_built_once_per_ensemble(self):
        e = random_ensemble(2, 3, np.random.default_rng(8))
        assert ens.average_state(e) is ens.average_state(e)
        assert not ens.average_state(e).flags.writeable

    @pytest.mark.parametrize("n_bits", [1, 2, 3])
    def test_bit_identical_to_the_weighted_sum_loop(self, n_bits):
        e = random_ensemble(n_bits, 3, np.random.default_rng(10 + n_bits), uniform=False)
        expected = np.zeros((3, 3), dtype=np.complex128)
        for w, s in zip(e.prior, e.states):
            expected += w * s.matrix
        assert np.array_equal(ens.average_state(e), expected)


class TestOncePerEnsemble:
    def test_same_named_functions_of_two_modules_keep_their_own_values(self):
        def value(e):
            return "first"

        first = ens._once_per_ensemble(value)

        def value(e):  # noqa: F811 - the same qualified name, in another module
            return "second"

        value.__module__ = "elsewhere"
        second = ens._once_per_ensemble(value)
        e = random_ensemble(1, 2, np.random.default_rng(9))
        assert (first(e), second(e)) == ("first", "second")
        assert (first(e), second(e)) == ("first", "second")  # read back from their slots


class TestJointProductDistance:
    def test_constant_ensemble_is_zero(self):
        assert ens.joint_product_distance(constant_ensemble(1)) == pytest.approx(0.0, abs=1e-12)

    def test_one_bit_orthogonal_value(self):
        # oracle: direct 4x4 eigendecomposition written out here
        e = orthogonal_ensemble(1)
        joint = np.zeros((4, 4), dtype=complex)
        joint[0, 0] = 0.5
        joint[3, 3] = 0.5
        product = np.kron(np.diag([0.5, 0.5]), np.diag([0.5, 0.5]))
        expected = 0.5 * np.abs(np.linalg.eigvalsh(joint - product)).sum()
        assert expected == pytest.approx(0.5)
        assert ens.joint_product_distance(e) == pytest.approx(expected, abs=1e-12)

    def test_matches_decomposed_form_on_locking(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        assert ens.joint_product_distance(le.ensemble) == pytest.approx(
            ens.mean_conditional_distance(le.ensemble), abs=1e-9
        )

    def test_dimension_cap(self):
        rng = np.random.default_rng(0)
        e = random_ensemble(3, 16, rng)  # 8 * 16 = 128 > 64
        with pytest.raises(DimensionCapError):
            ens.joint_product_distance(e)

    def test_forms_agree_random_priors(self):
        rng = np.random.default_rng(61)
        for uniform in (True, False):
            for _ in range(20):
                e = random_ensemble(2, 4, rng, uniform=uniform)
                assert ens.joint_product_distance(e) == pytest.approx(
                    ens.mean_conditional_distance(e), abs=1e-9
                )


class TestConditionalDistances:
    def test_reference_of_another_shape_rejected(self):
        e = random_ensemble(1, 3, np.random.default_rng(14))
        with pytest.raises(DimensionMismatchError):
            ens.conditional_distances(e, reference=np.eye(4) / 4)

    def test_ideal_mean_is_the_prior_weighted_per_key_distance(self):
        # oracle: each per-key distance by the half-trace-norm kernel, one state at a time
        e = random_ensemble(2, 3, np.random.default_rng(15), uniform=False)
        comparison = ens.ideal_comparison_value(e)
        per_key = [float(ops._half_trace_norms(s.matrix - np.eye(3) / 3)) for s in e.states]
        assert list(comparison.per_key) == ["00", "01", "10", "11"]
        assert list(comparison.per_key.values()) == per_key
        assert comparison.mean == float(e.prior @ np.array(per_key))


class TestWeightedConditionalDistance:
    def test_uniform_constant_is_zero(self):
        assert ens.weighted_conditional_distance(constant_ensemble(1)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_coincides_with_mean_form_for_uniform_prior(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            e = random_ensemble(2, 3, rng, uniform=True)
            assert ens.weighted_conditional_distance(e) == pytest.approx(
                ens.mean_conditional_distance(e), abs=1e-9
            )

    def test_point_mass_prior_positive(self):
        # oracle: direct evaluation of each trace norm with numpy
        states = (pure_state([1, 0]), pure_state([0, 1]))
        e = ens.CQEnsemble(1, [1.0, 0.0], states)
        avg = states[0].matrix
        expected = 0.0
        for w, s in zip(e.prior, e.states):
            expected += 0.5 * np.abs(
                np.linalg.eigvalsh(w * s.matrix - avg / 2)
            ).sum()
        got = ens.weighted_conditional_distance(e)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got > 0.0
        assert got == pytest.approx(1 - 1 / 2, abs=1e-12)


class TestHolevoInformation:
    def test_constant_ensemble_zero(self):
        assert ens.holevo_information(constant_ensemble(2)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n_bits", [1, 2, 3])
    def test_orthogonal_pure_states(self, n_bits):
        assert ens.holevo_information(orthogonal_ensemble(n_bits)) == pytest.approx(
            n_bits, abs=1e-10
        )

    def test_locking_value_with_independent_entropy_path(self):
        # second entropy evaluation routed through scipy's eigensolver
        le = locking.build_locking_ensemble("symmetric_corrected")
        e = le.ensemble

        def entropy(matrix):
            vals = np.clip(scipy.linalg.eigh(matrix, eigvals_only=True), 0, 1)
            vals = vals[vals > 0]
            return float(-(vals * np.log2(vals)).sum())

        expected = entropy(ens.average_state(e)) - sum(
            w * entropy(s.matrix) for w, s in zip(e.prior, e.states)
        )
        got = ens.holevo_information(e)
        assert got == pytest.approx(expected, abs=1e-10)
        assert 0.0 <= got <= 2.0

    def test_bounded_by_key_length_uniform_prior(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            e = random_ensemble(2, 4, rng)
            chi = ens.holevo_information(e)
            assert -1e-12 <= chi <= 2.0 + 1e-9


def plane_ensemble():
    """Two pure states spanning a plane of C^3 under a skewed prior: the
    square-root measurement's kernel outcome (the third) never fires."""
    second = pure_state([np.cos(0.6), np.sin(0.6), 0.0])
    return ens.CQEnsemble(1, [0.8, 0.2], (pure_state([1.0, 0.0, 0.0]), second))


def decimal_measured_oracle(n_bits, prior, table):
    """``(v(joint, prior x p_Y), sum_y p(y) (n - H(K | y)))`` of the joint
    ``prior(k) table(k, y)``, summed in 50-digit decimals."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        weights = [D(float(w)) for w in prior]
        joint = [[w * D(float(t)) for t in row] for w, row in zip(weights, table)]
        py = [sum(column) for column in zip(*joint)]
        delta = sum(abs(j - w * q) for w, row in zip(weights, joint) for j, q in zip(row, py)) / 2
        ln2 = D(2).ln()
        deficit = D(0)
        for y, q in enumerate(py):
            if q == 0:
                continue  # an unreachable outcome carries no weight
            posterior = [row[y] / q for row in joint]
            entropy = -sum(c * c.ln() for c in posterior if c > 0) / ln2
            deficit += q * (n_bits - entropy)
        return float(delta), float(deficit)


class TestMeasuredCriteria:
    def test_unreachable_outcome_keeps_the_prior(self):
        e = plane_ensemble()
        elements = detection.square_root_measurement(e).elements
        assert len(elements) == 3
        assert (ens.measurement_table(e, elements)[:, 2] == 0.0).all()
        measured = ens.measured_criteria(e, elements)
        assert measured.cpd_table[2].tolist() == e.prior.tolist()

    def test_outcome_within_round_off_of_zero_keeps_the_prior(self):
        # the kernel outcome fires with 3.5e-18 of round-off under some BLAS
        # kernels; its posterior would be round-off over round-off
        e = plane_ensemble()
        joint = ens._measured_joint(e, detection.square_root_measurement(e).elements)
        joint[:, 2] = [3.47e-18, 0.0]
        measured = ens._joint_criteria(e, joint)
        assert measured.cpd_table[2].tolist() == e.prior.tolist()
        assert measured.cpd_table.max() < 1.0

    def test_delta_and_deficit_against_decimal(self):
        e = plane_ensemble()
        elements = detection.square_root_measurement(e).elements
        table = ens.measurement_table(e, elements)
        delta, deficit = decimal_measured_oracle(e.n_bits, e.prior, table)
        measured = ens.measured_criteria(e, elements)
        assert abs(measured.delta_e - delta) <= 1e-14
        assert abs(measured.i_e_deficit - deficit) <= 1e-14
        assert 0.05 < delta < 0.2 and 0.1 < deficit < 0.6  # neither side is trivial

    def test_delta_equals_the_pinsker_checks(self):
        e = plane_ensemble()
        elements = detection.square_root_measurement(e).elements
        pinsker = bounds.check_pinsker(e.prior[:, None] * ens.measurement_table(e, elements))
        assert abs(ens.measured_criteria(e, elements).delta_e - pinsker.extras["delta"]) <= 1e-15

    def test_prior_at_the_edge_of_its_tolerance(self):
        # the prior is accepted 9e-11 short of one; its product with p_Y is
        # then 1.8e-10 short, which a validated distance would refuse
        e = ens.CQEnsemble(1, [0.5, 0.5 - 9e-11], (np.eye(2) / 2,) * 2)
        measured = ens.measured_criteria(e, detection.eigenbasis_povm(ens.average_state(e)))
        assert measured.delta_e <= 1e-10  # the product misses the joint by the prior's shortfall

    def test_trivial_povm(self):
        e = constant_ensemble(2)
        measured = ens.measured_criteria(e, detection.POVM((np.eye(4),)).stack)
        assert measured.delta_e == pytest.approx(0.0, abs=1e-12)
        assert measured.i_e_deficit == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(measured.cpd_table[0], e.prior, atol=1e-12)

    def test_eigenbasis_on_orthogonal_states_gives_point_cpds(self):
        e = orthogonal_ensemble(1)
        povm = detection.POVM((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        measured = ens.measured_criteria(e, povm.stack)
        np.testing.assert_allclose(measured.cpd_table, np.eye(2), atol=1e-12)
        assert measured.i_e_deficit == pytest.approx(1.0, abs=1e-10)

    def test_contraction_under_random_povms(self):
        # contraction oracle from the operator layer
        rng = np.random.default_rng(83)
        for _ in range(15):
            e = random_ensemble(1, 3, rng, uniform=rng.random() < 0.5)
            z = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            q, r = np.linalg.qr(z)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            frame = q[:, :3]
            povm = detection.POVM(tuple(np.outer(frame[y].conj(), frame[y]) for y in range(9)))
            measured = ens.measured_criteria(e, povm.stack)
            assert measured.delta_e <= ens.mean_conditional_distance(e) + 1e-9

    def test_per_key_contraction(self):
        # v(p(.|k), p(.)) <= 2 * (half trace norm per key) for every key
        rng = np.random.default_rng(89)
        e = random_ensemble(2, 4, rng)
        table = ens.measurement_table(e, detection.eigenbasis_povm(ens.average_state(e)))
        marginal = e.prior @ table
        distances = ens.conditional_distances(e)
        for k in range(e.num_keys):
            v = dist.variational_distance(table[k], marginal)
            assert v <= 2.0 * distances[k] + 1e-9


HASWELL_CRITERIA = """
import sys
sys.path.insert(0, sys.argv[1])
from qseclab import cli, detection, ensembles
e = ensembles.load_ensemble(sys.argv[2])
elements = detection.square_root_measurement(e).elements
print(len(elements), repr(float(ensembles._measured_joint(e, elements)[:, -1].sum())))
sys.exit(cli.main(["criteria", sys.argv[2]]))
"""


def test_criteria_note_does_not_follow_round_off_under_another_blas_kernel(tmp_path):
    # the golden ensemble recipe_31 (n = 1, d = 4, rank-2 average state):
    # under OpenBLAS's Haswell kernels its kernel outcome fires with
    # p(y) = 3.5e-18, which must not decide the reported posterior mass
    path = str(tmp_path / "recipe_31.json")
    ens.save_ensemble(bounds.build_instance(bounds.default_recipes(40, seed=3)[31]), path)
    src = os.path.dirname(os.path.dirname(ens.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", HASWELL_CRITERIA, src, path],
                         capture_output=True, text=True, env=env, check=True)
    first, report = run.stdout.split("\n", 1)
    outcomes, kernel_py = first.split()
    assert outcomes == "3"
    if float(kernel_py) == 0.0:
        pytest.skip("the kernel outcome's p(y) is exactly 0 here: "
                    "OPENBLAS_CORETYPE=Haswell did not select another kernel")
    assert "max posterior key mass 0.905169;" in json.loads(report)["criteria"]["p1_bound_notes"]


def bit_matrix_gap(cpd, positions):
    """The subset gap through the whole 2^n x |subset| matrix of key bits."""
    p = np.asarray(cpd, dtype=np.float64)
    n_bits = p.size.bit_length() - 1
    bits = (np.arange(p.size)[:, None] >> (n_bits - 1 - np.asarray(positions))) & 1
    values = bits @ (1 << np.arange(len(positions) - 1, -1, -1))
    marginal = np.bincount(values, weights=p, minlength=2 ** len(positions))
    gaps = np.abs(marginal - 2.0 ** -len(positions))
    return float(gaps.max()), float(gaps.mean())


class TestSemanticSecurityGap:
    def test_equals_the_bit_matrix_form(self):
        rng = np.random.default_rng(8)
        for n_bits, positions in [(1, (0,)), (3, (2, 0)), (5, (1, 3, 4)),
                                  (8, (7, 0, 5, 2)), (10, tuple(range(10))), (12, (11, 6))]:
            cpd = rng.exponential(size=2**n_bits)
            cpd /= cpd.sum()
            assert ens.semantic_security_gap(cpd, positions) == bit_matrix_gap(cpd, positions)

    def test_peak_memory_at_twenty_bits(self):
        cpd = np.random.default_rng(2).exponential(size=2**20)
        cpd /= cpd.sum()
        tracemalloc.start()
        try:
            ens.semantic_security_gap(cpd, tuple(range(19, -1, -1)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

    def test_uniform_cpd_no_gap(self):
        cpd = np.full(16, 1 / 16)
        max_gap, avg_gap = ens.semantic_security_gap(cpd, (0, 2))
        assert max_gap == pytest.approx(0.0, abs=1e-12)
        assert avg_gap == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_single_bit(self):
        cpd = np.zeros(4)
        cpd[0] = 1.0
        max_gap, _ = ens.semantic_security_gap(cpd, (0,))
        assert max_gap == pytest.approx(0.5)

    def test_against_brute_force_marginalization(self):
        # oracle: explicit dictionary marginalization over all 16 keys
        rng = np.random.default_rng(927)
        for _ in range(20):
            cpd = rng.exponential(size=16)
            cpd /= cpd.sum()
            positions = tuple(sorted(rng.choice(4, size=int(rng.integers(1, 4)), replace=False)))
            marginal = {}
            for key in range(16):
                bits = format(key, "04b")
                value = "".join(bits[b] for b in positions)
                marginal[value] = marginal.get(value, 0.0) + cpd[key]
            uniform = 2.0 ** -len(positions)
            gaps = [abs(v - uniform) for v in marginal.values()]
            # include subset values with zero mass
            missing = 2 ** len(positions) - len(marginal)
            gaps.extend([uniform] * missing)
            max_gap, avg_gap = ens.semantic_security_gap(cpd, positions)
            assert max_gap == pytest.approx(max(gaps), abs=1e-12)
            assert avg_gap == pytest.approx(float(np.mean(gaps)), abs=1e-12)

    def test_full_mask_dominates_top_mass_gap(self):
        rng = np.random.default_rng(31)
        cpd = rng.exponential(size=8)
        cpd /= cpd.sum()
        max_gap, _ = ens.semantic_security_gap(cpd, (0, 1, 2))
        assert max_gap >= abs(cpd.max() - 1 / 8) - 1e-12

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubsetError):
            ens.semantic_security_gap(np.full(4, 0.25), ())


class TestCriteriaRecord:
    def test_field_values_and_notes(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        record = detection.criteria_record(le.ensemble)
        assert record.d == pytest.approx(0.5, abs=1e-10)
        assert record.d_joint == pytest.approx(record.d, abs=1e-9)
        assert record.d_prime == pytest.approx(record.d, abs=1e-9)
        assert record.chi == pytest.approx(1.0, abs=1e-9)
        assert record.delta_e <= record.d + 1e-9
        assert "square-root measurement" in record.p1_bound_notes
        assert "factor-2" in record.p1_bound_notes

    def test_joint_form_omitted_beyond_cap(self):
        rng = np.random.default_rng(3)
        e = random_ensemble(3, 16, rng)
        record = detection.criteria_record(e)
        assert record.d_joint is None

    def test_no_state_is_validated_again(self, monkeypatch):
        # the stack is validated when the ensemble is built; every matrix
        # the criteria derive from it is an array that nothing re-checks
        e = bounds.build_instance(bounds.EnsembleRecipe("random_mixed", 2, 4, seed=3))
        calls = []
        as_states = ops._as_states
        monkeypatch.setattr(ops, "_as_states", lambda m: calls.append(m) or as_states(m))
        detection.criteria_record(e)
        assert calls == []

    def test_dict_field_names(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        record = detection.criteria_record(le.ensemble)
        assert set(record.to_dict()) == {
            "d", "d_joint", "d_prime", "chi", "delta_e", "i_e_deficit", "p1_bound_notes",
        }


class TestEnsembleFiles:
    def test_round_trip(self, tmp_path):
        le = locking.build_locking_ensemble("symmetric_corrected")
        path = tmp_path / "ensemble.json"
        ens.save_ensemble(le.ensemble, path)
        loaded = ens.load_ensemble(path)
        assert loaded.n_bits == 2
        for a, b in zip(loaded.states, le.ensemble.states):
            np.testing.assert_allclose(a.matrix, b.matrix, atol=0)

    def test_bad_trace_names_state_index(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        record = ens.ensemble_to_dict(le.ensemble)
        record["states"][2] = ops.matrix_to_pairs(np.diag([0.45, 0.45, 0.0, 0.0]))
        with pytest.raises(ValidationError, match="state 2"):
            ens.ensemble_from_dict(record)

    def test_missing_field_rejected(self):
        with pytest.raises(ParseError):
            ens.ensemble_from_dict({"n": 1, "prior": [0.5, 0.5]})

    def test_written_as_per_entry_pairs_by_json_dump(self, tmp_path):
        # the writer before the stack: one float pair per entry, streamed by json.dump
        sources = [locking.build_chained_locking_ensemble(3).ensemble,
                   *(random_ensemble(2, d, np.random.default_rng(d)) for d in (2, 5))]
        for e in sources:
            ens.save_ensemble(e, tmp_path / "stack.json")
            record = {"n": e.n_bits, "prior": [float(w) for w in e.prior],
                      "states": [[[[float(z.real), float(z.imag)] for z in row] for row in m]
                                 for m in e.stack]}
            with open(tmp_path / "entries.json", "w", encoding="utf-8") as fh:
                json.dump(record, fh, sort_keys=True)
                fh.write("\n")
            assert (tmp_path / "stack.json").read_bytes() == (tmp_path / "entries.json").read_bytes()

    def test_one_eigensolve_per_load(self, tmp_path, monkeypatch):
        e = random_ensemble(3, 5, np.random.default_rng(4))
        ens.save_ensemble(e, tmp_path / "e.json")
        solves = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a.shape) or eigvalsh(a))
        loaded = ens.load_ensemble(tmp_path / "e.json")
        assert solves == [(8, 5, 5)]
        assert np.array_equal(loaded.stack, e.stack)
        assert np.array_equal(loaded.spectra, e.spectra)

    def test_a_faulty_last_state_is_validated_once(self, tmp_path, monkeypatch):
        # the batched attempt, then the walk up to the fault: no state a second time
        e = random_ensemble(3, 5, np.random.default_rng(4))
        record = ens.ensemble_to_dict(e)
        record["states"][7] = ops.matrix_to_pairs(np.diag([1.2, -0.1, -0.1, 0.0, 0.0]))
        (tmp_path / "e.json").write_text(json.dumps(record), encoding="utf-8")
        solves = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a.shape) or eigvalsh(a))
        with pytest.raises(ValidationError, match="^state 7: most negative eigenvalue -1.000e-01$"):
            ens.load_ensemble(tmp_path / "e.json")
        assert solves == [(8, 5, 5)] + [(1, 5, 5)] * 8


def _collections():
    return [generation["collections"] for generation in gc.get_stats()]


class TestCollectorPause:
    """``load_ensemble`` pauses the cyclic collector and leaves it as it was."""

    def test_a_load_runs_no_collection(self, tmp_path):
        path = tmp_path / "chained_5.json"
        ens.save_ensemble(locking.build_chained_locking_ensemble(5).ensemble, path)
        gc.collect()
        before = _collections()
        ens.load_ensemble(path)
        assert _collections() == before

    @staticmethod
    def write_files(tmp_path):
        """A valid file and three that fail: missing, bad JSON, a non-Hermitian state."""
        record = ens.ensemble_to_dict(random_ensemble(2, 3, np.random.default_rng(1)))
        (tmp_path / "valid.json").write_text(json.dumps(record), encoding="utf-8")
        (tmp_path / "bad.json").write_text('{"n": 2,', encoding="utf-8")
        record["states"][1] = ops.matrix_to_pairs(_off_hermitian(ops.matrix_from_pairs(
            record["states"][1])))
        (tmp_path / "not_hermitian.json").write_text(json.dumps(record), encoding="utf-8")
        return {"valid.json": None, "missing.json": ParseError, "bad.json": ParseError,
                "not_hermitian.json": ValidationError}

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_collector_is_left_as_found(self, tmp_path, enabled):
        files = self.write_files(tmp_path)
        was = gc.isenabled()
        try:
            for name, error in files.items():
                (gc.enable if enabled else gc.disable)()
                if error is None:
                    ens.load_ensemble(tmp_path / name)
                else:
                    with pytest.raises(error):
                        ens.load_ensemble(tmp_path / name)
                assert gc.isenabled() is enabled, name
        finally:
            (gc.enable if was else gc.disable)()


def _literal_by_literal(obj):
    """The file loader that parsed and validated each state literal alone, in
    order (an entry must be a JSON number or null), then refused a prior that
    is not a list of JSON numbers, kept as the reference for the errors of
    the one-stack loader."""
    states = []
    for k, literal in enumerate(obj["states"]):
        try:
            try:
                arr = np.asarray(literal, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"malformed matrix literal: {exc}") from exc
            if arr.ndim != 3 or arr.shape[2] != 2:
                raise ParseError(f"matrix literal must have shape (rows, cols, 2), got {arr.shape}")
            # a JSON number or null (NaN, refused as non-finite); numpy reads more
            odd = {type(x).__name__ for row in literal for pair in row for x in pair
                   if type(x) not in (int, float, type(None))}
            if odd:
                raise ParseError(f"matrix entries must be numbers, got {', '.join(sorted(odd))}")
            states.append(ops.DensityOperator(arr[..., 0] + 1j * arr[..., 1]))
        except ParseError as exc:
            raise ParseError(f"state {k}: {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(f"state {k}: {exc}") from exc
        except DimensionCapError as exc:
            raise DimensionCapError(f"state {k}: {exc}") from exc
    prior = obj["prior"]
    if not isinstance(prior, list) or any(
            isinstance(w, bool) or not isinstance(w, (int, float)) for w in prior):
        raise ParseError('"prior" must be a list of numbers')
    try:
        return ens.CQEnsemble(n_bits=obj["n"], prior=obj["prior"], states=tuple(states))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"bad ensemble record: {exc}") from exc


def _set_entry(value):
    def fault(literal):
        literal[1][1][0] = value
        return literal
    return fault


def _set_pair(value):
    def fault(literal):
        literal[1][1] = value
        return literal
    return fault


# each turns the pair literal of a valid 3x3 state into a faulty one
LITERAL_FAULTS = {
    "rows_only": lambda lit: lit[0],
    "one_more_level": lambda lit: [lit],
    "triples": lambda lit: [[[*pair, 0.0] for pair in row] for row in lit],
    "non_square": lambda lit: lit[:2],
    "ragged_row": lambda lit: [lit[0][:2], *lit[1:]],
    "text_entry": _set_entry("x"),
    "list_entry": _set_entry([1.0, 2.0]),
    "null_entry": _set_entry(None),
    "numeric_string": _set_entry("0.5"),
    "bool_entry": _set_entry(True),
    "nan_entry": _set_entry(float("nan")),
    "string_pair": _set_pair("ab"),
    "object_pair": _set_pair({"re": 0.5, "im": 0.0}),
    "pair_of_pairs": _set_pair([[0.5, 0.0], [0.0, 0.0]]),
    "not_hermitian": lambda lit: ops.matrix_to_pairs(_off_hermitian(ops.matrix_from_pairs(lit))),
    "not_positive": lambda lit: ops.matrix_to_pairs(np.diag([1.2, -0.1, -0.1])),
    "trace": lambda lit: ops.matrix_to_pairs(2.0 * ops.matrix_from_pairs(lit)),
    "other_dimension": lambda lit: ops.matrix_to_pairs(np.eye(2) / 2),
    "over_cap": lambda lit: ops.matrix_to_pairs(np.eye(ops.MAX_DIM + 1) / (ops.MAX_DIM + 1)),
}


class TestFileErrors:
    """Reading the states as one stack raises what reading each literal alone raised."""

    @staticmethod
    def record(n_bits=2, dim=3):
        return ens.ensemble_to_dict(ens.CQEnsemble(
            n_bits, ens.uniform_prior(n_bits), _good_states(2**n_bits, dim=dim)))

    def assert_same_error(self, record):
        expected = _raised(_literal_by_literal, record)
        assert expected is not None
        assert _raised(ens.ensemble_from_dict, record) == expected
        return expected

    @pytest.mark.parametrize("fault", sorted(LITERAL_FAULTS))
    @pytest.mark.parametrize("k", [1, 3])
    def test_a_faulty_state_is_named(self, fault, k):
        record = self.record()
        record["states"][k] = LITERAL_FAULTS[fault](record["states"][k])
        error_class, text = self.assert_same_error(record)
        if fault == "other_dimension":  # each state is valid alone
            assert text == "states have mixed dimensions [2, 3]"
        else:
            assert text.startswith(f"state {k}: ")
        if fault == "over_cap":  # named, and still not a ValidationError
            assert error_class is DimensionCapError
            assert text == f"state {k}: dimension 65 outside supported range [1, 64]"

    @pytest.mark.parametrize("fault", sorted(LITERAL_FAULTS))
    def test_the_first_faulty_state_is_named(self, fault):
        record = self.record()
        record["states"][3] = LITERAL_FAULTS["trace"](record["states"][3])
        record["states"][2] = LITERAL_FAULTS[fault](record["states"][2])
        self.assert_same_error(record)

    @pytest.mark.parametrize("prior", [
        [0.5, 0.6, 0.0, 0.0], [0.5, 0.5], "uniform", [0.25, 0.25, 0.25, None],
        [True, False, False, False], ["0.25"] * 4, [[0.25]] * 4,
    ])
    def test_a_bad_prior_is_named_after_the_states(self, prior):
        record = self.record()
        record["prior"] = prior
        assert self.assert_same_error(record)[1] != ""
        record["states"][1] = LITERAL_FAULTS["not_positive"](record["states"][1])
        assert self.assert_same_error(record)[1].startswith("state 1: ")

    @pytest.mark.parametrize("edit", [
        lambda r: r.update(n=3), lambda r: r.update(n=-1), lambda r: r.update(states=[]),
        lambda r: r["states"].append(r["states"][0]), lambda r: r.update(states=r["states"][0]),
    ], ids=["too-few-states", "negative-n", "no-states", "too-many-states", "one-literal"])
    def test_a_bad_record_shape(self, edit):
        record = self.record()
        edit(record)
        self.assert_same_error(record)

    @pytest.mark.parametrize("prior", [
        [True, False], ["0.5", "0.5"], [[0.5], [0.5]], [0.5, None], {"0": 0.5, "1": 0.5},
    ], ids=["bools", "strings", "nested", "null", "object"])
    def test_a_prior_of_non_numbers_is_a_parse_error(self, prior):
        # numpy alone reads each list here as a valid distribution or a NaN
        record = self.record(n_bits=1)
        record["prior"] = prior
        with pytest.raises(ParseError, match='^"prior" must be a list of numbers$'):
            ens.ensemble_from_dict(record)

    def test_an_integer_past_float_range_is_a_parse_error(self):
        record = self.record()
        record["states"][1][0][0][0] = 10**400
        with pytest.raises(ParseError, match="^state 1: malformed matrix literal: int too large"):
            ens.ensemble_from_dict(record)

    def test_an_integer_past_float_range_in_place_of_a_literal(self):
        # not a LITERAL_FAULTS entry: _literal_by_literal lets numpy's OverflowError through
        record = self.record()
        record["states"][1] = 10**400
        with pytest.raises(ParseError, match="^state 1: malformed matrix literal: int too large"):
            ens.ensemble_from_dict(record)


@pytest.mark.parametrize("literal", [
    [[[-0.0, 0.5], [1, -0.0]], [[None, 2], [0.25, -0.0]]],
    [[[[0, -0.0]], [[None, -1]]], [[[1.5, 0]], [[-3, None]]]],
], ids=["matrix", "stack"])
def test_the_flat_pass_gives_the_nested_conversions_bits(literal):
    nested = np.asarray(literal, dtype=np.float64)
    expected = nested[..., 0] + 1j * nested[..., 1]
    parsed = ops.matrix_from_pairs(literal)
    assert parsed.shape == expected.shape
    assert parsed.tobytes() == expected.tobytes()
