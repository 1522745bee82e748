"""Tests for the dense Hermitian operator layer."""

import numpy as np
import pytest

from qseclab import distributions as dist
from qseclab import operators as ops
from qseclab.errors import (
    NotHermitianError,
    NotPositiveError,
    ParseError,
    TraceNotOneError,
)

from born_rule import outcome_distribution
from pure_state import pure_state

# the fixed conjugate-basis realization used throughout the locking work
KET = {
    1: np.array([1, 0], dtype=complex),
    2: np.array([1, 1], dtype=complex) / np.sqrt(2),
    3: np.array([0, 1], dtype=complex),
    4: np.array([1, -1], dtype=complex) / np.sqrt(2),
}
PROJ = {i: np.outer(v, v.conj()) for i, v in KET.items()}


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def random_density(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return ops.DensityOperator(rho / np.trace(rho).real)


def trace_distance(rho, sigma):
    """Half the trace norm of ``rho - sigma``, by the criteria's kernel."""
    return float(ops._half_trace_norms(rho - sigma))


def entropy(rho):
    """Von Neumann entropy in bits, from the clipped spectrum of ``rho``."""
    return dist._entropy_bits(np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0))


class TestValidateDensity:
    def test_maximally_mixed_qubit_is_valid(self):
        state = ops.DensityOperator(np.eye(2) / 2)
        assert state.matrix.shape == (2, 2)
        assert np.trace(state.matrix).real == pytest.approx(1.0)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositiveError) as info:
            ops.DensityOperator(np.diag([1.0, -0.001]))
        assert info.value.most_negative == pytest.approx(-0.001, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            ops.DensityOperator(np.array([[0.5, 0.5j], [0.5j, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(TraceNotOneError):
            ops.DensityOperator(np.diag([0.6, 0.6]))

    def test_non_square_rejected(self):
        with pytest.raises(NotHermitianError):
            ops.DensityOperator(np.ones((2, 3)))

    def test_keeps_the_validated_spectrum(self):
        m = random_density(6, np.random.default_rng(4)).matrix.copy()
        state = ops.DensityOperator(m)
        np.testing.assert_array_equal(state.eigenvalues, np.linalg.eigvalsh(m))
        assert not state.eigenvalues.flags.writeable


class TestEigHermitian:
    def test_pauli_z_descending(self):
        vals, _ = ops.eig_hermitian(ops.HermitianOperator(np.diag([1.0, -1.0])).matrix)
        np.testing.assert_allclose(vals, [1.0, -1.0])

    def test_identity_dim4(self):
        vals, _ = ops.eig_hermitian(ops.HermitianOperator(np.eye(4)).matrix)
        np.testing.assert_allclose(vals, np.ones(4))

    def test_random_dim8_reconstruction(self):
        # self-consistency oracle: rebuild the operator from its decomposition
        rng = np.random.default_rng(81)
        for _ in range(20):
            h = ops.HermitianOperator(random_hermitian(8, rng))
            vals, vecs = ops.eig_hermitian(h.matrix)
            rebuilt = (vecs * vals) @ vecs.conj().T
            assert np.abs(rebuilt - h.matrix).max() < 1e-9
            gram = vecs.conj().T @ vecs
            assert np.abs(gram - np.eye(8)).max() < 1e-9
            assert np.all(np.diff(vals) <= 1e-12)

    def test_deterministic_for_identical_bits(self):
        rng = np.random.default_rng(3)
        h = ops.HermitianOperator(random_hermitian(6, rng))
        first = ops.eig_hermitian(h.matrix)
        second = ops.eig_hermitian(ops.HermitianOperator(h.matrix.copy()).matrix)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_a_matrix_is_decomposed_as_its_operator(self):
        rng = np.random.default_rng(5)
        for m in (random_hermitian(5, rng), random_density(4, rng).matrix):
            from_matrix = ops.eig_hermitian(m)
            from_operator = ops.eig_hermitian(ops.HermitianOperator(m).matrix)
            np.testing.assert_array_equal(from_matrix[0], from_operator[0])
            np.testing.assert_array_equal(from_matrix[1], from_operator[1])


class TestTraceDistance:
    def test_state_to_itself_is_zero(self):
        rho = pure_state([1, 1j]).matrix
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states_at_one(self):
        assert trace_distance(pure_state([1, 0]).matrix,
                              pure_state([0, 1]).matrix) == pytest.approx(1.0)

    def test_locking_states_against_maximally_mixed(self):
        # each two-term mixture sits at exactly 1/2 from I/4
        terms = {
            (1, 1): ((1, 1), (3, 2)),
            (1, 0): ((1, 3), (3, 4)),
            (0, 1): ((2, 1), (4, 2)),
        }
        mixed = np.eye(4) / 4
        for pair in terms.values():
            state = ops.DensityOperator(
                0.5 * (np.kron(PROJ[pair[0][0]], PROJ[pair[0][1]])
                       + np.kron(PROJ[pair[1][0]], PROJ[pair[1][1]]))
            )
            assert trace_distance(state.matrix, mixed) == pytest.approx(0.5, abs=1e-10)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = (random_density(4, rng).matrix for _ in range(3))
            assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert entropy(pure_state([1, 1]).matrix) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_maximally_mixed(self, dim):
        assert entropy(np.eye(dim) / dim) == pytest.approx(np.log2(dim))

    def test_qubit_against_binary_entropy_formula(self):
        expected = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
        got = entropy(ops.DensityOperator(np.diag([0.25, 0.75])).matrix)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_concavity_spot_check(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            a, b = random_density(4, rng).matrix, random_density(4, rng).matrix
            lhs = entropy(ops.DensityOperator(0.5 * (a + b)).matrix)
            rhs = 0.5 * entropy(a) + 0.5 * entropy(b)
            assert lhs >= rhs - 1e-9


class TestMeasurementContraction:
    """Induced classical distances never exceed the trace distance and the
    eigenbasis of the difference attains it."""

    def test_random_povms_contract(self):
        from qseclab import detection
        from qseclab.distributions import variational_distance

        rng = np.random.default_rng(44)
        for _ in range(20):
            rho, sigma = random_density(3, rng), random_density(3, rng)
            z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            q, r = np.linalg.qr(z)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            frame = q[:, :3]
            povm = detection.POVM(
                tuple(np.outer(frame[y].conj(), frame[y]) for y in range(6))
            )
            p = outcome_distribution(povm.stack, rho)
            qdist = outcome_distribution(povm.stack, sigma)
            distance = trace_distance(rho.matrix, sigma.matrix)
            assert variational_distance(p, qdist) <= distance + 1e-9

    def test_difference_eigenbasis_achieves_distance(self):
        from qseclab import detection
        from qseclab.distributions import variational_distance

        rng = np.random.default_rng(45)
        for _ in range(20):
            rho, sigma = random_density(4, rng), random_density(4, rng)
            diff = ops.HermitianOperator(rho.matrix - sigma.matrix)
            elements = detection.eigenbasis_povm(diff.matrix)
            p = outcome_distribution(elements, rho)
            q = outcome_distribution(elements, sigma)
            assert variational_distance(p, q) == pytest.approx(
                trace_distance(rho.matrix, sigma.matrix), abs=1e-9
            )


class TestWireFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        rho = random_density(3, rng)
        rebuilt = ops.matrix_from_pairs(ops.matrix_to_pairs(rho.matrix))
        np.testing.assert_allclose(rebuilt, rho.matrix, atol=0)

    def test_half_identity_literal(self):
        literal = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
        np.testing.assert_allclose(ops.matrix_from_pairs(literal), np.eye(2) / 2)

    def test_malformed_literal_rejected(self):
        with pytest.raises(ParseError):
            ops.matrix_from_pairs([[1, 2], [3, 4]])

    def test_a_stack_is_a_list_of_matrix_literals(self):
        rng = np.random.default_rng(3)
        stack = np.stack([random_density(3, rng).matrix for _ in range(4)])
        pairs = ops.matrix_to_pairs(stack)
        assert pairs == [ops.matrix_to_pairs(m) for m in stack]
        assert pairs[2] == [[[float(z.real), float(z.imag)] for z in row] for row in stack[2]]
        assert np.array_equal(ops.matrix_from_pairs(pairs), stack)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3), (1, 1, 2, 2, 2), (2,)])
    def test_neither_a_matrix_nor_a_stack_rejected(self, shape):
        with pytest.raises(ParseError, match=r"must have shape \(rows, cols, 2\)"):
            ops.matrix_from_pairs(np.zeros(shape).tolist())

    @pytest.mark.parametrize("entry, name", [("0.5", "str"), (True, "bool"), (False, "bool")])
    def test_an_entry_that_is_not_a_number_rejected(self, entry, name):
        # numpy converts each of these; a null stays NaN for the state checks
        literal = [[[0.5, 0], [0, 0]], [[0, 0], [entry, 0]]]
        with pytest.raises(ParseError, match=f"^matrix entries must be numbers, got {name}$"):
            ops.matrix_from_pairs(literal)
        with pytest.raises(ParseError, match=f"^matrix entries must be numbers, got {name}$"):
            ops.matrix_from_pairs([literal, literal])
        literal[1][1][0] = None
        assert np.isnan(ops.matrix_from_pairs(literal)[1, 1])

    def test_an_integer_past_float_range_rejected(self):
        with pytest.raises(ParseError, match="malformed matrix literal"):
            ops.matrix_from_pairs([[[10**400, 0]]])
