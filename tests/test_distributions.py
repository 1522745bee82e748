"""Tests for classical distances, entropies and the extremal constructions."""

import decimal
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qseclab import distributions as dist
from qseclab.errors import (
    InfeasibleError,
    SizeMismatchError,
    ValidationError,
)


def normalized(values):
    arr = np.asarray(values, dtype=float)
    return arr / arr.sum()


guts = st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=12)


class TestValidateDistribution:
    @pytest.mark.parametrize(
        "probs", [[0.7, 0.7], [1.2, -0.2], [0.5, float("nan")]], ids=["sum", "negative", "nan"]
    )
    def test_bad_distribution_is_a_validation_error(self, probs):
        with pytest.raises(ValidationError):
            dist.validate_distribution(probs)

    def test_clipped_round_off_is_renormalised(self):
        p = dist.validate_distribution([1.0 + 5e-11, -5e-11])
        assert p.tolist() == [1.0, 0.0]

    def test_nonnegative_entries_keep_their_bits(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            raw = rng.exponential(size=7)
            raw[rng.integers(0, 7)] = 0.0
            probs = raw / raw.sum()
            np.testing.assert_array_equal(dist.validate_distribution(probs), probs)


class TestVariationalDistance:
    def test_identical_is_zero(self):
        p = normalized([1, 2, 3])
        assert dist.variational_distance(p, p) == 0.0

    @pytest.mark.parametrize("size", [2, 5, 16])
    def test_point_mass_vs_uniform(self, size):
        point = np.zeros(size)
        point[0] = 1.0
        uniform = np.full(size, 1.0 / size)
        assert dist.variational_distance(point, uniform) == pytest.approx(1 - 1 / size)

    def test_matches_exhaustive_event_gap(self):
        # oracle: brute force over all 2^N events
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            p = normalized(rng.exponential(size=n))
            q = normalized(rng.exponential(size=n))
            gap, _ = dist.max_event_gap(p, q, mode="exhaustive")
            assert abs(gap - dist.variational_distance(p, q)) < 1e-12

    @given(guts, guts)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_range(self, a, b):
        size = min(len(a), len(b))
        p, q = normalized(a[:size]), normalized(b[:size])
        v = dist.variational_distance(p, q)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(dist.variational_distance(q, p), abs=1e-15)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            dist.variational_distance([1.0], [0.5, 0.5])


class TestMaxEventGap:
    def test_equal_distributions(self):
        p = normalized([1, 1, 1])
        for mode in ("greedy", "exhaustive"):
            gap, witness = dist.max_event_gap(p, p, mode=mode)
            assert gap == 0.0
            assert witness == ()

    def test_disjoint_point_masses(self):
        gap, witness = dist.max_event_gap([1.0, 0.0], [0.0, 1.0])
        assert gap == pytest.approx(1.0)
        assert witness == (0,)

    def test_greedy_equals_exhaustive_equals_distance(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            p = normalized(rng.exponential(size=10))
            q = normalized(rng.exponential(size=10))
            greedy_gap, greedy_witness = dist.max_event_gap(p, q)
            exhaustive_gap, _ = dist.max_event_gap(p, q, mode="exhaustive")
            assert greedy_gap == pytest.approx(exhaustive_gap, abs=1e-12)
            assert greedy_gap == pytest.approx(dist.variational_distance(p, q), abs=1e-12)
            assert all(p[i] > q[i] for i in greedy_witness)

    def test_subset_probability_bound(self):
        # if v(P, U) <= eps then every event probability is within eps of
        # its uniform value
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            p = normalized(rng.exponential(size=n))
            uniform = np.full(n, 1.0 / n)
            eps = dist.variational_distance(p, uniform)
            gap, _ = dist.max_event_gap(p, uniform, mode="exhaustive")
            assert gap <= eps + 1e-12


class TestShannonEntropy:
    def test_point_mass(self):
        assert dist.shannon_entropy([0.0, 1.0, 0.0]) == 0.0

    @pytest.mark.parametrize("size", [2, 8, 64])
    def test_uniform(self, size):
        assert dist.shannon_entropy(np.full(size, 1 / size)) == pytest.approx(np.log2(size))

    def test_quarter_three_quarter(self):
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert dist.shannon_entropy([0.25, 0.75]) == pytest.approx(expected, abs=1e-12)

    @given(guts)
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, values):
        p = normalized(values)
        h = dist.shannon_entropy(p)
        assert -1e-12 <= h <= math.log2(len(p)) + 1e-12


def masked_information(j):
    """``dist._information`` as it was before its dense case: the logs over
    the support only, and the sum over the support's entries, for every
    joint."""
    mask = j > 0.0
    positive = j[mask]
    pk, py = j.sum(axis=1), j.sum(axis=0)
    product = np.outer(pk, py)[mask]
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


def information_joints():
    """Joints of 8 to 16384 entries, across numpy's 8- and 128-element
    pairwise-sum blocks: dense ones, ones with zeros, ones with rows and
    columns scaled toward 1e-300 (products from normal to subnormal and
    0), dense ones with rows scaled down to 1e-150, and dense ones in
    Fortran order."""
    rng = np.random.default_rng(131)
    for shape in [(2, 4), (4, 4), (8, 64), (64, 256)]:
        for _ in range(4):
            dense = rng.exponential(size=shape)
            yield dense / dense.sum()
            yield np.asfortranarray(dense / dense.sum())
            sparse = dense * (rng.random(shape) < 0.6)
            sparse.flat[0] += 1.0
            yield sparse / sparse.sum()
            rows = 10.0 ** -rng.choice([0.0, 150.0, 300.0], size=(shape[0], 1))
            cols = 10.0 ** -rng.choice([0.0, 10.0, 160.0], size=shape[1])
            scaled = dense * rows * cols
            scaled.flat[0] += 1.0
            yield scaled / scaled.sum()
            small = dense * 10.0 ** -rng.choice([0.0, 100.0, 150.0], size=(shape[0], 1))
            small.flat[0] += 1.0
            yield small / small.sum()  # dense, with products down to about 1e-300


class TestMutualInformation:
    def test_information_is_bit_equal_to_the_masked_form(self):
        dense = total = 0
        for joint in information_joints():
            bits, log2_ratio = dist._information(joint)
            expected_bits, expected_ratio = masked_information(joint)
            assert bits == expected_bits
            assert np.array_equal(log2_ratio, expected_ratio)
            assert log2_ratio.flags.c_contiguous == expected_ratio.flags.c_contiguous
            product = np.outer(joint.sum(axis=1), joint.sum(axis=0))
            dense += joint.flags.c_contiguous and joint.min() > 0.0 and (
                product.min() >= sys.float_info.min)
            total += 1
        assert 0 < dense < total  # both cases are reached

    def test_product_joint_is_zero(self):
        pk = normalized([1, 2, 3])
        py = normalized([4, 1])
        joint = np.outer(pk, py)
        assert dist.mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_perfectly_correlated_uniform_pair(self, n):
        size = 2**n
        joint = np.eye(size) / size
        assert dist.mutual_information(joint) == pytest.approx(n, abs=1e-12)

    def test_against_term_by_term_oracle(self):
        # oracle: independent marginalization plus literal term-by-term sum
        rng = np.random.default_rng(99)
        for _ in range(25):
            joint = normalized(rng.exponential(size=16)).reshape(4, 4)
            pk = [joint[k, :].sum() for k in range(4)]
            py = [joint[:, y].sum() for y in range(4)]
            expected = 0.0
            for k in range(4):
                for y in range(4):
                    if joint[k, y] > 0:
                        expected += joint[k, y] * math.log2(joint[k, y] / (pk[k] * py[y]))
            got = dist.mutual_information(joint)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_kernel_is_bit_equal_to_the_validated_function(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            shape = tuple(int(x) for x in rng.integers(1, 6, size=2))
            raw = rng.exponential(size=shape) * (rng.random(shape) < 0.7)
            raw.flat[0] += 1e-3  # at least one positive entry
            joint = raw / raw.sum()
            bits, log2_ratio = dist._information(joint)
            assert bits == dist.mutual_information(joint)
            # the log ratio vanishes off the support and sums back to the bits
            assert np.all(log2_ratio[joint == 0.0] == 0.0)
            assert (joint * log2_ratio).sum() == pytest.approx(bits, abs=1e-12)

    def test_finite_where_the_marginal_product_underflows(self):
        # pk * py = 1e-400 is 0.0 in floats; the term is 1e-200 log2(1e200)
        bits = dist.mutual_information([[1e-200, 0.0], [0.0, 1.0]])
        assert bits == pytest.approx(1e-200 * 200 * math.log2(10), rel=1e-12)

    @given(
        st.integers(1, 4),
        st.lists(st.one_of(st.just(0.0), st.floats(5e-324, 1e-300), st.floats(1e-300, 1e-200),
                           st.floats(1e-6, 1.0)), min_size=1, max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_both_entropies_down_to_subnormals(self, cols, entries):
        raw = np.zeros(-(-len(entries) // cols) * cols)
        raw[:len(entries)] = entries
        raw[0] += 1e-3  # at least one normal entry
        joint = (raw / raw.sum()).reshape(-1, cols)
        bits = dist.mutual_information(joint)
        h_k = dist.shannon_entropy(joint.sum(axis=1))
        h_y = dist.shannon_entropy(joint.sum(axis=0))
        assert 0.0 <= bits <= min(h_k, h_y) + 1e-12


def _rule(exponent):
    """The residual every spike construction must meet."""
    return min(1e-9, 1e-6 * 2.0**-exponent)


def _oracle_deficit(p1, n, digits):
    """The spike's divergence from uniform in bits, in ``digits``-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        p1 = decimal.Decimal(p1)
        size = decimal.Decimal(2) ** n
        tail = (1 - p1) / (size - 1)
        nats = p1 * (p1 * size).ln() + (1 - p1) * (tail * size).ln()
        return nats / decimal.Decimal(2).ln()


def _assert_deficit_met(spike, n, l_prime):
    """Check a mutual-information spike against the decimal oracle."""
    target = 2.0**-l_prime
    assert abs(spike.residual) <= _rule(l_prime)
    # the oracle's own terms cancel, so its precision grows with l'
    exact = _oracle_deficit(spike.resulting_p1, n, 40 + int(l_prime))
    exact_residual = float(exact - decimal.Decimal(target))
    assert abs(exact_residual) <= _rule(l_prime)
    # the deficit itself is evaluated to a few ulps, not to the rule
    assert abs(spike.residual - exact_residual) <= 1e-12 * target


SPIKE_ORACLE_BITS = [1, 2, 3, 4, 5, 6, 7, 8, 16, 64, 4000]
SPIKE_ORACLE_EXPONENTS = (0.25, 1.0, 5.0, 10.0, 20.0, 25.0, 28.0, 30.0, 35.0, 37.5, 40.0,
                          50.0, 60.0, 65.0, 70.0, 80.0, 90.0, 100.0)


class TestSpikeForMutualInformation:
    def test_tiny_deficit_recovers_uniform(self):
        # near the uniform spike the deficit is N^2 eps^2 / (2 ln 2 (N - 1))
        # to leading order for spike mass 1/N + eps
        target = 2.0**-60
        spike = dist.spike_for_mutual_information(4, l_prime=60.0)
        eps = math.sqrt(2.0 * math.log(2.0) * 15 * target) / 16
        assert spike.resulting_p1 == pytest.approx(1 / 16 + eps, rel=1e-6)

    @pytest.mark.parametrize("n, l_prime", [(3, 100.0)])
    def test_unresolvable_deficit_is_infeasible(self, n, l_prime):
        # the float grid near 1/8 holds no spike mass within 1e-6 of 2^-100
        with pytest.raises(InfeasibleError, match="double precision"):
            dist.spike_for_mutual_information(n, l_prime)

    @pytest.mark.parametrize("n", SPIKE_ORACLE_BITS)
    def test_constraint_met_relative_to_the_target(self, n):
        # oracle: the deficit of the returned mass in decimals
        for l_prime in SPIKE_ORACLE_EXPONENTS:
            try:
                spike = dist.spike_for_mutual_information(n, l_prime)
            except InfeasibleError:
                assert l_prime > 60.0 and n < 64, f"n={n} refused l'={l_prime}"
                continue
            _assert_deficit_met(spike, n, l_prime)

    @pytest.mark.parametrize("n, l_prime", [(3, 50.0), (4, 50.0), (64, 100.0)])
    def test_deficit_near_uniform_is_met(self, n, l_prime):
        # deficits far below what n - H(p) resolves in double precision
        _assert_deficit_met(dist.spike_for_mutual_information(n, l_prime), n, l_prime)

    def test_against_grid_search_oracle(self):
        # oracle: coarse grid over the spike mass with entropy computed on
        # the materialized distribution, refined once around the best cell
        n, l_prime = 8, 2.0
        target = 2.0**-l_prime

        def deficit_of(mass):
            tail = (1 - mass) / (2**n - 1)
            arr = np.full(2**n, tail)
            arr[0] = mass
            return n - dist.shannon_entropy(arr / arr.sum())

        grid = np.linspace(1 / 2**n, 1.0, 20_001)
        values = np.array([deficit_of(m) for m in grid])
        best = grid[np.argmin(np.abs(values - target))]
        fine = np.linspace(best - 1e-4, best + 1e-4, 2_001)
        values = np.array([deficit_of(m) for m in fine])
        oracle_mass = fine[np.argmin(np.abs(values - target))]

        spike = dist.spike_for_mutual_information(n, l_prime)
        assert spike.resulting_p1 == pytest.approx(oracle_mass, abs=1e-6)
        assert abs(spike.residual) <= 1e-9
        assert dist.shannon_entropy(spike.resulting_distribution) == pytest.approx(
            n - target, abs=1e-9
        )

    def test_large_key_reference_exponent(self):
        spike = dist.spike_for_mutual_information(4000, 21.0)
        assert spike.reference_exponent == pytest.approx(21 + math.log2(4000), abs=1e-9)
        assert spike.reference_exponent == pytest.approx(32.9658, abs=1e-3)
        assert abs(spike.residual) <= 1e-9
        assert spike.resulting_distribution is None
        assert 0.5 <= spike.resulting_p1 / spike.reference_p1 <= 2.0

    def test_spike_is_maximal_on_family(self):
        # grid oracle: any larger spike mass overshoots the deficit
        spike = dist.spike_for_mutual_information(6, 3.0)
        target = 2.0**-3.0
        for mass in np.linspace(spike.resulting_p1 + 1e-6, 1.0, 200):
            assert dist.spike_entropy_deficit(mass, 6) > target

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            dist.spike_for_mutual_information(4, l_prime=-1.0)


class TestSpikeForVariationalDistance:
    def test_distance_below_the_float_grid_is_infeasible(self):
        # 1/16 + 2^-60 rounds to 1/16, the uniform distribution
        with pytest.raises(InfeasibleError, match="double precision"):
            dist.spike_for_variational_distance(4, l=60.0)

    @pytest.mark.parametrize("n", SPIKE_ORACLE_BITS)
    def test_excess_met_against_decimal(self, n):
        # oracle: the excess p1 - 2^-n of the returned mass, exact in decimals
        for l in SPIKE_ORACLE_EXPONENTS:
            try:
                spike = dist.spike_for_variational_distance(n, l)
            except InfeasibleError:
                continue
            with decimal.localcontext() as ctx:
                ctx.prec = 40 + int(l) + n
                excess = decimal.Decimal(spike.resulting_p1) - decimal.Decimal(2) ** -n
                exact_residual = float(excess - decimal.Decimal(2) ** decimal.Decimal(-l))
            assert abs(exact_residual) <= _rule(l)
            # the float residual rounds 2^-l and the excess, a few ulps each
            assert abs(spike.residual - exact_residual) <= 1e-15 * 2.0**-l

    def test_optimum_at_half_distance(self):
        # oracle: exhaustive grid over spike masses at N = 4
        spike = dist.spike_for_variational_distance(2, l=1.0)
        assert spike.resulting_p1 == pytest.approx(0.75, abs=1e-12)
        uniform = np.full(4, 0.25)
        feasible = []
        for mass in np.linspace(0.25, 1.0, 30_001):
            tail = (1 - mass) / 3
            arr = np.array([mass, tail, tail, tail])
            if abs(dist.variational_distance(arr, uniform) - 0.5) < 1e-9:
                feasible.append(mass)
        assert max(feasible) == pytest.approx(0.75, abs=1e-4)
        # the differing closed-form companion value is reported, not adopted
        assert spike.reference_p1 == pytest.approx(0.25, abs=1e-12)
        assert spike.discrepancy

    def test_constraint_met_exactly(self):
        spike = dist.spike_for_variational_distance(5, l=3.0)
        uniform = np.full(32, 1 / 32)
        assert dist.variational_distance(
            spike.resulting_distribution, uniform
        ) == pytest.approx(2.0**-3, abs=1e-12)

    def test_large_key_skips_materialization(self):
        spike = dist.spike_for_variational_distance(20, l=5.0)
        assert spike.resulting_distribution is None
        assert spike.resulting_p1 == pytest.approx(2.0**-20 + 2.0**-5, abs=1e-15)
        assert spike.residual == 0.0

    def test_infeasible_distance(self):
        with pytest.raises(InfeasibleError):
            dist.spike_for_variational_distance(1, l=0.5)  # 2^-0.5 > 1 - 1/2


class TestMaterializedSpike:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_unit_mass_uniform_tail_and_spike_on_top(self, n):
        # at 1 - 2874 * 2^-53 the rounding absorbed into the last tail entry
        # exceeds the entry itself for n = 9, 10 and 12
        for p1 in (2.0**-n, 2.0**-n + 2.0**-30, 0.75, 1.0 - 2874 * 2.0**-53, 1.0):
            spike = dist._materialize_spike(p1, n)
            tail = spike[1:]
            assert spike.min() >= 0.0
            assert abs(spike.sum() - 1.0) <= 1e-12
            assert np.abs(tail - tail[0]).max() <= 1e-12
            assert spike.max() == spike[0] == pytest.approx(p1, abs=1e-15)

    def test_materialised_for_n_up_to_16_only(self):
        assert dist._materialize_spike(0.5, 16).size == dist.MAX_MATERIALIZE
        assert dist._materialize_spike(0.5, 17) is None


class TestMarkovBound:
    def test_threshold_arithmetic(self):
        threshold, bound = dist.markov_individual_bound(2.0**-20, 2.0**10)
        assert threshold == pytest.approx(2.0**-10)
        assert bound == pytest.approx(2.0**-10)

    def test_factor_one_rejected(self):
        with pytest.raises(ValueError):
            dist.markov_individual_bound(0.5, 1.0)

    def test_monte_carlo_oracle(self):
        # sampled nonnegative variables respect the bound within sampling error
        rng = np.random.default_rng(606)
        samples = rng.exponential(scale=1.0, size=100_000)
        for factor in (2.0, 5.0, 20.0):
            threshold, bound = dist.markov_individual_bound(1.0, factor)
            exceed = float(np.mean(samples >= threshold))
            assert exceed <= bound + 3.0 * math.sqrt(bound / len(samples)) + 1e-3


class TestPushforwardMax:
    def test_identity_map(self):
        p = normalized([1, 5, 2])
        assert dist.pushforward_max(p, lambda i: i) == pytest.approx(max(p))

    def test_constant_map(self):
        p = normalized([1, 5, 2])
        assert dist.pushforward_max(p, lambda i: 0) == pytest.approx(1.0)

    def test_never_below_top_mass(self):
        # enumeration oracle over random map/distribution pairs
        rng = np.random.default_rng(515)
        for _ in range(1000):
            p = normalized(rng.exponential(size=16))
            f = rng.integers(0, 16, size=16)
            assert dist.pushforward_max(p, f) >= p.max() - 1e-15
