"""Tests for the inequality checks and campaign machinery."""

import json
import math
import re

import numpy as np
import pytest

from qseclab import bounds, detection as det, distributions as dist, ensembles as ens, locking
from qseclab import operators as ops
from qseclab.errors import OutOfScopeError, ValidationError

from pure_state import pure_state
from random_joint import random_joint
from random_states import random_mixed_state, random_pure_state


def orthogonal_ensemble(n_bits):
    n_keys = 2**n_bits
    states = tuple(pure_state(np.eye(n_keys)[k]) for k in range(n_keys))
    return ens.CQEnsemble(n_bits, np.full(n_keys, 1 / n_keys), states)


def constant_ensemble(n_bits, dim=2):
    n_keys = 2**n_bits
    return ens.CQEnsemble(
        n_bits, np.full(n_keys, 1 / n_keys), (np.eye(dim) / dim,) * n_keys
    )


def d_chi(e):
    return ens.mean_conditional_distance(e), ens.holevo_information(e)


def _former_pure_state(dim, rng):
    """The former body of ``random_pure_state``, as a matrix."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return ops._rank_one(v[None])[0] / float(np.vdot(v, v).real)


def _former_mixed_state(dim, rng):
    """The former body of ``random_mixed_state``, as a matrix."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / float(np.trace(rho).real)


def _per_state_build(recipe):
    """The build that drew and diagonalised one state at a time, kept as the
    reference for the batched one: (prior, states, spectra)."""
    rng = np.random.default_rng(recipe.seed)
    n_keys = 2**recipe.n_bits
    if recipe.kind in ("random_mixed", "random_pure"):
        draw = _former_mixed_state if recipe.kind == "random_mixed" else _former_pure_state
        states = [draw(recipe.dim, rng) for _ in range(n_keys)]
        prior = bounds._random_prior(n_keys, rng)
    elif recipe.kind == "commuting_classical":
        rows = rng.exponential(size=(n_keys, recipe.dim))
        rows /= rows.sum(axis=1, keepdims=True)
        states = [np.diag(r.astype(np.complex128)) for r in rows]
        prior = bounds._random_prior(n_keys, rng)
    else:
        spike_mass = float(rng.uniform(1.0 / n_keys, 1.0))
        row = np.full(n_keys, (1.0 - spike_mass) / max(n_keys - 1, 1))
        row[0] = spike_mass
        states = [np.diag(np.roll(row, k).astype(np.complex128)) for k in range(n_keys)]
        prior = ens.uniform_prior(recipe.n_bits)
    return prior, np.stack(states), np.stack([np.linalg.eigvalsh(m) for m in states])


class TestPinskerCheck:
    def test_product_joint_passes_with_zero_margin(self):
        joint = np.outer([0.3, 0.7], [0.4, 0.6])
        result = bounds.check_pinsker(joint)
        assert result.verdict == "pass"
        assert result.margin == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_correlated_bit(self):
        joint = np.diag([0.5, 0.5])
        result = bounds.check_pinsker(joint)
        assert result.verdict == "pass"
        assert result.extras["delta"] == pytest.approx(0.5)
        assert result.extras["mutual_information"] == pytest.approx(1.0)
        assert result.margin == pytest.approx(0.5)

    def test_tight_margin_closed_form_on_the_binary_symmetric_joint(self):
        # crossover 1/4: delta = 1/4 and I = 1 - h(1/4) = (3/4) log2 3 - 1,
        # so the tight margin is I - (2 / ln 2) / 16 = I - 1 / (8 ln 2)
        joint = np.array([[3.0, 1.0], [1.0, 3.0]]) / 8
        result = bounds.check_pinsker(joint)
        info = 0.75 * math.log2(3.0) - 1.0
        assert result.extras["delta"] == pytest.approx(0.25, abs=1e-15)
        assert result.extras["mutual_information"] == pytest.approx(info, abs=1e-12)
        assert abs(result.extras["tight_margin"] - (info - 1.0 / (8.0 * math.log(2.0)))) <= 1e-12

    def test_random_campaign_all_pass(self):
        rng = np.random.default_rng(111)
        for _ in range(2_000):
            rows = int(rng.integers(2, 17))
            cols = int(rng.integers(2, 17))
            result = bounds.check_pinsker(random_joint(rows, cols, rng))
            assert result.verdict == "pass"
            assert result.extras["tight_margin"] >= -1e-10


class TestQuantumPinskerCheck:
    def test_constant_ensemble_boundary(self):
        result = bounds.check_quantum_pinsker(*d_chi(constant_ensemble(1)))
        assert result.verdict == "pass"
        assert result.margin == pytest.approx(0.0, abs=1e-10)

    def test_one_bit_orthogonal_closed_form(self):
        # both sides in closed form: d = 1/2, chi = 1
        result = bounds.check_quantum_pinsker(*d_chi(orthogonal_ensemble(1)))
        assert result.extras["d"] == pytest.approx(0.5, abs=1e-10)
        assert result.extras["chi"] == pytest.approx(1.0, abs=1e-10)
        assert result.margin == pytest.approx(0.5, abs=1e-9)

    def test_locking_ensemble_passes(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        result = bounds.check_quantum_pinsker(*d_chi(le.ensemble))
        assert result.verdict == "pass"
        assert result.margin == pytest.approx(0.5, abs=1e-9)


class TestChiTwoSidedCheck:
    def test_constant_ensemble_boundary(self):
        result = bounds.check_chi_two_sided(*d_chi(constant_ensemble(1)), 1)
        assert result.verdict == "pass"
        assert result.extras["upper_margin"] == pytest.approx(0.0, abs=1e-9)

    def test_binary_entropy_identity_inside_bound(self):
        from qseclab.distributions import binary_entropy

        assert binary_entropy(0.5) == 1.0
        # at d = 1/4 the upper bound evaluates through h(1/2) = 1
        d = 0.25
        assert 8 * d * 1 + 2 * binary_entropy(2 * d) == pytest.approx(4.0)

    def test_upper_side_not_applicable_beyond_half(self):
        result = bounds.check_chi_two_sided(*d_chi(orthogonal_ensemble(2)), 2)  # d = 3/4
        assert result.extras["upper_margin"] is None
        assert "not applicable" in result.note
        assert result.verdict == "pass"

    def test_random_campaign(self):
        recipes = bounds.default_recipes(300, seed=77)
        result = bounds.run_campaign(recipes, checks=("chi_two_sided",), seed=77)
        assert result.summary["chi_two_sided"]["fail"] == 0


class TestAccessibleInfoCheck:
    def test_constant_ensemble_passes(self):
        e = constant_ensemble(1)
        main, companion = bounds.check_accessible_info(e, *d_chi(e))
        assert main.verdict == "pass"
        assert companion.verdict == "pass"

    def test_orthogonal_ensemble_trivially_passes(self):
        e = orthogonal_ensemble(2)
        main, _ = bounds.check_accessible_info(e, *d_chi(e))
        assert main.verdict == "pass"
        assert main.extras["i_ac_lower"] == pytest.approx(2.0, abs=1e-8)

    def test_locking_ensemble_recorded_with_budget(self):
        le = locking.build_locking_ensemble("symmetric_corrected")
        main, companion = bounds.check_accessible_info(
            le.ensemble, *d_chi(le.ensemble), restarts=1, seed=3
        )
        assert main.verdict == "pass"
        assert "restarts=1" in main.note
        assert companion.verdict == "pass"

    def test_verdicts_never_fail(self):
        recipes = bounds.default_recipes(60, seed=19)
        result = bounds.run_campaign(recipes, checks=("accessible_info",), seed=19)
        counts = result.summary["accessible_info"]
        assert counts["fail"] == 0
        assert counts["pass"] + counts["inconclusive"] == 60


class TestExponentRelationCheck:
    def test_upper_boundary(self):
        result = bounds.check_exponent_relation(2.0**-4, 2.0**-8, 16)
        assert result.verdict == "pass"
        assert result.extras["upper_margin"] == pytest.approx(0.0, abs=1e-12)

    def test_lower_boundary(self):
        result = bounds.check_exponent_relation(2.0**-10, 2.0**-2, 16)
        assert result.verdict == "pass"
        assert result.extras["lower_margin"] == pytest.approx(0.0, abs=1e-12)

    def test_out_of_scope_chi_above_one(self):
        with pytest.raises(OutOfScopeError):
            bounds.check_exponent_relation(0.5, 1.5, 4)

    def test_out_of_scope_small_key(self):
        with pytest.raises(OutOfScopeError):
            bounds.check_exponent_relation(2.0**-6, 2.0**-3, 2)

    def test_harvested_from_campaign(self):
        recipes = bounds.default_recipes(200, seed=23)
        result = bounds.run_campaign(
            recipes, checks=("quantum_pinsker", "exponent_relation"), seed=23
        )
        assert result.summary["exponent_relation"]["fail"] == 0
        assert result.summary["quantum_pinsker"]["fail"] == 0


class TestRecipesAndCampaigns:
    def test_recipe_determinism(self):
        recipe = bounds.EnsembleRecipe("random_mixed", 2, 4, seed=99)
        a = bounds.build_instance(recipe)
        b = bounds.build_instance(recipe)
        np.testing.assert_array_equal(a.prior, b.prior)
        for s, t in zip(a.states, b.states):
            np.testing.assert_array_equal(s.matrix, t.matrix)

    @pytest.mark.parametrize("kind", bounds.RECIPE_KINDS)
    def test_batched_build_is_bit_equal_to_the_per_state_build(self, kind):
        for n_bits in (1, 2, 3):
            for dim in range(2, 9):
                for seed in (0, 1, 7, 12345):
                    # the builder would ignore the dimension of these: refused
                    if ((kind == "locking" and (n_bits, dim) != (2, 4))
                            or (kind == "spike_classical" and dim != 2**n_bits)):
                        with pytest.raises(ValidationError, match=f"^a {kind} recipe has "):
                            bounds.EnsembleRecipe(kind, n_bits, dim, seed)
                        continue
                    recipe = bounds.EnsembleRecipe(kind, n_bits, dim, seed)
                    e = bounds.build_instance(recipe)
                    if kind == "locking":
                        assert e is locking.build_locking_ensemble("symmetric_corrected").ensemble
                        continue
                    prior, stack, spectra = _per_state_build(recipe)
                    assert np.array_equal(e.prior, prior)
                    assert np.array_equal(e.stack, stack)
                    assert np.array_equal(e.spectra, spectra)

    @pytest.mark.parametrize("draw, former", [
        (random_mixed_state, _former_mixed_state),
        (random_pure_state, _former_pure_state),
    ])
    def test_random_states_are_bit_equal_to_their_former_bodies(self, draw, former):
        for dim in (1, 2, 3, 5, 8, 16):
            for seed in range(5):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(3):
                    state, matrix = draw(dim, rng), former(dim, ref_rng)
                    assert np.array_equal(state.matrix, matrix)
                    assert np.array_equal(state.eigenvalues, np.linalg.eigvalsh(matrix))
                assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("kind", ["random_mixed", "commuting_classical"])
    def test_one_eigensolve_and_no_state_object_per_build(self, kind, monkeypatch):
        solves, states = [], []
        eigvalsh, post_init = np.linalg.eigvalsh, ops.DensityOperator.__post_init__
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a) or eigvalsh(a))
        monkeypatch.setattr(ops.DensityOperator, "__post_init__",
                            lambda self: states.append(self) or post_init(self))
        e = bounds.build_instance(bounds.EnsembleRecipe(kind, 3, 8, seed=4))
        assert e.num_keys == 8
        assert [a.shape for a in solves] == [(8, 8, 8)]
        assert states == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            bounds.EnsembleRecipe("mystery", 1, 2, 0)

    # the last three are stacks of more than dist.MAX_DENSE_SIZE = 2^24 entries 2^n d^2
    @pytest.mark.parametrize("n_bits, dim", [(-1, 2), (ens.MAX_KEY_BITS + 1, 2), (1, 0),
                                             (1, ops.MAX_DIM + 1), (24, 2), (23, 2), (13, 64)])
    def test_over_cap_recipe_rejected(self, n_bits, dim):
        with pytest.raises(ValidationError):
            bounds.EnsembleRecipe("random_mixed", n_bits, dim, 0)

    def test_over_cap_campaign_refused_before_building(self):
        # recipe 23 (n = 23, d = 2) is refused before recipe 24 (n = 24), whose
        # random_mixed stack would start with a 1 GiB draw of 2^27 normals
        with pytest.raises(ValidationError, match=r"^a stack of 2\^23 states of dimension 2 "):
            bounds.default_recipes(24, max_n=24, kinds=("random_mixed",))

    @pytest.mark.parametrize("kind, n_bits, dim", [
        ("locking", 1, 2), ("locking", 2, 2), ("locking", 3, 8),
        ("spike_classical", 2, 2), ("spike_classical", 10, 2),
    ])
    def test_a_dimension_the_builder_would_ignore_is_refused(self, kind, n_bits, dim):
        # the builder makes the n = 2, d = 4 locking ensemble and a spike of
        # dimension 2^n whatever the recipe says
        with pytest.raises(ValidationError, match=f"^a {kind} recipe has "):
            bounds.EnsembleRecipe(kind, n_bits, dim, 0)

    @pytest.mark.parametrize("n_bits, dim, seed, text", [
        (1.0, 2, 0, "key length must be an integer, got 1.0"),
        (True, 2, 0, "key length must be an integer, got True"),
        (1, 2.5, 0, "dimension must be an integer, got 2.5"),
        (1, True, 0, "dimension must be an integer, got True"),
        (1, 2, 1.5, "seed must be an integer, got 1.5"),
        (1, 2, "0", "seed must be an integer, got '0'"),
        (1, 2, -1, "seed must be at least 0, got -1"),
    ])
    def test_a_size_or_seed_that_is_not_a_count_is_refused(self, n_bits, dim, seed, text):
        # each was accepted, and build_instance then raised a bare TypeError or ValueError
        with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
            bounds.EnsembleRecipe("random_mixed", n_bits, dim, seed)

    def test_numpy_integer_sizes_and_seed_are_kept_as_ints(self):
        recipe = bounds.EnsembleRecipe("random_mixed", np.int64(2), np.int32(3), np.uint8(7))
        assert [type(v) for v in (recipe.n_bits, recipe.dim, recipe.seed)] == [int] * 3
        assert recipe == bounds.EnsembleRecipe("random_mixed", 2, 3, 7)
        np.testing.assert_array_equal(bounds.build_instance(recipe).stack,
                                      bounds.build_instance(bounds.EnsembleRecipe(
                                          "random_mixed", 2, 3, 7)).stack)

    @pytest.mark.parametrize("n_bits, dim", [(22, 2), (24, 1), (12, 64)])
    def test_a_stack_at_the_dense_cap_is_accepted(self, n_bits, dim):
        # 2^n d^2 = 2^24 entries: no stack build_instance makes is larger
        assert bounds.EnsembleRecipe("random_mixed", n_bits, dim, 0).dim == dim

    def test_every_kind_builds(self):
        for i, kind in enumerate(bounds.RECIPE_KINDS):
            recipe = bounds.EnsembleRecipe(kind, 2, 4, seed=i)
            e = bounds.build_instance(recipe)
            assert e.num_keys == 4

    def test_empty_campaign(self):
        result = bounds.run_campaign(())
        assert result.reports == ()
        assert result.summary == {}
        assert result.hard_failures == 0

    def test_campaign_deterministic(self):
        recipes = bounds.default_recipes(40, seed=5)
        first = bounds.run_campaign(recipes, seed=5)
        second = bounds.run_campaign(recipes, seed=5)
        flat_first = [json.dumps(r.to_flat_dict(), sort_keys=True) for r in first.reports]
        flat_second = [json.dumps(r.to_flat_dict(), sort_keys=True) for r in second.reports]
        assert flat_first == flat_second

    def test_default_campaign_zero_hard_failures(self):
        recipes = bounds.default_recipes(300, seed=1)
        result = bounds.run_campaign(recipes, seed=1)
        assert result.hard_failures == 0
        assert result.summary["pinsker"]["fail"] == 0
        assert result.summary["quantum_pinsker"]["fail"] == 0
        assert result.summary["chi_two_sided"]["fail"] == 0

    @pytest.mark.parametrize("bits", [float("inf"), float("nan")])
    def test_non_finite_margin_decides_nothing(self, monkeypatch, bits):
        # a proven check fails on it; the a-fortiori check stays inconclusive
        monkeypatch.setattr(det, "accessible_info_lower_bound",
                            lambda e, restarts, seed: det.AccessibleInfo(bits, None))
        recipes = bounds.default_recipes(2, seed=3)
        result = bounds.run_campaign(recipes, checks=("accessible_info", "holevo_consistency"))
        for report in result.reports:
            main, companion = (report.checks[name]
                               for name in ("accessible_info", "holevo_consistency"))
            assert (main.verdict, main.note) == ("inconclusive", "non-finite margin")
            assert (companion.verdict, companion.note) == ("fail", "non-finite margin")
        assert result.hard_failures == 2

    def test_worst_margins_monotone_under_prefix_growth(self):
        small = bounds.run_campaign(bounds.default_recipes(40, seed=9), seed=9)
        large = bounds.run_campaign(bounds.default_recipes(120, seed=9), seed=9)
        for name, entry in small.summary.items():
            if entry["worst_margin"] is None:
                continue
            assert large.summary[name]["worst_margin"] <= entry["worst_margin"] + 1e-15

    @pytest.mark.parametrize(
        "seed, index, i_ac_lower, chi",
        [(7, 521, 1.682, 2.203), (7, 611, 1.324, 1.819), (505, 1991, 1.590, 1.921)],
    )
    def test_minimum_error_completion_stays_positive(self, seed, index, i_ac_lower, chi):
        # random_pure instances whose min-error POVM failed validation: #521
        # and #1991 in the element holding the completion I - sum(E_k), #611
        # in an iterated element
        recipe = bounds.default_recipes(index + 1, seed=seed)[index]
        result = bounds.run_campaign([recipe], checks=("accessible_info", "holevo_consistency"))
        report = result.reports[0]
        assert report.checks["holevo_consistency"].verdict == "pass"
        assert report.quantities["i_ac_lower"] == pytest.approx(i_ac_lower, abs=1e-3)
        assert report.quantities["chi"] == pytest.approx(chi, abs=1e-3)

    def test_square_root_measurement_elements_are_hermitian(self):
        # s @ p rho @ s deviated 2.0e-12 from Hermitian on this instance
        recipe = bounds.EnsembleRecipe("random_pure", 3, 8, 13)
        result = bounds.run_campaign([recipe], checks=("pinsker",))
        assert result.reports[0].checks["pinsker"].verdict == "pass"

    def test_one_square_root_spectrum_per_ensemble(self, monkeypatch):
        # the pinsker check and the search share one square-root measurement,
        # the square-root measurement and the eigenbasis candidate one eigh of
        # the average state, and the locking recipes one ensemble; the
        # min-error steps also call eigh, so only calls on an average state count
        monkeypatch.setattr(locking, "_BUILT", {})  # a locking ensemble new to this test
        built, spectra = [], []
        build, eigh = bounds.build_instance, np.linalg.eigh

        def recording_build(recipe):
            built.append(build(recipe))
            return built[-1]

        def recording_eigh(matrix, *args, **kwargs):
            spectra.append(matrix)
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(bounds, "build_instance", recording_build)
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        bounds.run_campaign(bounds.default_recipes(10), checks=bounds.ALL_CHECKS)
        distinct = list({id(e): e for e in built}.values())
        assert len(built) == 10 and len(distinct) == 9
        for e in distinct:
            assert sum(m is ens.average_state(e) for m in spectra) == 1

    # a full-rank average state with four keys (the min-error steps iterate),
    # and a rank-deficient one (the square-root measurement has a kernel outcome)
    ONCE_RECIPES = [bounds.EnsembleRecipe("random_mixed", 2, 3, 4),
                    bounds.EnsembleRecipe("random_pure", 1, 3, 5)]

    @pytest.mark.parametrize("recipe", ONCE_RECIPES)
    def test_instance_checks_and_criteria_compute_each_quantity_once(self, monkeypatch, recipe):
        e = bounds.build_instance(recipe)
        solved, tables, validated = [], [], []
        eigh, table, validate = np.linalg.eigh, ens.measurement_table, dist.validate_distribution

        def recording_eigh(matrix, *args, **kwargs):
            solved.append(matrix)
            return eigh(matrix, *args, **kwargs)

        def recording_table(e, elements):
            tables.append(elements)
            return table(e, elements)

        def recording_validate(*args):
            validated.append(args)
            return validate(*args)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(ens, "measurement_table", recording_table)
        monkeypatch.setattr(dist, "validate_distribution", recording_validate)
        bounds._instance_checks(e, bounds.ALL_CHECKS, 0, 0)
        det.criteria_record(e)
        srm = det.square_root_measurement(e).elements
        assert len(srm) == e.num_keys + (recipe.kind == "random_pure")
        assert sum(m is ens.average_state(e) for m in solved) == 1
        assert sum(elements is srm for elements in tables) == 1
        assert validated == []

    @pytest.mark.parametrize("recipe", ONCE_RECIPES)
    def test_quantities_kept_on_the_ensemble_are_read_only(self, recipe):
        e = bounds.build_instance(recipe)
        bounds._instance_checks(e, bounds.ALL_CHECKS, 0, 0)
        det.criteria_record(e)
        kept = [v for k, v in vars(e).items() if k.startswith("_once_")]
        arrays = []
        while kept:
            value = kept.pop()
            if isinstance(value, tuple):
                kept.extend(value)
            elif isinstance(value, det.DiscriminationResult):
                arrays.append(value.elements)
            elif isinstance(value, np.ndarray):
                arrays.append(value)
        # the average state and its eigh, the square-root elements and joint,
        # and the best candidate's elements
        assert len(arrays) == 6
        for array in arrays:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0.0

    def test_one_candidate_search_per_ensemble(self, monkeypatch):
        # at restarts=0 the search is its deterministic candidates only, the
        # same on the one locking ensemble every locking recipe shares
        monkeypatch.setattr(locking, "_BUILT", {})  # a locking ensemble new to this test
        calls = []
        refine = det._minimum_error_refinement

        def counting_refine(*args, **kwargs):
            calls.append(args[0])
            return refine(*args, **kwargs)

        monkeypatch.setattr(det, "_minimum_error_refinement", counting_refine)
        recipes = [r for r in bounds.default_recipes(15) if r.kind == "locking"]
        reports = bounds.run_campaign(recipes, checks=("accessible_info",)).reports
        assert len(reports) == 3 and len(calls) == 1
        assert len({r.quantities["i_ac_lower"] for r in reports}) == 1

    def test_locking_recipes_share_quantities_and_verdicts(self):
        recipes = [r for r in bounds.default_recipes(15) if r.kind == "locking"]
        reports = bounds.run_campaign(recipes, checks=bounds.ALL_CHECKS).reports
        assert len(reports) == 3 and len({r.recipe.seed for r in reports}) == 3

        def outcome(report):
            checks = {name: (c.verdict, c.margin) for name, c in report.checks.items()}
            return report.quantities, checks

        assert outcome(reports[1]) == outcome(reports[0])
        assert outcome(reports[2]) == outcome(reports[0])

    def test_flat_dict_shape(self):
        recipes = bounds.default_recipes(3, seed=2)
        result = bounds.run_campaign(recipes, seed=2)
        row = result.reports[0].to_flat_dict()
        for key in ("instance_id", "kind", "n_bits", "dim", "seed", "d", "chi"):
            assert key in row
        assert row["instance_id"] == 0
