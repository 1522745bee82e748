"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime.

Every tolerance is pinned here, not deferred: distances at 1e-10/1e-9,
classical identities at 1e-12, oracle agreement at 1e-6, and the
theorem campaigns admit zero failures.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time

import numpy as np
import pytest

from qseclab import bounds, cli, detection, distributions as dist, ensembles as ens
from qseclab import locking, operators as ops

from pure_state import pure_state
from qubit_oracle import brute_force_binary_qubit
from random_joint import random_joint
from random_states import random_mixed_state


def _report(number, name, elapsed, limit=None):
    budget = "" if limit is None else f" [limit {limit:.0f} s]"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f} s){budget}")


def _random_uniform_ensemble(n_bits, dim, rng):
    n_keys = 2**n_bits
    states = tuple(random_mixed_state(dim, rng) for _ in range(n_keys))
    return ens.CQEnsemble(n_bits, np.full(n_keys, 1 / n_keys), states)


def test_criterion_01_locking_ideal_comparison_value():
    """Half trace norm against the maximally mixed reference equals 1/2."""
    start = time.perf_counter()
    symmetric = locking.build_locking_ensemble("symmetric_corrected")
    comparison = ens.ideal_comparison_value(symmetric.ensemble)
    for key in ("00", "01", "10", "11"):
        assert comparison.per_key[key] == pytest.approx(0.5, abs=1e-10)
    printed = locking.build_locking_ensemble("as_printed")
    comparison = ens.ideal_comparison_value(printed.ensemble)
    for key in ("11", "10", "01"):
        assert comparison.per_key[key] == pytest.approx(0.5, abs=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "locking ideal-comparison value 1/2", elapsed, limit=1)


def test_criterion_02_kpa_deterministic_leakage():
    """Known first bit unlocks the second bit with certainty."""
    start = time.perf_counter()
    le = locking.build_locking_ensemble("symmetric_corrected")
    for known in (0, 1):
        result = locking.kpa_simulate(le, known, trials=100_000, seed=2024)
        assert result.closed_form_success == 1.0
        assert result.success_rate == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, "deterministic KPA leakage over 1e5 trials", elapsed, limit=5)


def test_criterion_03_distinguishing_composition():
    """One half plus the ideal-reference distance composes to exactly 1."""
    start = time.perf_counter()
    le = locking.build_locking_ensemble("symmetric_corrected")
    report = locking.locking_report(le, trials=1_000, seed=0)
    assert report.half_plus_ideal == pytest.approx(1.0, abs=1e-10)
    _report(3, "1/2 + ideal distance composes to 1", time.perf_counter() - start)


def test_criterion_04_binary_optimum_closed_form():
    """Closed-form binary success matches the projective brute-force oracle."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1_000):
        rho = random_mixed_state(2, rng)
        sigma = random_mixed_state(2, rng)
        # two keys: minimum_error_iterate runs the closed form
        pair = ens.CQEnsemble(1, [0.5, 0.5], (rho, sigma))
        closed = detection.minimum_error_iterate(pair).success_probability
        brute = brute_force_binary_qubit(rho, sigma, 0.5).success_probability
        worst = max(worst, abs(closed - brute))
        assert abs(closed - brute) < 1e-6
        assert closed == pytest.approx(
            0.5 + 0.5 * float(ops._half_trace_norms(rho.matrix - sigma.matrix)), abs=1e-10
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, f"binary optimum vs brute force (worst gap {worst:.1e})", elapsed, limit=30)


def test_criterion_05_theorem_suite_zero_failures():
    """The classical and quantum quadratic bounds and the two-sided relation
    never fail on randomized campaigns."""
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(10_000):
        rows = int(rng.integers(2, 17))
        cols = int(rng.integers(2, 17))
        result = bounds.check_pinsker(random_joint(rows, cols, rng))
        assert result.verdict == "pass", f"classical quadratic bound failed: {result}"
    recipes = bounds.default_recipes(1_000, seed=505, max_n=3, max_dim=8)
    campaign = bounds.run_campaign(recipes, checks=("quantum_pinsker", "chi_two_sided"), seed=505)
    assert campaign.summary["quantum_pinsker"]["fail"] == 0
    assert campaign.summary["chi_two_sided"]["fail"] == 0
    assert campaign.hard_failures == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(5, "theorem suite: 1e4 joints + 1e3 ensembles, zero fails", elapsed, limit=300)


def test_criterion_06_form_equivalence():
    """Joint-state and per-key-average forms of the criterion agree."""
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    combos = [(1, d) for d in range(2, 33)] + [(2, d) for d in range(2, 17)] + \
             [(3, d) for d in range(2, 9)]
    for i in range(200):
        n_bits, dim = combos[int(rng.integers(0, len(combos)))]
        e = _random_uniform_ensemble(n_bits, dim, rng)
        assert e.num_keys * e.state_dim <= 64
        gap = abs(ens.joint_product_distance(e) - ens.mean_conditional_distance(e))
        assert gap < 1e-9
    _report(6, "joint vs decomposed form agreement on 200 ensembles",
            time.perf_counter() - start)


def test_criterion_07_event_gap_identity():
    """Exhaustive event maximization reproduces the variational distance;
    reports flag the circulating factor-2 variant."""
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    for _ in range(1_000):
        n = int(rng.integers(2, 13))
        p = rng.exponential(size=n)
        p /= p.sum()
        q = rng.exponential(size=n)
        q /= q.sum()
        gap, _ = dist.max_event_gap(p, q, mode="exhaustive")
        assert abs(gap - dist.variational_distance(p, q)) < 1e-12
    le = locking.build_locking_ensemble("symmetric_corrected")
    report = locking.locking_report(le, trials=100, seed=0)
    assert "factor-2" in " ".join(report.notes)
    assert "factor-2" in report.criteria.p1_bound_notes
    _report(7, "event-gap identity on 1e3 pairs, factor-2 flagged",
            time.perf_counter() - start)


def test_criterion_08_extremal_spike_construction():
    """Spike mass meets its entropy-deficit constraint and tracks the
    closed-form reference within a factor of two."""
    start = time.perf_counter()
    n_bits, l_prime = 8, 0.25
    spike = dist.spike_for_mutual_information(n_bits, l_prime)
    deficit = n_bits - dist.shannon_entropy(spike.resulting_distribution)
    assert abs(deficit - 2.0**-l_prime) < 1e-9
    reference = 2.0 ** -(l_prime + math.log2(n_bits))
    assert 0.5 <= spike.resulting_p1 / reference <= 2.0
    large = dist.spike_for_mutual_information(4000, 21.0)
    assert large.reference_exponent == pytest.approx(21 + math.log2(4000), abs=1e-9)
    assert large.reference_exponent == pytest.approx(32.9658, abs=1e-3)
    assert abs(large.residual) < 1e-9
    _report(8, "extremal spike constraint and reference exponent",
            time.perf_counter() - start)


def test_criterion_09_holevo_consistency():
    """The searched information lower bound never exceeds the Holevo value,
    and attains it on orthogonal pure-state ensembles."""
    start = time.perf_counter()
    recipes = bounds.default_recipes(1_000, seed=505, max_n=3, max_dim=8)
    campaign = bounds.run_campaign(
        recipes, checks=("accessible_info", "holevo_consistency"), seed=505
    )
    counts = campaign.summary["holevo_consistency"]
    assert counts["fail"] == 0
    assert counts["pass"] == len(recipes)
    assert campaign.summary["holevo_consistency"]["worst_margin"] >= -1e-8
    acc = campaign.summary["accessible_info"]
    assert acc["fail"] == 0
    for n_bits in (1, 2, 3):
        n_keys = 2**n_bits
        states = tuple(pure_state(np.eye(n_keys)[k]) for k in range(n_keys))
        e = ens.CQEnsemble(n_bits, np.full(n_keys, 1 / n_keys), states)
        info = detection.accessible_info_lower_bound(e, restarts=0)
        chi = ens.holevo_information(e)
        assert info.bits <= chi + 1e-8
        assert abs(info.bits - chi) < 1e-6
    elapsed = time.perf_counter() - start
    _report(9, "information lower bound respects and attains the Holevo ceiling", elapsed)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    """Identical flags and seed produce byte-identical JSON for every command."""
    start = time.perf_counter()
    le = locking.build_locking_ensemble("symmetric_corrected")
    ensemble_path = tmp_path / "ensemble.json"
    ens.save_ensemble(le.ensemble, ensemble_path)
    command_lines = [
        ["locking-demo", "--trials", "2000", "--seed", "5"],
        ["locking-demo", "--variant", "as_printed", "--trials", "2000", "--seed", "5"],
        ["criteria", str(ensemble_path), "--seed", "3"],
        ["bounds-sweep", "--count", "8", "--seed", "12"],
        ["extremal", "--kind", "mutual_information", "--n", "4000", "--l-prime", "21"],
        ["extremal", "--kind", "variational_distance", "--n", "2", "--l", "1"],
    ]
    for argv in command_lines:
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second, f"non-deterministic output for {argv}"
        parse_target = first.splitlines()[0] if argv[0] == "bounds-sweep" else first
        json.loads(parse_target)  # every JSON artifact must parse
    elapsed = time.perf_counter() - start
    _report(10, "byte-identical CLI reports under fixed seeds", elapsed)
