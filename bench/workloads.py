"""The benchmark's workloads: fixed operation lists built from a seed.

A workload builder returns a warm-up operation, which does not depend on the
seed, and one round of operations.  A run repeats whole rounds, so the mix,
and the share of operations that fail on a known fault, is the same in every
run.  Each operation carries a check that compares its result with an
independent numpy computation or a proven property; checks run outside the
timed section.

Inputs the program reads from disk (ensemble files) are written into the
run's work directory while the round is built.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qseclab import bounds, cli, detection, ensembles, locking

ALL_CHECKS = (
    "pinsker", "quantum_pinsker", "chi_two_sided",
    "accessible_info", "holevo_consistency", "exponent_relation",
)
# two full cycles of the default_recipes schedule at max_n=3, max_dim=8
# (5 kinds x 3 key lengths x 7 probe dimensions each); two, so that the
# round's cost depends less on the random instances the seed picks
SWEEP_ROUND = 210
# (default_recipes seed, index) of instances whose minimum-error completion
# dips below the POVM positivity tolerance, so run_campaign raises
KNOWN_MIN_ERROR_FAULTS = ((7, 521), (7, 611), (505, 1991))
# random_pure instances fail on that fault (and on a square-root measurement
# Hermiticity overshoot) for some recipe seeds only, so they never come from
# the run seed: these fixed ones pass on every run
FIXED_RANDOM_PURE_SEED = 0

SEARCH_RESTARTS = 1
# (kind, n, dim, ensembles per round); random_pure at n=1, dim=2 is left out:
# its minimum-error completion fails for about 1 seed in 250
SEARCH_CLASSES = (
    ("random_mixed", 1, 2, 20), ("random_mixed", 2, 2, 20), ("random_pure", 2, 2, 20),
    ("random_mixed", 1, 3, 1), ("random_mixed", 2, 3, 1),
    ("random_pure", 1, 3, 1), ("random_pure", 2, 3, 1),
)
TWO_BASIS_SEARCHES = 6

DEMO_SEEDS = 3  # locking-demo runs per variant
# (kind, n, dim) of the random ensembles behind ``criteria``; random_pure with
# dim = 2^n is left out: its square-root measurement fails the Hermiticity
# check for some seeds
CRITERIA_RECIPES = (
    ("random_mixed", 1, 2), ("random_mixed", 1, 3), ("random_mixed", 2, 3),
    ("random_mixed", 2, 4), ("random_mixed", 2, 6), ("random_mixed", 3, 4),
    ("random_mixed", 3, 8),
    ("random_pure", 1, 3), ("random_pure", 2, 3),
    ("commuting_classical", 1, 2), ("commuting_classical", 2, 4),
    ("commuting_classical", 3, 8), ("spike_classical", 1, 2),
    ("spike_classical", 2, 4), ("spike_classical", 3, 8),
)
CHAINED_BITS = (3, 4, 5)
CHAIN_REPORTS = ((3, 2), (4, 2))  # (n, reports per round)
CHAIN_TRIALS = 10_000
EXTREMAL_SIZES = (10, 12, 14, 16)  # key lengths whose spike is materialized

TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output contradicts an independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One benchmark operation: ``fn(*args)``, then ``check(result)``.

    ``check`` raises ``CheckFailed`` or returns observations (bits found,
    bytes written) that the traced run averages.
    """

    label: str
    fn: Callable
    args: tuple
    check: Callable


def _seed_stream(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


# ---------------------------------------------------------------------------
# Independent reference computations
# ---------------------------------------------------------------------------

def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def reference_chi(prior: np.ndarray, matrices: np.ndarray) -> float:
    """Holevo information from numpy eigenvalues of the states."""
    def entropy(m):
        return _entropy_bits(np.clip(np.linalg.eigvalsh(m), 0.0, 1.0))

    average = np.einsum("k,kab->ab", prior, matrices)
    return entropy(average) - float(sum(w * entropy(m) for w, m in zip(prior, matrices)))


def reference_classical(prior: np.ndarray, rows: np.ndarray) -> tuple[float, float]:
    """``(d, chi)`` of diagonal states given by their diagonals."""
    average = prior @ rows
    d = float(prior @ (0.5 * np.abs(rows - average).sum(axis=1)))
    chi = _entropy_bits(average) - float(sum(w * _entropy_bits(r) for w, r in zip(prior, rows)))
    return d, chi


def check_criteria_dict(c: dict, n_bits: int, dim: int, uniform: bool) -> None:
    d = c["d"]
    if c["d_joint"] is not None:
        _require(abs(c["d_joint"] - d) <= TOL, f"d_joint {c['d_joint']} != d {d}")
    if uniform:
        _require(abs(c["d_prime"] - d) <= TOL, f"d_prime {c['d_prime']} != d {d} (uniform prior)")
    _require(-TOL <= c["delta_e"] <= d + TOL, f"delta_e {c['delta_e']} outside [0, d={d}]")
    _require(c["chi"] <= min(n_bits, math.log2(dim)) + TOL,
             f"chi {c['chi']} above min(n, log2 dim)")


# ---------------------------------------------------------------------------
# sweep: one campaign instance per operation
# ---------------------------------------------------------------------------

def sweep_op(recipe):
    return bounds.run_campaign([recipe], checks=ALL_CHECKS, accessible_restarts=0)


def check_sweep(recipe, result) -> dict:
    _require(result.hard_failures == 0, f"{result.hard_failures} proven checks failed")
    q = result.reports[0].quantities
    _require(q["i_ac_lower"] <= q["chi"] + 1e-8, f"i_ac_lower {q['i_ac_lower']} > chi {q['chi']}")
    if recipe.kind in ("commuting_classical", "spike_classical"):
        e = bounds.build_instance(recipe)
        rows = np.array([np.diagonal(s.matrix).real for s in e.states])
        d, chi = reference_classical(np.asarray(e.prior), rows)
        _require(abs(q["d"] - d) <= TOL, f"d {q['d']} != diagonal reference {d}")
        _require(abs(q["chi"] - chi) <= TOL, f"chi {q['chi']} != diagonal reference {chi}")
    if recipe.kind == "locking":
        _require(abs(q["d"] - 0.5) <= TOL and abs(q["chi"] - 1.0) <= TOL,
                 f"locking instance gives d={q['d']}, chi={q['chi']}")
    return {"bits": q["i_ac_lower"], "gain": 0.0, "gap": q["chi"] - q["i_ac_lower"]}


def _sweep_op(recipe) -> Op:
    label = f"sweep {recipe.kind} n={recipe.n_bits} d={recipe.dim} seed={recipe.seed}"
    return Op(label, sweep_op, (recipe,), lambda r: check_sweep(recipe, r))


def sweep(seed: int, workdir: str):
    base = int(_seed_stream(seed, "sweep").integers(1, 2**30))
    seeded = [r for r in bounds.default_recipes(SWEEP_ROUND, seed=base)
              if r.kind != "random_pure"]
    fixed = [r for r in bounds.default_recipes(SWEEP_ROUND, seed=FIXED_RANDOM_PURE_SEED)
             if r.kind == "random_pure"]
    faults = [bounds.default_recipes(index + 1, seed=s)[index] for s, index in KNOWN_MIN_ERROR_FAULTS]
    warmup = _sweep_op(bounds.EnsembleRecipe("random_mixed", 2, 4, 0))
    return warmup, [_sweep_op(r) for r in seeded + fixed + faults]


# ---------------------------------------------------------------------------
# search: accessible-information lower bound on small ensembles
# ---------------------------------------------------------------------------

def two_basis_ensemble():
    """DiVincenzo et al., PRL 92, 067902 at n = 1: key (basis, bit) -> BB84
    state, uniform prior.  I_acc = 1/2 while chi = 1."""
    s = 1.0 / math.sqrt(2.0)
    kets = np.array([[1.0, 0.0], [0.0, 1.0], [s, s], [s, -s]], dtype=np.complex128)
    states = tuple(np.outer(k, k.conj()) for k in kets)
    return ensembles.CQEnsemble(2, np.full(4, 0.25), states)


def search_op(make, search_seed):
    e = make()
    return e, detection.accessible_info_lower_bound(e, restarts=SEARCH_RESTARTS, seed=search_seed)


def check_search(result, analytic=None) -> dict:
    e, found = result
    matrices = np.stack([s.matrix for s in e.states])
    chi = reference_chi(np.asarray(e.prior), matrices)
    baseline = detection.accessible_info_lower_bound(e, restarts=0).bits
    _require(found.bits <= chi + 1e-8, f"bits {found.bits} above chi {chi}")
    _require(found.bits >= baseline - 1e-12, f"bits {found.bits} below restarts=0 value {baseline}")
    if analytic is not None:
        _require(abs(found.bits - analytic) <= 1e-6, f"bits {found.bits} != analytic {analytic}")
    return {"bits": found.bits, "gain": found.bits - baseline, "gap": chi - found.bits}


def search(seed: int, workdir: str):
    rng = _seed_stream(seed, "search")
    ops = []
    for kind, n_bits, dim, count in SEARCH_CLASSES:
        for _ in range(count):
            recipe = bounds.EnsembleRecipe(kind, n_bits, dim, int(rng.integers(2**31)))
            make = lambda recipe=recipe: bounds.build_instance(recipe)
            label = f"search {kind} n={n_bits} d={dim} seed={recipe.seed}"
            ops.append(Op(label, search_op, (make, int(rng.integers(2**31))), check_search))
    for _ in range(TWO_BASIS_SEARCHES):
        ops.append(Op("search two-basis n=1", search_op,
                      (two_basis_ensemble, int(rng.integers(2**31))),
                      lambda r: check_search(r, analytic=0.5)))
    warmup_recipe = bounds.EnsembleRecipe("random_mixed", 1, 2, 0)
    warmup = Op("search warm-up", search_op,
                (lambda: bounds.build_instance(warmup_recipe), 0), check_search)
    return warmup, ops


# ---------------------------------------------------------------------------
# reports: user-facing reports through cli.main and locking_report
# ---------------------------------------------------------------------------

def cli_op(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_payload(result) -> dict:
    code, out, err = result
    _require(code == 0, f"exit {code}: {err.strip()[:200]}")
    return json.loads(out)


def check_locking_demo(variant, result) -> dict:
    payload = _cli_payload(result)
    check_criteria_dict(payload["criteria"], 2, 4, uniform=True)
    kpa = payload["kpa"]
    if variant == "symmetric_corrected":
        _require(abs(payload["criteria"]["d"] - 0.5) <= TOL, f"d {payload['criteria']['d']} != 1/2")
        for bit in ("0", "1"):
            _require(kpa[bit]["empirical_success"] == 1.0,
                     f"known bit {bit}: KPA rate {kpa[bit]['empirical_success']} != 1")
    else:
        closed = kpa["0"]["closed_form_success"]
        _require(abs(closed - 7.0 / 8.0) <= 1e-12, f"closed form {closed} != 7/8")
        sigma = math.sqrt(7.0 / 8.0 * (1.0 / 8.0) / kpa["0"]["trials"])
        rate = kpa["0"]["empirical_success"]
        _require(abs(rate - 7.0 / 8.0) <= 5.0 * sigma, f"KPA rate {rate} beyond 5 sigma of 7/8")
    return {"output_bytes": len(result[1])}


def check_criteria_file(e, result) -> dict:
    payload = _cli_payload(result)
    uniform = bool(np.all(e.prior == e.prior[0]))
    check_criteria_dict(payload["criteria"], e.n_bits, e.state_dim, uniform)
    return {"output_bytes": len(result[1])}


def check_extremal(kind, n_bits, exponent, result) -> dict:
    payload = _cli_payload(result)
    p = np.array(payload["resulting_distribution"])
    _require(p.size == 2**n_bits, f"distribution has {p.size} entries, expected 2^{n_bits}")
    if kind == "variational_distance":
        value = 0.5 * float(np.abs(p - 2.0**-n_bits).sum())
    else:
        value = n_bits - _entropy_bits(p)
    _require(abs(value - 2.0**-exponent) <= TOL, f"{kind} {value} != 2^-{exponent}")
    return {"output_bytes": len(result[1])}


def check_malformed(result) -> dict:
    code, out, err = result
    _require(code == 1 and "qseclab: error:" in err, f"exit {code} without a qseclab error line")
    return {"output_bytes": len(out)}


def chained_report_op(n_bits, seed):
    le = locking.build_chained_locking_ensemble(n_bits)
    return locking.locking_report(le, trials=CHAIN_TRIALS, seed=seed)


def check_chained_report(n_bits, report) -> dict:
    check_criteria_dict(report.criteria.to_dict(), n_bits, 2**n_bits, uniform=True)
    for bit, kpa in report.kpa.items():
        _require(kpa.success_rate == 1.0 and kpa.closed_form_success == 1.0,
                 f"chained KPA, known bit {bit}: rate {kpa.success_rate}, "
                 f"closed form {kpa.closed_form_success}")
    return {}


def _report_ensembles(rng):
    """Ensembles written to disk for the ``criteria`` command."""
    out = []
    for kind, n_bits, dim in CRITERIA_RECIPES:
        recipe = bounds.EnsembleRecipe(kind, n_bits, dim, int(rng.integers(2**31)))
        out.append((f"{kind} n={n_bits} d={dim}", bounds.build_instance(recipe)))
    for n_bits in CHAINED_BITS:
        out.append((f"chained n={n_bits}", locking.build_chained_locking_ensemble(n_bits).ensemble))
    for variant in locking.VARIANTS:
        out.append((f"locking {variant}", locking.build_locking_ensemble(variant).ensemble))
    return out


def reports(seed: int, workdir: str):
    rng = _seed_stream(seed, "reports")
    ops = []
    for variant in locking.VARIANTS:
        for _ in range(DEMO_SEEDS):
            argv = ["locking-demo", "--variant", variant, "--seed", str(int(rng.integers(2**31)))]
            ops.append(Op(f"reports locking-demo {variant}", cli_op, (argv,),
                          lambda r, variant=variant: check_locking_demo(variant, r)))
    for i, (label, e) in enumerate(_report_ensembles(rng)):
        path = os.path.join(workdir, f"ensemble_{i}.json")
        ensembles.save_ensemble(e, path)
        ops.append(Op(f"reports criteria {label}", cli_op, (["criteria", path],),
                      lambda r, e=e: check_criteria_file(e, r)))
    for n_bits in EXTREMAL_SIZES:
        for kind, flag in (("variational_distance", "--l"), ("mutual_information", "--l-prime")):
            exponent = round(float(rng.uniform(2.0, 12.0)), 3)
            argv = ["extremal", "--kind", kind, "--n", str(n_bits), flag, str(exponent)]
            ops.append(Op(f"reports extremal {kind} n={n_bits}", cli_op, (argv,),
                          lambda r, k=kind, n=n_bits, x=exponent: check_extremal(k, n, x, r)))
    for n_bits, count in CHAIN_REPORTS:
        for _ in range(count):
            ops.append(Op(f"reports locking_report chained n={n_bits}", chained_report_op,
                          (n_bits, int(rng.integers(2**31))),
                          lambda r, n=n_bits: check_chained_report(n, r)))
    # each should end in exit 1 with a qseclab error line; today each raises
    bad_states = os.path.join(workdir, "states_not_a_list.json")
    with open(bad_states, "w", encoding="utf-8") as fh:
        json.dump({"n": 1, "prior": [0.5, 0.5], "states": 3}, fh)
    for label, argv in (
        ("criteria on a missing file", ["criteria", os.path.join(workdir, "missing.json")]),
        ("criteria with states not a list", ["criteria", bad_states]),
        ("extremal n=2000", ["extremal", "--kind", "variational_distance", "--n", "2000", "--l", "3"]),
        ("bounds-sweep --max-dim 1", ["bounds-sweep", "--max-dim", "1"]),
    ):
        ops.append(Op(f"reports malformed: {label}", cli_op, (argv,), check_malformed))
    warmup = Op("reports warm-up", cli_op, (["locking-demo"],),
                lambda r: check_locking_demo("symmetric_corrected", r))
    return warmup, ops


WORKLOADS = {"sweep": sweep, "search": search, "reports": reports}
# calibration kernel per workload: the one that slows down as its operations do
CALIBRATION = {"sweep": "scalar_search", "search": "scalar_search", "reports": "eigensolves"}
