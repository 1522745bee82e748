"""Randomized verification campaigns for the inequalities tying the
criteria together.

Checks, named by content:

* ``pinsker``: twice the squared joint-vs-product variational distance is
  at most the mutual information in bits (checked on classical joints,
  and on the joint induced by the square-root measurement inside
  ensemble campaigns: that joint and its information are computed once
  per ensemble, shared with the search's candidates and the criteria,
  and, being derived from a validated ensemble, not validated again).
* ``quantum_pinsker``: twice the squared trace criterion is at most the
  Holevo information.
* ``chi_two_sided``: the Holevo information is sandwiched between twice
  the squared criterion and ``8 d n + 2 h(2d)``.
* ``accessible_info``: twice the squared criterion is at most 2^n times
  the extractable information; verified a fortiori through a lower bound,
  so the verdict is pass or inconclusive, never fail.
* ``holevo_consistency``: the searched information lower bound never
  exceeds the Holevo information (a fail flags an implementation bug).
* ``exponent_relation``: with d = 2^-l and chi = 2^-l'', the exponents
  satisfy l - log2 n - 4 <= l'' <= 2 l when both are in scope.

The first three are proven statements, so on validated inputs any fail
verdict from them means the implementation broke, which makes these
campaigns usable as a standing regression gate.  Campaigns are
deterministic functions of their recipes and seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import detection, distributions as dist, ensembles as ens, locking
from .errors import OutOfScopeError, ValidationError
from .operators import MAX_DIM, _rank_one

CLASSICAL_TOL = 1e-10
OPERATOR_TOL = 1e-9

RECIPE_KINDS = ("random_mixed", "random_pure", "commuting_classical", "locking", "spike_classical")
ALL_CHECKS = (
    "pinsker", "quantum_pinsker", "chi_two_sided",
    "accessible_info", "holevo_consistency", "exponent_relation",
)
PROVEN_CHECKS = ("pinsker", "quantum_pinsker", "chi_two_sided", "holevo_consistency")
DEFAULT_CHECKS = ("pinsker", "quantum_pinsker", "chi_two_sided", "exponent_relation")
VERDICTS = ("pass", "fail", "inconclusive", "not_applicable")


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

def _random_pure_stack(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Projectors onto ``count`` spherically symmetric random complex vectors."""
    g = rng.standard_normal((count, 2, dim))
    v = g[:, 0] + 1j * g[:, 1]
    norms = np.array([np.vdot(x, x).real for x in v])
    return _rank_one(v) / norms[:, None, None]


def _random_mixed_stack(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` reduced states of random pure states on the squared dimension."""
    g = rng.standard_normal((count, 2, dim, dim))
    m = g[:, 0] + 1j * g[:, 1]
    rho = m @ np.conj(np.swapaxes(m, -1, -2))
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def _random_prior(n_keys: int, rng: np.random.Generator) -> np.ndarray:
    if rng.random() < 0.5:
        return np.full(n_keys, 1.0 / n_keys)
    w = rng.exponential(size=n_keys) + 1e-6
    return w / w.sum()


@dataclass(frozen=True)
class EnsembleRecipe:
    """Fully deterministic description of one campaign instance.

    Only recipes that :func:`build_instance` honours are accepted: a
    ``locking`` recipe is the 2-bit ensemble of dimension 4, a
    ``spike_classical`` one has dimension 2^n, and no stack has more than
    ``dist.MAX_DENSE_SIZE`` entries 2^n d^2.
    """

    kind: str
    n_bits: int
    dim: int
    seed: int

    def __post_init__(self):
        if self.kind not in RECIPE_KINDS:
            raise ValidationError(f"unknown recipe kind {self.kind!r}")
        # refused here, before build_instance makes 2^n states
        if not 0 <= self.n_bits <= ens.MAX_KEY_BITS:
            raise ValidationError(f"key length {self.n_bits} outside [0, {ens.MAX_KEY_BITS}]")
        if not 1 <= self.dim <= MAX_DIM:
            raise ValidationError(f"dimension {self.dim} outside [1, {MAX_DIM}]")
        if self.kind == "locking" and (self.n_bits, self.dim) != (2, 4):
            raise ValidationError(f"a locking recipe has n = 2 and dimension 4, "
                                  f"not n = {self.n_bits} and dimension {self.dim}")
        if self.kind == "spike_classical" and self.dim != 2**self.n_bits:
            raise ValidationError(f"a spike_classical recipe has dimension 2^n = "
                                  f"{2**self.n_bits}, not {self.dim}")
        entries = 2**self.n_bits * self.dim**2
        if entries > dist.MAX_DENSE_SIZE:
            raise ValidationError(f"a stack of 2^{self.n_bits} states of dimension {self.dim} "
                                  f"has {entries} entries, above the cap {dist.MAX_DENSE_SIZE}")

    def to_dict(self) -> dict:
        return asdict(self)


def build_instance(recipe: EnsembleRecipe) -> ens.CQEnsemble:
    """Materialize the ensemble a recipe describes."""
    rng = np.random.default_rng(recipe.seed)
    n_keys = 2**recipe.n_bits
    if recipe.kind == "locking":
        return locking.build_locking_ensemble("symmetric_corrected").ensemble
    if recipe.kind in ("random_mixed", "random_pure"):
        draw = _random_mixed_stack if recipe.kind == "random_mixed" else _random_pure_stack
        stack = draw(n_keys, recipe.dim, rng)
        return ens.CQEnsemble(recipe.n_bits, _random_prior(n_keys, rng), stack)
    if recipe.kind == "commuting_classical":
        rows = rng.exponential(size=(n_keys, recipe.dim))
        rows /= rows.sum(axis=1, keepdims=True)
        return ens.CQEnsemble(recipe.n_bits, _random_prior(n_keys, rng), _diagonal_stack(rows))
    if recipe.kind == "spike_classical":
        # circulant shifts of a spike-shaped row: a classical channel whose
        # posteriors are spike distributions
        spike_mass = float(rng.uniform(1.0 / n_keys, 1.0))
        row = np.full(n_keys, (1.0 - spike_mass) / max(n_keys - 1, 1))
        row[0] = spike_mass
        keys = np.arange(n_keys)
        rows = row[(keys[None, :] - keys[:, None]) % n_keys]  # row k is row shifted by k
        prior = ens.uniform_prior(recipe.n_bits)
        return ens.CQEnsemble(recipe.n_bits, prior, _diagonal_stack(rows))
    raise ValidationError(f"unknown recipe kind {recipe.kind!r}")


def _diagonal_stack(rows: np.ndarray) -> np.ndarray:
    """The diagonal matrices with the given rows as diagonals."""
    count, dim = rows.shape
    stack = np.zeros((count, dim, dim), dtype=np.complex128)
    stack[:, np.arange(dim), np.arange(dim)] = rows
    return stack


def default_recipes(count: int, seed: int = 0, max_n: int = 3, max_dim: int = 8,
                    kinds: tuple[str, ...] = RECIPE_KINDS) -> tuple[EnsembleRecipe, ...]:
    """A deterministic mix of recipe kinds and sizes.

    Uses a seed-prefix scheme: the first k recipes of a longer list equal
    the shorter list, so worst-case margins are monotone in the count.
    """
    if max_dim < 2:
        raise ValidationError(f"max_dim must be at least 2, got {max_dim}")
    recipes = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        n_bits = 1 + (i // len(kinds)) % max_n
        if kind in ("commuting_classical", "spike_classical", "locking"):
            dim = 2**n_bits
        else:
            dim = 2 + (i // (len(kinds) * max_n)) % (max_dim - 1)
        if kind == "locking":
            n_bits, dim = 2, 4
        recipes.append(EnsembleRecipe(kind=kind, n_bits=n_bits, dim=dim, seed=seed + i))
    return tuple(recipes)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str
    margin: float | None
    extras: dict = field(default_factory=dict)
    note: str = ""

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValidationError(f"unknown verdict {self.verdict!r}")


def check_pinsker(joint) -> CheckResult:
    """2 delta^2 <= I(K; Y) in bits, for a 2-D classical joint distribution.

    The stated constant is loose in bits; the tight-constant margin
    ``I - (2/ln 2) delta^2`` is recorded alongside for auditability.
    """
    j = np.asarray(joint, dtype=np.float64)
    return _pinsker(j, dist.mutual_information(j))


def _pinsker(joint: np.ndarray, info: float) -> CheckResult:
    """:func:`check_pinsker` of a joint whose information in bits is known."""
    delta = dist._variational(joint, np.outer(joint.sum(axis=1), joint.sum(axis=0)))
    margin = info - 2.0 * delta * delta
    tight_margin = info - (2.0 / math.log(2.0)) * delta * delta
    return CheckResult(
        name="pinsker",
        verdict="pass" if margin >= -CLASSICAL_TOL else "fail",
        margin=margin,
        extras={"delta": delta, "mutual_information": info, "tight_margin": tight_margin},
    )


def check_quantum_pinsker(d: float, chi: float) -> CheckResult:
    """2 d^2 <= chi, with d the per-key average criterion."""
    margin = chi - 2.0 * d * d
    return CheckResult(
        name="quantum_pinsker",
        verdict="pass" if margin >= -OPERATOR_TOL else "fail",
        margin=margin,
        extras={"d": d, "chi": chi},
    )


def check_chi_two_sided(d: float, chi: float, n_bits: int) -> CheckResult:
    """2 d^2 <= chi <= 8 d n + 2 h(2d); the upper side needs 2d <= 1."""
    lower_margin = chi - 2.0 * d * d
    extras: dict = {"d": d, "chi": chi, "lower_margin": lower_margin}
    note = ""
    if 2.0 * d <= 1.0 + 1e-12:
        upper = 8.0 * d * n_bits + 2.0 * dist.binary_entropy(min(2.0 * d, 1.0))
        upper_margin = upper - chi
        extras["upper_margin"] = upper_margin
        worst = min(lower_margin, upper_margin)
    else:
        extras["upper_margin"] = None
        note = "upper side not applicable (2d > 1)"
        worst = lower_margin
    return CheckResult(
        name="chi_two_sided",
        verdict="pass" if worst >= -OPERATOR_TOL else "fail",
        margin=worst,
        extras=extras,
        note=note,
    )


def check_accessible_info(
    e: ens.CQEnsemble, d: float, chi: float, restarts: int = 0, seed: int = 0
) -> tuple[CheckResult, CheckResult]:
    """2 d^2 <= 2^n I_ac, tested a fortiori through a lower bound on I_ac.

    If the inequality already holds with the searched lower bound, the
    true statement holds; otherwise the verdict is inconclusive, never
    fail, because the search may simply have undershot.  A companion
    result asserts the lower bound respects the Holevo ceiling.
    """
    info = detection.accessible_info_lower_bound(e, restarts=restarts, seed=seed)
    scaled = (2.0**e.n_bits) * info.bits
    margin = scaled - 2.0 * d * d
    budget = f"restarts={restarts}, seed={seed}"
    extras = {"d": d, "i_ac_lower": info.bits, "scaled_lower": scaled, "chi": chi}
    if margin >= -OPERATOR_TOL:
        main = CheckResult("accessible_info", "pass", margin, extras,
                           note=f"verified a fortiori via lower bound ({budget})")
    else:
        main = CheckResult(
            "accessible_info", "inconclusive", margin, extras,
            note=(f"lower bound too small to decide ({budget}); no fail path exists "
                  "since the bound underestimates the maximum"),
        )
    holevo_margin = chi - info.bits
    companion = CheckResult(
        name="holevo_consistency",
        verdict="pass" if holevo_margin >= -1e-8 else "fail",
        margin=holevo_margin,
        extras={"i_ac_lower": info.bits, "chi": chi},
    )
    return main, companion


def check_exponent_relation(d_value: float, chi_value: float, n_bits: int) -> CheckResult:
    """l - log2 n - 4 <= l'' <= 2 l for d = 2^-l, chi = 2^-l''.

    Raises ``OutOfScopeError`` when either quantity leaves (0, 1], an
    exponent is negative, or n < l; campaigns record that as
    not-applicable rather than a failure.
    """
    if not (0.0 < d_value <= 1.0) or not (0.0 < chi_value <= 1.0):
        raise OutOfScopeError(
            f"d = {d_value!r} and chi = {chi_value!r} must lie in (0, 1]"
        )
    l = -math.log2(d_value)
    l2 = -math.log2(chi_value)
    if l < 0.0 or l2 < 0.0:
        raise OutOfScopeError(f"exponents l = {l}, l'' = {l2} must be nonnegative")
    if n_bits < l:
        raise OutOfScopeError(f"n = {n_bits} below l = {l}")
    lower_margin = l2 - (l - math.log2(n_bits) - 4.0)
    upper_margin = 2.0 * l - l2
    margin = min(lower_margin, upper_margin)
    return CheckResult(
        name="exponent_relation",
        verdict="pass" if margin >= -1e-9 else "fail",
        margin=margin,
        extras={"l": l, "l_double_prime": l2, "lower_margin": lower_margin,
                "upper_margin": upper_margin},
        note="near boundary" if margin < 0.5 else "",
    )


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """All quantities and verdicts for one campaign instance."""

    instance_id: int
    recipe: EnsembleRecipe
    quantities: dict
    checks: dict

    def to_flat_dict(self) -> dict:
        out = {"instance_id": self.instance_id}
        out.update(self.recipe.to_dict())
        out.update({k: v for k, v in sorted(self.quantities.items())})
        for name in sorted(self.checks):
            result = self.checks[name]
            out[f"{name}_verdict"] = result.verdict
            out[f"{name}_margin"] = result.margin
            if result.note:
                out[f"{name}_note"] = result.note
        return out


@dataclass(frozen=True)
class CampaignResult:
    reports: tuple[BoundsReport, ...]
    summary: dict

    @property
    def hard_failures(self) -> int:
        return sum(
            1
            for report in self.reports
            for name, result in report.checks.items()
            if name in PROVEN_CHECKS and result.verdict == "fail"
        )


def _summarize(reports) -> dict:
    summary: dict = {}
    for report in reports:
        for name, result in report.checks.items():
            entry = summary.setdefault(
                name,
                {"pass": 0, "fail": 0, "inconclusive": 0, "not_applicable": 0,
                 "worst_margin": None},
            )
            entry[result.verdict] += 1
            if result.margin is not None:
                worst = entry["worst_margin"]
                entry["worst_margin"] = result.margin if worst is None else min(worst, result.margin)
    return summary


def run_campaign(
    recipes,
    checks=DEFAULT_CHECKS,
    seed: int = 0,
    accessible_restarts: int = 0,
) -> CampaignResult:
    """Evaluate the requested checks on every recipe instance.

    Deterministic given (recipes, checks, seed): instance randomness comes
    from each recipe's own seed, search randomness from the campaign seed
    and the instance id.  Aggregation is a commutative merge of counts and
    minima, so report order is by instance id.  A NaN or infinite margin
    decides nothing: it is a fail for a proven check and inconclusive for
    any other, noted ``non-finite margin``.
    """
    checks = tuple(checks)
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise ValidationError(f"unknown checks {sorted(unknown)}")
    reports = []
    for instance_id, recipe in enumerate(recipes):
        e = build_instance(recipe)
        quantities, results = _instance_checks(e, checks, accessible_restarts,
                                               seed * 1_000_003 + instance_id)
        reports.append(BoundsReport(instance_id, recipe, quantities, results))
    return CampaignResult(reports=tuple(reports), summary=_summarize(reports))


def _instance_checks(e: ens.CQEnsemble, checks, accessible_restarts: int,
                     search_seed: int) -> tuple[dict, dict]:
    """The quantities and check results of one campaign instance."""
    d = ens.mean_conditional_distance(e)
    chi = ens.holevo_information(e)
    quantities = {"d": d, "chi": chi, "n_bits": e.n_bits, "state_dim": e.state_dim}
    results: dict = {}
    if "pinsker" in checks:
        result = _pinsker(*detection._srm_joint(e))
        results["pinsker"] = result
        quantities["delta"] = result.extras["delta"]
        quantities["mutual_information"] = result.extras["mutual_information"]
        quantities["pinsker_tight_margin"] = result.extras["tight_margin"]
    if "quantum_pinsker" in checks:
        results["quantum_pinsker"] = check_quantum_pinsker(d, chi)
    if "chi_two_sided" in checks:
        results["chi_two_sided"] = check_chi_two_sided(d, chi, e.n_bits)
    if "accessible_info" in checks or "holevo_consistency" in checks:
        main, companion = check_accessible_info(e, d, chi, accessible_restarts, search_seed)
        if "accessible_info" in checks:
            results["accessible_info"] = main
        if "holevo_consistency" in checks:
            results["holevo_consistency"] = companion
        quantities["i_ac_lower"] = main.extras["i_ac_lower"]
    if "exponent_relation" in checks:
        try:
            results["exponent_relation"] = check_exponent_relation(d, chi, e.n_bits)
        except OutOfScopeError as exc:
            results["exponent_relation"] = CheckResult(
                "exponent_relation", "not_applicable", None, note=str(exc)
            )
    for name, result in results.items():
        if result.margin is not None and not math.isfinite(result.margin):
            verdict = "fail" if name in PROVEN_CHECKS else "inconclusive"
            results[name] = replace(result, verdict=verdict, note="non-finite margin")
    return quantities, results
