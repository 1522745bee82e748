"""Tests for the command-line front end."""

import contextlib
import csv
import enum
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qseclab import bounds, cli, detection, distributions, ensembles, locking, operators as ops
from qseclab.bounds import _random_mixed_stack
from qseclab.errors import Error


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLockingDemo:
    def test_default_report_contents(self, capsys):
        code, out, _ = run_cli(capsys, ["locking-demo", "--trials", "500"])
        assert code == 0
        report = json.loads(out)
        assert report["tool"] == "qseclab"
        assert report["variant"] == "symmetric_corrected"
        assert report["seed"] == 0
        assert report["ideal_reference_mean"] == pytest.approx(0.5, abs=1e-10)
        assert report["half_plus_ideal"] == pytest.approx(1.0, abs=1e-10)
        assert report["kpa"]["0"]["closed_form_success"] == 1.0
        assert report["kpa"]["1"]["empirical_success"] == 1.0
        assert report["criteria"]["d"] < 1.0

    def test_zero_trials_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["locking-demo", "--trials", "0"])
        assert info.value.code == 2

    def test_identical_seeds_identical_bytes(self, capsys):
        argv = ["locking-demo", "--trials", "200", "--seed", "9"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_as_printed_variant_labeled(self, capsys):
        code, out, _ = run_cli(
            capsys, ["locking-demo", "--variant", "as_printed", "--trials", "200"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["variant"] == "as_printed"
        assert report["kpa"]["1"]["closed_form_success"] == 1.0
        assert report["kpa"]["0"]["closed_form_success"] == pytest.approx(7 / 8)

    def test_emitted_ensemble_round_trips_to_same_criteria(self, capsys, tmp_path):
        path = tmp_path / "emitted.json"
        code, out, _ = run_cli(
            capsys,
            ["locking-demo", "--trials", "100", "--emit-ensemble", str(path)],
        )
        assert code == 0
        demo = json.loads(out)
        code, out, _ = run_cli(capsys, ["criteria", str(path)])
        assert code == 0
        criteria = json.loads(out)["criteria"]
        for field in ("d", "d_joint", "d_prime", "chi"):
            assert criteria[field] == pytest.approx(demo["criteria"][field], abs=1e-12)


class TestCriteria:
    @pytest.fixture()
    def ensemble_file(self, tmp_path):
        le = locking.build_locking_ensemble("symmetric_corrected")
        path = tmp_path / "ensemble.json"
        ensembles.save_ensemble(le.ensemble, path)
        return path

    def test_round_trip_matches_direct_evaluation(self, capsys, ensemble_file):
        code, out, _ = run_cli(capsys, ["criteria", str(ensemble_file)])
        assert code == 0
        report = json.loads(out)
        direct = detection.criteria_record(
            ensembles.load_ensemble(ensemble_file)
        )
        assert report["criteria"]["d"] == pytest.approx(direct.d, abs=1e-12)
        assert report["criteria"]["chi"] == pytest.approx(direct.chi, abs=1e-12)
        assert report["forms_agreement_residual"] <= 1e-9
        assert report["ideal_reference_mean"] == pytest.approx(0.5, abs=1e-10)

    def test_all_equal_states_zero_criteria(self, capsys, tmp_path):
        state = ops.matrix_to_pairs(np.eye(2) / 2)
        record = {"n": 1, "prior": [0.5, 0.5], "states": [state, state]}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(record))
        code, out, _ = run_cli(capsys, ["criteria", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["criteria"]["d"] == pytest.approx(0.0, abs=1e-12)
        assert report["criteria"]["chi"] == pytest.approx(0.0, abs=1e-12)
        assert report["criteria"]["d_prime"] == pytest.approx(0.0, abs=1e-12)

    def test_malformed_state_names_index(self, capsys, tmp_path):
        state = ops.matrix_to_pairs(np.eye(2) / 2)
        bad = ops.matrix_to_pairs(np.diag([0.45, 0.45]))
        record = {"n": 1, "prior": [0.5, 0.5], "states": [state, bad]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        code, _, err = run_cli(capsys, ["criteria", str(path)])
        assert code == 1
        assert "state 1" in err

    @pytest.mark.parametrize("prior", [[True, False], ["0.5", "0.5"], [[0.5], [0.5]]],
                             ids=["bools", "strings", "nested"])
    def test_prior_of_non_numbers_is_refused(self, capsys, tmp_path, prior):
        state = ops.matrix_to_pairs(np.eye(2) / 2)
        record = {"n": 1, "prior": prior, "states": [state, state]}
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(record))
        code, out, err = run_cli(capsys, ["criteria", str(path)])
        assert (code, out) == (1, "")
        assert err == 'qseclab: error: "prior" must be a list of numbers\n'

    @pytest.mark.parametrize("bad, names", [
        ([[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]], "str"),
        ([[[True, 0], [0, 0]], [[0, 0], [False, 0]]], "bool"),
        ([[["0.5", 0], [0, False]], [[0, False], [0.5, 0]]], "bool, str"),
    ], ids=["string", "true-false", "both"])
    def test_state_entries_of_non_numbers_are_refused(self, capsys, tmp_path, bad, names):
        # numpy alone reads "0.5" as 0.5 and true, false as 1, 0: a valid state
        state = ops.matrix_to_pairs(np.eye(2) / 2)
        path = tmp_path / "entries.json"
        path.write_text(json.dumps({"n": 1, "prior": [0.5, 0.5], "states": [state, bad]}))
        assert run_cli(capsys, ["criteria", str(path)]) == (
            1, "", f"qseclab: error: state 1: matrix entries must be numbers, got {names}\n")

    def test_state_above_the_dimension_cap_is_named(self, capsys, tmp_path):
        over = ops.MAX_DIM + 1
        record = {"n": 0, "prior": [1.0], "states": [ops.matrix_to_pairs(np.eye(over) / over)]}
        path = tmp_path / "over_cap.json"
        path.write_text(json.dumps(record))
        assert run_cli(capsys, ["criteria", str(path)]) == (
            1, "", f"qseclab: error: state 0: dimension {over} outside supported range "
                   f"[1, {ops.MAX_DIM}]\n")

    def test_prior_round_off_below_zero_gives_a_report(self, capsys, tmp_path):
        zero = ops.matrix_to_pairs(np.diag([1.0, 0.0]))
        one = ops.matrix_to_pairs(np.diag([0.0, 1.0]))
        record = {"n": 1, "prior": [1.0 + 5e-11, -5e-11], "states": [zero, one]}
        path = tmp_path / "round_off.json"
        path.write_text(json.dumps(record))
        code, out, err = run_cli(capsys, ["criteria", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out)["criteria"]["chi"] == pytest.approx(0.0, abs=1e-9)

    def test_prior_short_of_one_gives_the_joint_form(self, capsys, tmp_path):
        # the prior is accepted 9e-11 short of one; key register x average
        # then has trace 0.99999999982, outside the state tolerance
        half = np.full((2, 2), 0.5)
        states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), half, half * [[1, -1], [-1, 1]]]
        record = {"n": 2, "prior": [0.25, 0.25, 0.25, 0.25 - 9e-11],
                  "states": [ops.matrix_to_pairs(s) for s in states]}
        path = tmp_path / "prior_edge.json"
        path.write_text(json.dumps(record))
        code, out, err = run_cli(capsys, ["criteria", str(path)])
        assert (code, err) == (0, "")
        report = json.loads(out)["criteria"]
        assert report["d_joint"] == report["d"] == pytest.approx(0.5 - 4.5e-11, abs=1e-15)

    @pytest.mark.parametrize("n_bits, dim", [(2, 4), (1, 2)])
    def test_prior_and_traces_past_one_give_a_report(self, capsys, tmp_path, n_bits, dim):
        # prior and traces each 9e-11 past one pass the input checks; the
        # average state then has trace about 1 + 1.8e-10, so it is not re-checked
        n_keys = 2**n_bits
        states = _random_mixed_stack(n_keys, dim, np.random.default_rng(5)) * (1.0 + 9e-11)
        record = {"n": n_bits, "prior": [1.0 / n_keys + 9e-11 / n_keys] * n_keys,
                  "states": ops.matrix_to_pairs(states)}
        path = tmp_path / "trace_edge.json"
        path.write_text(json.dumps(record))
        code, out, err = run_cli(capsys, ["criteria", str(path)])
        assert (code, err) == (0, "")
        report = json.loads(out)["criteria"]
        assert report["d_joint"] == pytest.approx(report["d"], abs=1e-12)

    def test_eigenvalues_at_the_positivity_tolerance_give_a_report(self, capsys, tmp_path):
        # each state's smallest eigenvalue set to -9e-11 passes the input
        # checks; the square-root measurement's elements carry it, scaled
        # past -1e-10 by the inverse square root of the average state
        stack = _random_mixed_stack(8, 8, np.random.default_rng(0))
        vals, vecs = np.linalg.eigh(stack)
        vals[:, 0] = -9e-11
        vals /= vals.sum(axis=1, keepdims=True)
        states = (vecs * vals[:, None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
        record = {"n": 3, "prior": [0.125] * 8, "states": ops.matrix_to_pairs(states)}
        path = tmp_path / "eigenvalue_edge.json"
        path.write_text(json.dumps(record))
        code, out, err = run_cli(capsys, ["criteria", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out)["criteria"]["d_joint"] is not None  # 2^n d at the joint cap

    @pytest.mark.parametrize("dim", [2, 8, 64])
    @pytest.mark.parametrize("n_bits", [0, 1, 2])
    def test_prior_past_one_on_identical_states_gives_a_report(self, capsys, tmp_path,
                                                               n_bits, dim):
        # a prior accepted 9e-11 past one shifts chi by -9e-11 / ln 2, which
        # is -1.3e-10; the Holevo information of identical states is 0
        n_keys = 2**n_bits
        states = np.broadcast_to(np.eye(dim) / dim, (n_keys, dim, dim))
        record = {"n": n_bits, "prior": [(1.0 + 9e-11) / n_keys] * n_keys,
                  "states": ops.matrix_to_pairs(states)}
        path = tmp_path / "holevo_edge.json"
        path.write_text(json.dumps(record))
        code, out, err = run_cli(capsys, ["criteria", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out)["criteria"]["chi"] == 0.0

    def test_skewed_prior_ensemble(self, capsys, tmp_path):
        zero = ops.matrix_to_pairs(np.diag([1.0, 0.0]))
        one = ops.matrix_to_pairs(np.diag([0.0, 1.0]))
        record = {"n": 1, "prior": [0.9, 0.1], "states": [zero, one]}
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(record))
        code, out, _ = run_cli(capsys, ["criteria", str(path)])
        assert code == 0
        report = json.loads(out)["criteria"]
        # weighted form differs from the mean form away from uniform priors
        assert abs(report["d_prime"] - report["d"]) > 1e-3
        assert 0.0 <= report["d_prime"] <= 1.0
        assert 0.0 <= report["chi"] <= 1.0

    @pytest.mark.parametrize("n_bits", [8, 9])
    def test_more_keys_than_a_measurement_may_have_are_refused(self, capsys, tmp_path, n_bits):
        # the measured criteria build a 2^n-outcome measurement, capped at 256 outcomes
        path = tmp_path / "many_keys.json"
        e = bounds.build_instance(bounds.EnsembleRecipe("random_mixed", n_bits, 2, 0))
        ensembles.save_ensemble(e, path)
        code, out, err = run_cli(capsys, ["criteria", str(path)])
        if n_bits == 8:
            assert code == 0 and json.loads(out)["n_bits"] == 8
        else:
            assert (code, out) == (1, "")
            assert err == "qseclab: error: 512 keys exceed the 256-outcome cap of a measurement\n"

    def test_text_format_renders(self, capsys):
        code, out, _ = run_cli(
            capsys, ["locking-demo", "--trials", "100", "--format", "text"]
        )
        assert code == 0
        assert "half_plus_ideal: 0.9999999999999999" in out or "half_plus_ideal: 1" in out
        code, out, _ = run_cli(
            capsys, ["bounds-sweep", "--count", "2", "--format", "text"]
        )
        assert code == 0
        assert "summary:" in out
        assert "hard_failures: 0" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["criteria", "{tmp}/missing.json"],
        ["criteria", "{tmp}/states_not_a_list.json"],
        ["criteria", "{tmp}/not_utf8.json"],
        ["extremal", "--kind", "variational_distance", "--n", "2000", "--l", "3"],
        ["bounds-sweep", "--max-dim", "1"],
        ["criteria", "{tmp}/prior_sums_to_1_4.json"],
        ["criteria", "{tmp}/n_1e400.json"],
        ["criteria", "{tmp}/deeply_nested.json"],
        ["criteria", "{tmp}/n_1e12.json"],
        ["criteria", "{tmp}/n_5001_digits.json"],
        ["criteria", "{tmp}/n_1_9.json"],
        ["criteria", "{tmp}/n_true.json"],
        ["criteria", "{tmp}/n_string.json"],
        ["extremal", "--kind", "mutual_information", "--n", "3", "--l-prime", "1100"],
        ["extremal", "--kind", "mutual_information", "--n", "3", "--l-prime", "inf"],
        ["extremal", "--kind", "mutual_information", "--n", "3", "--l-prime", "100"],
        ["extremal", "--kind", "variational_distance", "--n", "3", "--l", "1100"],
        ["extremal", "--kind", "variational_distance", "--n", "3", "--l", "inf"],
        ["extremal", "--kind", "variational_distance", "--n", "4", "--l", "60"],
        ["locking-demo", "--trials", "10", "--out", "{tmp}/missing_dir/x.json"],
        ["locking-demo", "--trials", "10", "--emit-ensemble", "{tmp}/missing_dir/x.json"],
        ["locking-demo", "--trials", "10000001"],
        ["bounds-sweep", "--count", "25", "--max-n", "25", "--kinds", "random_mixed"],
        ["bounds-sweep", "--count", "24", "--max-n", "24", "--kinds", "random_mixed",
         "--checks", "quantum_pinsker"],
    ],
    ids=["missing-file", "states-not-a-list", "not-utf8", "extremal-n-2000", "max-dim-1",
         "prior-sum-1.4", "n-1e400", "deeply-nested", "n-1e12", "n-5001-digits",
         "n-1.9", "n-true", "n-string", "l-prime-1100", "l-prime-inf",
         "l-prime-100-unresolvable", "l-1100", "l-inf", "l-60-unresolvable",
         "out-in-missing-dir", "emit-ensemble-in-missing-dir", "trials-above-cap",
         "key-length-above-cap", "stack-above-dense-cap"],
)
def test_bad_input_is_a_clean_error(capsys, tmp_path, argv):
    (tmp_path / "states_not_a_list.json").write_text(
        json.dumps({"n": 1, "prior": [0.5, 0.5], "states": 3})
    )
    mixed = ensembles.ensemble_to_dict(
        ensembles.CQEnsemble(1, [0.5, 0.5], (np.eye(2) / 2, np.eye(2) / 2))
    )
    (tmp_path / "prior_sums_to_1_4.json").write_text(json.dumps({**mixed, "prior": [0.7, 0.7]}))
    # json reads 1e400 as inf, a float
    (tmp_path / "n_1e400.json").write_text(json.dumps(mixed).replace('"n": 1', '"n": 1e400'))
    (tmp_path / "n_1_9.json").write_text(json.dumps({**mixed, "n": 1.9}))
    (tmp_path / "n_true.json").write_text(json.dumps({**mixed, "n": True}))
    (tmp_path / "n_string.json").write_text(json.dumps({**mixed, "n": "1"}))
    (tmp_path / "deeply_nested.json").write_text("[" * 100_000 + "]" * 100_000)
    (tmp_path / "n_1e12.json").write_text(json.dumps({**mixed, "n": 10**12}))
    (tmp_path / "n_5001_digits.json").write_text(
        json.dumps(mixed).replace('"n": 1', '"n": 1' + "0" * 5000)
    )
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(capsys, [arg.format(tmp=tmp_path) for arg in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("qseclab: error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds-sweep", "--count", "1", "--seed", "-1"],
        ["locking-demo", "--seed", "-5"],
        ["bounds-sweep", "--count", "1", "--restarts", "-3"],
    ],
    ids=["sweep-seed", "demo-seed", "restarts"],
)
def test_negative_seed_or_restarts_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert "must be at least 0" in capsys.readouterr().err


class TestParserReuse:
    """``main`` builds its parser once per process; reusing it changes no output."""

    SUCCESSES = [
        ["locking-demo", "--trials", "50", "--format", "text"],
        ["extremal", "--kind", "variational_distance", "--n", "2", "--l", "1"],
        ["bounds-sweep", "--count", "1", "--checks", "pinsker", "--format", "csv"],
    ]

    def test_parser_is_built_at_most_once(self, capsys):
        cli.build_parser.cache_clear()
        for argv in self.SUCCESSES:
            assert run_cli(capsys, argv)[0] == 0
        with pytest.raises(SystemExit):
            cli.main(["locking-demo", "--trials", "0"])
        assert cli.build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv", [
        [], ["locking-demo", "--trials", "0"], ["criteria"], ["extremal", "--kind", "spike"],
        ["bounds-sweep", "--unknown"], ["nonsense"],
    ], ids=["no-command", "zero-trials", "missing-file-arg", "bad-choice", "unknown-flag",
            "unknown-command"])
    def test_usage_error_after_runs_matches_a_fresh_parser(self, capsys, argv):
        for success in self.SUCCESSES:
            assert run_cli(capsys, success)[0] == 0
        with pytest.raises(SystemExit) as reused:
            cli.main(argv)
        reused_err = capsys.readouterr().err
        with pytest.raises(SystemExit) as fresh:
            cli.build_parser.__wrapped__().parse_args(argv)
        assert reused.value.code == fresh.value.code == 2
        assert reused_err == capsys.readouterr().err
        assert reused_err.startswith("usage: qseclab")

    def test_version_after_runs(self, capsys):
        for success in self.SUCCESSES:
            assert run_cli(capsys, success)[0] == 0
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out == f"qseclab {cli.__version__}\n"

    def test_same_argv_same_bytes_around_other_commands(self, capsys, tmp_path):
        cli.build_parser.cache_clear()
        argv = ["extremal", "--kind", "mutual_information", "--n", "3", "--l-prime", "2"]
        first = run_cli(capsys, argv)
        path = tmp_path / "locking.json"
        assert run_cli(capsys, ["locking-demo", "--trials", "50", "--emit-ensemble",
                                str(path)])[0] == 0
        assert run_cli(capsys, ["criteria", str(path), "--format", "text"])[0] == 0
        with pytest.raises(SystemExit):
            cli.main(["extremal", "--kind", "mutual_information"])
        assert run_cli(capsys, argv[:-1] + ["0.5"])[0] == 0
        assert run_cli(capsys, argv) == first
        assert first[0] == 0 and first[2] == ""


# Scalars of every JSON kind, including the NaN and Infinity tokens json writes.
_scalars = st.one_of(
    st.floats(), st.integers(), st.text(max_size=3), st.none(), st.booleans()
)
_nests = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=12)


@st.composite
def _qubit_literal(draw):
    """The pair literal of a valid qubit state: a pure state mixed with I/2."""
    theta, phi = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2.0 * np.pi))
    ket = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    mix = draw(st.floats(0.0, 1.0))
    return ops.matrix_to_pairs(mix * np.outer(ket, ket.conj()) + (1.0 - mix) * np.eye(2) / 2)


@st.composite
def _tiny_negative_priors(draw):
    """A prior whose last entry round-off has pushed a little below zero."""
    size = draw(st.sampled_from([2, 4]))
    eps = draw(st.floats(1e-17, 1e-10))
    return [1.0 + eps] + [0.0] * (size - 2) + [-eps]


_records = st.fixed_dictionaries(
    {
        "n": st.one_of(
            st.integers(0, 2), st.integers(), st.floats(), st.text(max_size=3), st.none(),
            st.lists(st.integers(), max_size=2), st.booleans(),
            st.floats(0.0, 3.0).filter(lambda x: not x.is_integer()),
            st.integers(0, 2).map(str),
        ),
        "prior": st.one_of(
            st.sampled_from([[1.0], [0.5, 0.5], [0.25] * 4, [0.9, 0.1]]),
            _tiny_negative_priors(),
            st.lists(st.floats(), max_size=4),
            _nests,
        ),
        "states": st.one_of(
            st.lists(_qubit_literal(), min_size=1, max_size=4),
            st.lists(st.one_of(_qubit_literal(), _nests), max_size=4),
            _nests,
        ),
    }
)


@st.composite
def _valid_records(draw):
    """A well-formed record on qubit states, with a uniform or a skewed prior."""
    n = draw(st.integers(0, 2))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=2**n, max_size=2**n)))
    prior = draw(st.sampled_from([np.full(2**n, 1.0 / 2**n), weights / weights.sum()]))
    if n and draw(st.booleans()):
        # round-off upstream left the last entry a little below zero
        eps = draw(st.floats(1e-17, 1e-10))
        prior = np.append(prior[:-1], -eps)
        prior[0] += 1.0 - prior.sum()
    states = draw(st.lists(_qubit_literal(), min_size=2**n, max_size=2**n))
    return {"n": n, "prior": [float(w) for w in prior], "states": states}


@settings(max_examples=200, deadline=None)
@given(record=st.one_of(_valid_records(), _records, _nests))
def test_any_ensemble_file_gives_a_report_or_a_clean_error(tmp_path_factory, record):
    path = tmp_path_factory.getbasetemp() / "generated_ensemble.json"
    path.write_text(json.dumps(record))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["criteria", str(path)])
    if code == 0:
        assert json.loads(out.getvalue())["command"] == "criteria"
        # only a JSON integer is a key length
        assert type(record["n"]) is int
    else:
        assert code == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("qseclab: error: ")


def _edge_record(n_bits, dim, rank, seed, identical=False, low=0.0, deviation=0.0,
                 trace_off=0.0, prior_off=0.0, zeros=0, subnormals=0, skewed=False) -> dict:
    """An ensemble record at the edges of the input checks.

    The states have rank ``rank`` on one random subspace, so their average
    is rank-deficient when ``rank < dim``; with ``identical`` all equal the
    first.  Each has its smallest eigenvalue set to ``low`` before its
    trace is scaled to 1 + ``trace_off``, and entry (0, 1) moved by
    ``deviation``, a Hermitian deviation the positivity check, which reads
    the lower triangle, does not see.  The prior is uniform or
    exponential, with its first ``zeros`` entries 0 and the next
    ``subnormals`` the smallest subnormal, and sums to 1 + ``prior_off``.
    """
    rng = np.random.default_rng(seed)
    keys = 2**n_bits
    g = rng.standard_normal((2, dim, rank))
    basis = np.linalg.qr(g[0] + 1j * g[1])[0]
    z = rng.standard_normal((keys, rank, rank)) + 1j * rng.standard_normal((keys, rank, rank))
    states = basis @ (z @ np.conj(np.swapaxes(z, -1, -2))) @ basis.conj().T
    if identical:
        states[1:] = states[0]
    vals, vecs = np.linalg.eigh(states)
    vals /= vals.sum(axis=1, keepdims=True)
    if low:  # the other eigenvalues take up the trace, so low stays as it is
        vals[:, 0] = low
        vals[:, 1:] *= (1.0 - low) / vals[:, 1:].sum(axis=1, keepdims=True)
    states = (vecs * vals[:, None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    states = 0.5 * (states + np.conj(np.swapaxes(states, -1, -2))) * (1.0 + trace_off)
    states[:, 0, 1] += deviation
    prior = rng.exponential(size=keys) if skewed else np.ones(keys)
    prior[:zeros + subnormals] = 0.0
    prior /= prior.sum()
    prior[zeros:zeros + subnormals] = 5e-324
    prior[np.argmax(prior)] += prior_off
    return {"n": n_bits, "prior": prior.tolist(), "states": ops.matrix_to_pairs(states)}


@st.composite
def _edge_records(draw):
    """An ``_edge_record`` with n <= 3 and d <= 4, each edge either off or
    a relative 1e-4 to 1e-2 inside its tolerance."""
    n_bits, dim = draw(st.integers(0, 3)), draw(st.integers(2, 4))
    inside = st.floats(1.0 - 1e-2, 1.0 - 1e-4)

    def edge(tol, signs=(1.0,)):
        return draw(st.one_of(st.just(0.0),
                              st.tuples(st.sampled_from(signs), inside).map(
                                  lambda pair: pair[0] * pair[1] * tol)))

    zeros = draw(st.integers(0, 2**n_bits - 1))
    return _edge_record(
        n_bits, dim, draw(st.integers(1, dim)), draw(st.integers(0, 2**32 - 1)),
        identical=draw(st.booleans()), low=edge(ops.POSITIVITY_TOL, (-1.0,)),
        deviation=edge(ops.HERMITIAN_TOL), trace_off=edge(ops.TRACE_TOL, (-1.0, 1.0)),
        prior_off=edge(distributions.PROB_SUM_TOL, (-1.0, 1.0)), zeros=zeros,
        subnormals=draw(st.integers(0, 2**n_bits - 1 - zeros)), skewed=draw(st.booleans()),
    )


_EVERY_EDGE = {"low": -0.999e-10, "deviation": 0.999e-12, "trace_off": 0.999e-10,
               "prior_off": 0.999e-10, "subnormals": 1, "skewed": True}


@settings(max_examples=200, deadline=None)
@given(record=_edge_records())
@example(record=_edge_record(1, 64, 64, 0, **_EVERY_EDGE))
@example(record=_edge_record(3, ensembles.JOINT_DIM_CAP // 8, 7, 1, zeros=1, **_EVERY_EDGE))
def test_an_ensemble_at_the_input_edges_gives_a_report_and_passes_the_proven_checks(
        tmp_path_factory, record):
    path = tmp_path_factory.getbasetemp() / "edge_ensemble.json"
    path.write_text(json.dumps(record))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["criteria", str(path)])
    assert (code, err.getvalue()) == (0, "")
    # the checks of a campaign instance, the search at one restart
    checks = bounds.PROVEN_CHECKS + ("accessible_info",)
    _, results = bounds._instance_checks(ensembles.ensemble_from_dict(record), checks, 1, 0)
    assert {name: result.verdict for name, result in results.items()
            if result.verdict == "fail"} == {}


class TestBoundsSweep:
    def test_single_instance_all_applicable_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bounds-sweep", "--count", "1", "--seed", "0", "--kinds", "random_mixed",
             "--max-n", "2"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2  # one record plus summary
        record = json.loads(lines[0])
        assert record["pinsker_verdict"] == "pass"
        assert record["quantum_pinsker_verdict"] == "pass"
        summary = json.loads(lines[1])
        assert summary["hard_failures"] == 0
        assert summary["seed"] == 0

    def test_repeated_run_identical(self, capsys):
        argv = ["bounds-sweep", "--count", "5", "--seed", "21"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_csv_output_flat(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bounds-sweep", "--count", "3", "--seed", "4", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        assert "instance_id" in header
        assert "quantum_pinsker_verdict" in header

    def test_information_stays_finite_at_the_float_floor(self, capsys):
        # instance 242 has a min-error candidate element of trace 3.9e-321,
        # where log2(pk * py) underflowed and the information read +inf
        code, out, err = run_cli(
            capsys,
            ["bounds-sweep", "--count", "300", "--seed", "11", "--kinds", "random_pure",
             "--checks", "accessible_info,holevo_consistency"],
        )
        assert (code, err) == (0, "")
        assert "Infinity" not in out and "NaN" not in out
        assert json.loads(out.splitlines()[-1])["hard_failures"] == 0

    def test_non_finite_float_is_a_clean_error(self, capsys, monkeypatch):
        # the campaign takes the square-root joint's information from the kernel
        monkeypatch.setattr(distributions, "_information", lambda joint: (float("inf"), None))
        code, out, err = run_cli(capsys, ["bounds-sweep", "--count", "2"])
        assert (code, out) == (1, "")
        assert err.startswith("qseclab: error: report not written: ")
        assert err.endswith(" (at mutual_information)\n")

    @pytest.mark.parametrize("fmt", ["csv", "text", "json"])
    def test_non_finite_margin_of_a_proven_check_is_a_fail(self, capsys, monkeypatch, fmt):
        # an infinite information gives the pinsker check an infinite margin,
        # which proves nothing: a fail in every format.  JSON cannot hold the
        # infinity, so that report ends in a clean error instead.
        monkeypatch.setattr(distributions, "_information", lambda joint: (float("inf"), None))
        code, out, err = run_cli(
            capsys, ["bounds-sweep", "--count", "2", "--checks", "pinsker", "--format", fmt]
        )
        assert code == 1
        if fmt == "json":
            assert out == ""
            assert err.startswith("qseclab: error: report not written: ")
            return
        assert err == ""
        if fmt == "csv":
            rows = list(csv.DictReader(io.StringIO(out)))
        else:
            rows = [dict(cell.split("=", 1) for cell in line.split("  "))
                    for line in out.splitlines() if "pinsker_verdict=" in line]
            assert out.endswith("hard_failures: 2\n")
        assert len(rows) == 2
        for row in rows:
            assert (row["pinsker_verdict"], row["pinsker_note"]) == ("fail", "non-finite margin")
            assert row["pinsker_margin"] == "inf"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.jsonl"
        code, out, _ = run_cli(
            capsys, ["bounds-sweep", "--count", "2", "--seed", "1", "--out", str(path)]
        )
        assert code == 0
        assert out == ""
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3


class TestExtremal:
    def test_large_key_reference_exponent(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["extremal", "--kind", "mutual_information", "--n", "4000", "--l-prime", "21"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["reference_exponent"] == pytest.approx(21 + np.log2(4000), abs=1e-9)
        assert report["reference_exponent"] == pytest.approx(32.9658, abs=1e-3)
        assert report["materialized"] is False

    def test_huge_key_length_is_a_report_in_bounded_memory(self):
        # whether the list is materialised is decided from n alone: 2^n itself
        # would take 12.5 GB here, so the run gets 1.5 GB of address space
        resource = pytest.importorskip("resource")
        limit = 1_500_000 * 1024
        src = os.path.dirname(os.path.dirname(cli.__file__))
        run = subprocess.run(
            [sys.executable, "-m", "qseclab.cli", "extremal", "--kind", "mutual_information",
             "--n", "100000000000", "--l-prime", "1"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert run.returncode == 0, run.stderr
        report = json.loads(run.stdout)
        assert report["n"] == 10**11
        assert report["materialized"] is False and report["resulting_distribution"] is None

    def test_variational_kind_reports_both_values(self, capsys):
        code, out, _ = run_cli(
            capsys, ["extremal", "--kind", "variational_distance", "--n", "2", "--l", "1"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["resulting_p1"] == pytest.approx(0.75)
        assert report["reference_p1"] == pytest.approx(0.25)
        assert report["discrepancy"] is True

    def test_small_deficit_is_a_report(self, capsys):
        code, out, _ = run_cli(
            capsys, ["extremal", "--kind", "mutual_information", "--n", "3", "--l-prime", "50"]
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["residual"]) <= 1e-6 * 2.0**-50
        assert report["resulting_p1"] > 1 / 8

    def test_infeasible_is_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, ["extremal", "--kind", "variational_distance", "--n", "1", "--l", "0.5"]
        )
        assert code == 1
        assert "error" in err

    def test_missing_exponent_flag(self, capsys):
        code, _, err = run_cli(
            capsys, ["extremal", "--kind", "mutual_information", "--n", "8"]
        )
        assert code == 1
        assert "l-prime" in err

    @pytest.mark.parametrize("argv, flag, kind", [
        (["--kind", "mutual_information", "--l-prime", "2", "--l", "1"], "--l",
         "variational_distance"),
        (["--kind", "mutual_information", "--l", "1"], "--l", "variational_distance"),
        (["--kind", "variational_distance", "--l", "1", "--l-prime", "2"], "--l-prime",
         "mutual_information"),
        (["--kind", "variational_distance", "--l-prime", "2"], "--l-prime",
         "mutual_information"),
    ], ids=["mi-with-l", "mi-with-only-l", "vd-with-l-prime", "vd-with-only-l-prime"])
    def test_exponent_flag_of_the_other_kind_is_refused(self, capsys, argv, flag, kind):
        code, out, err = run_cli(capsys, ["extremal", "--n", "2"] + argv)
        assert code == 1
        assert out == ""
        assert err == f"qseclab: error: {flag} belongs to the {kind} kind\n"

    def test_deterministic(self, capsys):
        argv = ["extremal", "--kind", "mutual_information", "--n", "8", "--l-prime", "0.25"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Text(str):
    pass


def _indented(obj) -> str:
    # an array is written as its list
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      default=np.ndarray.tolist) + "\n"


def _assert_dumps_as_json(obj):
    """``_dump_json`` writes what json writes, and refuses NaN and infinities."""
    try:
        expected = _indented(obj)
    except ValueError:
        with pytest.raises(Error, match="report not written"):
            cli._dump_json(obj)
    else:
        assert cli._dump_json(obj) == expected


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("obj", [
    [0.0, -0.0, 0.0],
    [1.5, _NAN, _INF, -_INF, 1.5, _NAN],
    [5e-324, -5e-324, 2.2250738585072014e-308],
    [1e16, 1e-5, 123456789.125, 1e22, 0.1],
    [True, 1.0],
    [2**64 + 1, -(2**70), 1, 0],
    [[0.5, 0.25], [0.25], [], [-0.0]],
    {},
    [],
    {"a": {}, "b": [], "c": [{}], "d": [[]]},
    {"q\"uote": "new\nline\ttab", "caf\u00e9": "\u2603 \U0001f600", "": None},
    {"mixed": [1, 2.0, None, "a", [], {}, True]},
    1.5, "s", None, False, 7,
    {"k\u00e9y\x00\x1f": "v\u00e0l\x01\x7f\u2028", "\ud83d\u2603": ["\x08\x0c\r", "\ud800"]},
    {"neg-zero": -0.0, "tiny": 5e-324, "e16": 1e16, "e22": 1e22},
    [-0.0, 5e-324, 1e16, 1e22, 0],
    {"true": True, "false": False, "none": None, "list": [True, None, False]},
    np.repeat([2.0**-16, 1e-300, 0.75, 2.0**-16], [5000, 1, 3000, 2]),
    np.tile([0.1, 1.0 / 3.0], 500),
    np.array([0.0, -0.0, -0.0, 0.0, -0.0]),
    np.array([5e-324, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310]),
    np.array([0.1]),
    np.array([], dtype=np.float64),
    np.array([0.25, 0.25, _NAN, 0.25]),
    np.array([1.0, _INF, -_INF]),
    {"b": np.arange(12.0)[::3], "a": [np.array([1e16, 1e16]), {"c": np.array([0.5])}]},
], ids=["signed-zeros", "nan-inf", "subnormals", "repr-forms", "bool-and-float",
        "big-ints", "float-lists", "empty-dict", "empty-list", "empty-children", "strings",
        "mixed-list", "float", "str", "none", "bool", "int", "non-ascii-and-control",
        "float-values", "float-mixed-list", "constants-as-values", "array-long-runs",
        "array-alternating", "array-signed-zeros", "array-subnormals", "array-one-entry",
        "array-empty", "array-nan", "array-inf", "arrays-nested-and-strided"])
def test_dump_json_equals_indented_json_dumps(obj):
    _assert_dumps_as_json(obj)


@pytest.mark.parametrize("obj", [
    (1, 2.5), {"t": [(0.5,)]}, {1: "one"}, {"a": {2: [1.0]}},
    np.float64(0.1), {"float": [np.float64(-0.0), 1.5]}, _Level.HIGH, {"enum": _Level.LOW},
    _Text("v\u00e9"), [_Text("\x00")], np.arange(3), np.array([0.5], dtype=np.float32),
    np.array([[0.5, -0.0], [1.0, 2.0]]), {"m": np.array([[0.5, 1.0], [2.0, _NAN]])},
], ids=["tuple", "tuple-nested", "int-key", "int-key-nested", "np-float64",
        "np-float64-nested", "int-enum", "int-enum-nested", "str-subclass",
        "str-subclass-nested", "int-array", "float32-array", "2d-array", "2d-array-nan"])
def test_a_type_no_report_holds_is_a_type_error(obj):
    # no report holds any of these, so the writer takes none of them
    with pytest.raises(TypeError):
        cli._dump_json(obj)


@pytest.mark.parametrize("value", [_NAN, _INF, -_INF], ids=["nan", "inf", "-inf"])
def test_non_finite_float_error_text_is_jsons(value):
    # json's own text, which names the value on some Python versions only
    with pytest.raises(ValueError) as refused:
        json.dumps(value, allow_nan=False)
    assert str(refused.value).startswith("Out of range float values are not JSON compliant")
    for obj, path in ((value, "the top level"), ({"a": value}, "a"), ([1, value], "[1]"),
                      ([0.5, value], "[1]"), ({"a": {"b": [None, value]}}, "a.b[1]"),
                      ({"b": value, "a": [1.0, {"c": value}]}, "a[1].c")):
        for write in (cli._dump_json, cli._json_line):
            with pytest.raises(Error) as info:
                write(obj)
            assert str(info.value) == f"report not written: {refused.value} (at {path})"
    # an array, which only the indented writer takes, is named with its index
    spike = np.full(8, 0.125)
    spike[5] = value
    spike[7] = -value
    with pytest.raises(Error) as info:
        cli._dump_json({"n": 3, "resulting_distribution": spike, "a": np.array([0.5, 1.0])})
    assert str(info.value) == (f"report not written: {refused.value} "
                               "(at resulting_distribution[5])")


_json_floats = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, _NAN, _INF, -_INF, 5e-324]))
_json_leaves = st.one_of(
    _json_floats, st.integers(), st.integers(min_value=2**64), st.booleans(), st.none(),
    st.text(max_size=4),
)


def _float_runs(runs) -> np.ndarray:
    return np.repeat(np.array([value for value, _ in runs], dtype=np.float64),
                     [count for _, count in runs])


def _json_children(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.lists(_json_floats, min_size=1, max_size=6),  # a float column
        st.lists(st.tuples(_json_floats, st.integers(1, 4)), max_size=5).map(_float_runs),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    )


@settings(max_examples=200, deadline=None)
@given(obj=st.recursive(_json_leaves, _json_children, max_leaves=30))
def test_dump_json_equals_indented_json_dumps_on_any_payload(obj):
    _assert_dumps_as_json(obj)


def test_json_reports_survive_a_json_round_trip(tmp_path, monkeypatch):
    # the reports of the golden set, read back and rewritten by json itself
    import golden_outputs

    monkeypatch.chdir(tmp_path)
    golden_outputs.write_ensembles("ensembles")
    runs = [(name, argv) for name, argv in golden_outputs.golden_runs()
            if name.endswith(".json") and not name.startswith("criteria_recipe_")]
    runs += [(f"criteria_recipe_{i:02d}.json", ["criteria", f"ensembles/recipe_{i:02d}.json"])
             for i in (0, 1, 2, 3, 4, 13)]
    runs.append(("extremal_mi_16.json",
                 ["extremal", "--kind", "mutual_information", "--n", "16", "--l-prime", "5"]))
    runs.append(("extremal_vd_16.json",
                 ["extremal", "--kind", "variational_distance", "--n", "16", "--l", "7.5"]))
    runs.append(("extremal_mi_14.json",
                 ["extremal", "--kind", "mutual_information", "--n", "14", "--l-prime", "3.25"]))
    assert sum(name.startswith("locking-demo") for name, _ in runs) == 2
    for name, argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, name
        text = out.getvalue()
        assert text == _indented(json.loads(text)), name


def test_the_spike_reaches_the_writer_as_its_array(monkeypatch):
    written = []
    monkeypatch.setattr(cli, "_emit_report", lambda payload, args: written.append(payload))
    assert cli.main(["extremal", "--kind", "variational_distance", "--n", "16", "--l", "7.5"]) == 0
    column = written[0]["resulting_distribution"]
    assert type(column) is np.ndarray and column.dtype == np.float64
    assert column.shape == (2**16,)
    # the text format writes the array as its list
    assert cli._dump_text({"p": column[:3]}) == cli._dump_text({"p": column[:3].tolist()})


class TestGoldenCompare:
    """``golden_outputs.py --compare`` as a gate: floats may move, nothing else."""

    BASE = {
        "sweep.jsonl": '{"d": 0.25, "verdict": "pass", "count": 3}\n',
        "report.text": "d=0.25  verdict=pass\n",
        "exit_codes.json": '{"sweep.jsonl": 0}\n',
    }

    @staticmethod
    def compare(tmp_path, capsys, new, old=BASE):
        import golden_outputs

        for side, files in (("old", old), ("new", new)):
            (tmp_path / side).mkdir()
            for name, text in files.items():
                (tmp_path / side / name).write_text(text)
        code = golden_outputs.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")])
        return code, capsys.readouterr().out

    def test_identical_directories_pass(self, tmp_path, capsys):
        code, out = self.compare(tmp_path, capsys, dict(self.BASE))
        assert code == 0 and "3 of 3 files byte-identical" in out

    def test_moved_floats_pass(self, tmp_path, capsys):
        new = dict(self.BASE, **{"sweep.jsonl": '{"d": 0.2500000001, "verdict": "pass", "count": 3}\n',
                                 "report.text": "d=0.26  verdict=pass\n"})
        code, out = self.compare(tmp_path, capsys, new)
        assert code == 0 and "1 of 3 files byte-identical" in out

    def test_falls_past_round_off_are_counted_apart(self, tmp_path, capsys):
        old = dict(self.BASE, **{"sweep.jsonl": '{"d": [0.5, 0.5, 0.5, 0.5]}\n'})
        new = dict(self.BASE, **{"sweep.jsonl": '{"d": [0.75, 0.4999999999999999, 0.375, 0.5]}\n'})
        code, out = self.compare(tmp_path, capsys, new, old)
        assert code == 0
        header, row = out.splitlines()[1:3]
        assert header.split() == ["field", "rose", "fell", "fell>1e-12", "largest", "rise",
                                  "largest", "fall"]
        assert row.split() == ["d[]", "1", "2", "1", "0.25", "0.125"]

    @pytest.mark.parametrize("name, text", [
        ("sweep.jsonl", '{"d": 0.25, "verdict": "fail", "count": 3}\n'),
        ("sweep.jsonl", '{"d": 0.25, "verdict": "pass", "count": 4}\n'),
        ("sweep.jsonl", '{"d": null, "verdict": "pass", "count": 3}\n'),
        ("report.text", "d=0.25  verdict=inconclusive\n"),
        ("exit_codes.json", '{"sweep.jsonl": 1}\n'),
    ], ids=["verdict", "count", "float_to_null", "text", "exit_code"])
    def test_changed_non_float_fails(self, tmp_path, capsys, name, text):
        code, out = self.compare(tmp_path, capsys, dict(self.BASE, **{name: text}))
        assert code == 1 and "->" in out

    def test_report_of_a_failed_run_is_compared(self, tmp_path, capsys):
        # a run that failed on one side left an empty report there
        old = dict(self.BASE, **{"extremal.json": ""})
        new = dict(self.BASE, **{"extremal.json": '{"residual": 0.5}\n'})
        code, out = self.compare(tmp_path, capsys, new, old)
        assert code == 1 and "residual: (absent) -> 0.5" in out

    def test_file_on_one_side_fails(self, tmp_path, capsys):
        new = dict(self.BASE)
        del new["report.text"]
        new["extra.json"] = "{}\n"
        code, out = self.compare(tmp_path, capsys, new)
        assert code == 1
        assert "report.text: only in" in out and "extra.json: only in" in out
