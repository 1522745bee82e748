"""The part of the package that the benchmark under ``bench/`` relies on.

The benchmark drives the package from outside: ``bench/tracer.py`` wraps
every public function of the traced modules and the validating
``__post_init__`` of the operator, ensemble and POVM classes, and
``bench/workloads.py`` builds its operations and checks from the public
API (``CQEnsemble.states`` among it).  These tests run that code at its
smallest, so that a change to the package which would break the benchmark
fails here.
"""

import sys
from pathlib import Path

import pytest

from qseclab import ensembles, operators

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def spans():
    traced = tracer.Tracer()
    try:
        traced.install()
        yield traced
    finally:
        traced.uninstall()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_round_builds_and_its_warm_up_passes_traced(workload, spans, tmp_path):
    warmup, ops = workloads.WORKLOADS[workload](1, str(tmp_path))
    assert ops
    warmup.check(spans.op(warmup.fn, *warmup.args))
    assert spans.ops == 1
    assert spans.calls.get("linalg.eigvalsh", 0) > 0
    assert set(spans.layer_metrics()) >= {"operators.density_checks_per_op", "trace.attributed_pct"}


def test_chained_report_passes_traced(spans):
    report = spans.op(workloads.chained_report_op, 3, 0)
    workloads.check_chained_report(3, report)
    assert spans.calls["locking.locking_report"] == 1
    assert spans.calls["ensembles.CQEnsemble"] >= 1


def test_uninstall_puts_every_attribute_back():
    originals = (operators.eig_hermitian, operators.DensityOperator.__post_init__,
                 operators.HermitianOperator.__post_init__, ensembles.CQEnsemble.__post_init__)
    traced = tracer.Tracer()
    try:
        traced.install()
        assert operators.DensityOperator.__post_init__ is not originals[1]
    finally:
        traced.uninstall()
    assert (operators.eig_hermitian, operators.DensityOperator.__post_init__,
            operators.HermitianOperator.__post_init__,
            ensembles.CQEnsemble.__post_init__) == originals
