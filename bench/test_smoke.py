"""Smoke run of every benchmark workload at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Runs a few operations of each workload in-process, untraced and traced,
checks the counted failures and that the metric names match
``BENCHMARK.json``, then runs ``run.py`` once end to end and once in a
directory without the program's sources, where it must fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload, ops):
    """A few operations of each workload, keeping its counted failures."""
    if workload == "sweep":
        return ops[:6] + ops[-len(workloads.KNOWN_MIN_ERROR_FAULTS):]
    if workload == "search":
        return [op for op in ops if "d=2" in op.label][:2] + ops[-1:]
    return [op for op in ops if "n=16" not in op.label and "chained n=4" not in op.label]


EXPECTED_FAILED = {"sweep": len(workloads.KNOWN_MIN_ERROR_FAULTS), "search": 0, "reports": 4}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_round(workload, tmp_path):
    warmup, ops = workloads.WORKLOADS[workload](3, str(tmp_path))
    warmup.check(warmup.fn(*warmup.args))
    ops = tiny(workload, ops)
    kernel = workloads.CALIBRATION[workload]
    untraced, traced = worker.Rounds(ops, kernel), worker.Rounds(ops, kernel)
    spans = tracer.Tracer()
    for _ in range(worker.MIN_ROUNDS):
        worker.run_round(untraced, worker.direct)
    with spans:
        worker.run_round(traced, spans.op)
    for rounds in (untraced, traced):
        assert rounds.wrong == []
        assert rounds.failed == EXPECTED_FAILED[workload] * rounds.rounds

    end_to_end = worker.end_to_end(untraced)
    assert set(end_to_end) | {"setup_s"} == {m["name"] for m in SPEC["end_to_end"]}
    per_layer = worker.per_layer(untraced, traced, spans)
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        if spec["name"] in end_to_end:
            assert end_to_end[spec["name"]]["unit"] == spec["unit"]
        else:
            assert spec["name"] == "setup_s" or per_layer[spec["name"]]["unit"] == spec["unit"]
    assert per_layer["trace.attributed_pct"]["value"] > 95.0
    # the tracer puts every attribute back
    from qseclab import operators

    assert not hasattr(operators.eig_hermitian, "__wrapped__")


def test_run_prints_result_line():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reports", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] * 42 == result["attempted"] * 4
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
