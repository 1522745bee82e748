"""The workload process that ``run.py`` starts with BLAS threads pinned to 1.

    worker.py probe   --workload W --seed N --workdir DIR
    worker.py measure --workload W --seed N --workdir DIR --seconds S --trace 0|1

``probe`` imports the program, builds the workload's inputs, runs the
warm-up operation and prints its CPU time since the interpreter started,
scaled to full machine speed: one fresh start of ``setup_s``.  ``measure``
does the same set-up, then repeats whole rounds of the
operation list until ``--seconds`` of wall time have passed, checks
every result outside the timed section, and prints one JSON line with the
counts, the metrics and the run's details.

With ``--trace 1`` untraced and traced rounds alternate, and the metrics are
the per-layer figures of the traced rounds plus the tracing overhead (traced
against untraced throughput).
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import calibration
import tracer
import workloads

TAIL_BEYOND = 10  # samples beyond the reported tail percentile
MIN_ROUNDS = 3  # repeats behind each operation's latency
REFERENCE_DIM = 48


class Rounds:
    """Latencies, failures and check results of repeated rounds.

    Times are CPU seconds of this process, scaled to full machine speed.  On
    a shared virtual machine the wall clock also counts the time the host
    runs other guests, and even CPU time slows by 1.5-2x for seconds or
    minutes while neighbours are busy: identical rounds took 3.4 to 6.4 CPU
    seconds within one run.  So each operation is timed between two runs of
    the workload's calibration kernel and scaled by their mean (see
    ``calibration``), and an operation's latency is the median of its scaled
    repeats in the run.
    """

    def __init__(self, ops, kernel: str):
        self.ops = ops
        self.kernel = kernel
        self.samples: list[list[float]] = [[] for _ in ops]
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.rounds = 0
        self.failed = 0
        self.failures: collections.Counter = collections.Counter()
        self.wrong: list[str] = []
        self.observed: dict[str, list[float]] = collections.defaultdict(list)

    @property
    def attempted(self) -> int:
        return self.rounds * len(self.ops)

    def latencies(self) -> list[float]:
        """The latency of each operation of the round."""
        return [statistics.median(s) for s in self.samples]

    def ops_per_s(self) -> float:
        """Completed operations of one round over the round's summed latencies."""
        completed = (self.attempted - self.failed) / self.rounds
        return completed / sum(self.latencies())


def run_round(out: Rounds, call) -> None:
    """Time one round of ``out.ops`` through ``call``, then check the results."""
    outcomes = []
    before = calibration.calibrate(out.kernel)
    for op, samples in zip(out.ops, out.samples):
        t = time.process_time()
        try:
            outcomes.append((True, call(op.fn, *op.args)))
        except Exception as exc:  # a fault of the program: counted as failed
            outcomes.append((False, exc))
        raw = time.process_time() - t
        after = calibration.calibrate(out.kernel)
        samples.append(raw * calibration.speed_scale(out.kernel, 0.5 * (before + after)))
        out.raw_s += raw
        out.scaled_s += samples[-1]
        before = after
    out.rounds += 1
    for op, (ok, value) in zip(out.ops, outcomes):
        if not ok:
            out.failed += 1
            out.failures[f"{op.label}: {type(value).__name__}"] += 1
            continue
        try:
            observed = op.check(value)
        except Exception as exc:  # CheckFailed, or output missing a field
            out.wrong.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        for key, number in observed.items():
            out.observed[key].append(number)


def direct(fn, *args):
    return fn(*args)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency with ``TAIL_BEYOND`` samples above it, and its percentile."""
    ordered = sorted(latencies, reverse=True)
    index = min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[index], 100.0 * (1.0 - index / len(ordered))


def reference_kernel_ms() -> float:
    """Median CPU time of 50 fixed 48x48 Hermitian eigensolves: machine drift only."""
    rng = np.random.default_rng(12345)
    m = rng.standard_normal((REFERENCE_DIM,) * 2) + 1j * rng.standard_normal((REFERENCE_DIM,) * 2)
    h = m + m.conj().T
    times = []
    for _ in range(5):
        start = time.process_time()
        for _ in range(50):
            np.linalg.eigvalsh(h)
        times.append(time.process_time() - start)
    return 1000.0 * statistics.median(times)


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run: Rounds) -> dict:
    latencies = run.latencies()
    tail_s, _ = tail(latencies)
    return {
        "ops_per_s": metric(run.ops_per_s(), "ops/s"),
        "op_p50_ms": metric(1000.0 * statistics.median(latencies), "ms"),
        "op_tail_ms": metric(1000.0 * tail_s, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


PER_LAYER_UNITS = {
    "_per_op": "count", "_per_call": "count", "_ms_per_op": "ms", "_trials_per_s": "trials/s",
    "_bits": "bits", "_pct": "%", "_kb_per_op": "KB",
}


def _unit(name: str) -> str:
    suffix = max((s for s in PER_LAYER_UNITS if name.endswith(s)), key=len)
    return PER_LAYER_UNITS[suffix]


def per_layer(untraced: Rounds, traced: Rounds, spans: tracer.Tracer) -> dict:
    figures = spans.layer_metrics(scale=traced.scaled_s / traced.raw_s)

    def mean(key):
        values = traced.observed.get(key, [])
        return sum(values) / len(values) if values else 0.0

    figures["detection.iacc_mean_bits"] = mean("bits")
    figures["detection.search_gain_bits"] = mean("gain")
    figures["detection.holevo_gap_bits"] = mean("gap")
    figures["cli.output_kb_per_op"] = (
        sum(traced.observed.get("output_bytes", [])) / 1024.0 / traced.attempted
    )
    figures["trace.overhead_pct"] = 100.0 * (untraced.ops_per_s() / traced.ops_per_s() - 1.0)
    return {name: metric(value, _unit(name)) for name, value in figures.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "measure"))
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    warmup, ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    warm_result = warmup.fn(*warmup.args)
    if args.mode == "probe":
        # process CPU time counts from the interpreter's start
        setup_cpu_s = time.process_time()
        kernel = workloads.CALIBRATION[args.workload]
        calibration_s = statistics.median(calibration.calibrate(kernel) for _ in range(5))
        print(json.dumps({"setup_s": setup_cpu_s * calibration.speed_scale(kernel, calibration_s),
                          "setup_cpu_s": setup_cpu_s}))
        return 0
    warmup.check(warm_result)

    details = {"machine": machine(), "ops_per_round": len(ops)}
    details["reference_kernel_ms_before"] = reference_kernel_ms()
    gc.collect()
    # traced and untraced rounds alternate, so both see the same machine
    kernel = workloads.CALIBRATION[args.workload]
    untraced = Rounds(ops, kernel)
    traced = Rounds(ops, kernel) if args.trace else None
    spans = tracer.Tracer()
    start = time.perf_counter()
    while untraced.rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        run_round(untraced, direct)
        if traced is not None:
            with spans:
                run_round(traced, spans.op)
    details["loop_wall_s"] = time.perf_counter() - start
    if traced is not None:
        runs = (untraced, traced)
        metrics = per_layer(untraced, traced, spans)
    else:
        runs = (untraced,)
        metrics = end_to_end(untraced)
        _, details["tail_percentile"] = tail(untraced.latencies())
    details["reference_kernel_ms_after"] = reference_kernel_ms()
    details["rounds"] = [r.rounds for r in runs]
    details["samples"] = [r.attempted for r in runs]
    details["ops_cpu_s"] = [r.raw_s for r in runs]
    details["ops_scaled_s"] = [r.scaled_s for r in runs]
    failures: collections.Counter = collections.Counter()
    for r in runs:
        failures.update(r.failures)
    details["failures"] = dict(failures)
    wrong = [w for r in runs for w in r.wrong]
    details["wrong"] = wrong[:20]
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
        "details": details,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
