"""Run one qseclab benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep|search|reports --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every child process gets BLAS/OpenMP threads pinned to 1.

With ``--trace 0`` the set-up time is the median of several fresh starts of
the workload process (each imports ``qseclab.cli``, builds the inputs and runs
one warm-up operation), and a separate untraced process measures the rest of
the end-to-end metrics.  With ``--trace 1`` one process reports the per-layer
metrics.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's details (machine, reference kernel time, failures by operation).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_STARTS = 5
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for name in PINNED_THREADS:
        env[name] = "1"
    path = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "search", "reports"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "qseclab" / "__init__.py").is_file():
        print(f"run.py: no qseclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    env = child_env()
    runs_dir = HERE / "runs"
    runs_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_STARTS):
                probe = subprocess.run([sys.executable, str(WORKER), "probe", *common], env=env,
                                       check=True, capture_output=True, text=True, timeout=60)
                setup.append(json.loads(probe.stdout.splitlines()[-1]))
        done = subprocess.run(
            [sys.executable, str(WORKER), "measure", *common,
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, capture_output=True, text=True,
            timeout=max(DEADLINE_S - (time.monotonic() - started), 1.0),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        if isinstance(exc, subprocess.CalledProcessError):
            sys.stderr.write(exc.stderr)
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"run.py: worker exited {done.returncode}", file=sys.stderr)
        return 1
    record = json.loads(done.stdout.strip().splitlines()[-1])
    details = record.pop("details")
    if setup:
        record["metrics"]["setup_s"] = {
            "value": statistics.median(start["setup_s"] for start in setup), "unit": "s"}
        details["setup_starts"] = setup
    print(json.dumps({"details": details}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
