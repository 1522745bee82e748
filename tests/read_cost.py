"""What reading an ensemble file costs.

    PYTHONPATH=src python tests/read_cost.py

Writes the chained locking ensembles of n = 4, 5 and 6 key bits (16, 32
and 64 states of d = 2^n) to a temporary directory and reads each back
with ``ensembles.load_ensemble``.  Prints, per file, its size, the CPU time
of one read (the best of three), the cyclic-collector runs of those three
reads, per generation, and the ``tracemalloc`` peak of one more read.

Exits 1 if a read raises or runs a collection: the reader pauses the
collector, since a JSON document holds no reference cycle.  The times and
peaks are printed only; they gate nothing, because they depend on the
machine.  pytest does not collect this file.
"""

from __future__ import annotations

import gc
import os
import sys
import tempfile
import time
import tracemalloc

from qseclab import ensembles as ens, locking

KEY_BITS = (4, 5, 6)
REPEATS = 3


def collections() -> list[int]:
    return [generation["collections"] for generation in gc.get_stats()]


def read_cost(path: str) -> tuple[float, list[int], int]:
    """CPU ms of the fastest of ``REPEATS`` reads, the collections the
    reads ran per generation, and the ``tracemalloc`` peak in bytes of one
    more read."""
    best = float("inf")
    gc.collect()
    before = collections()
    for _ in range(REPEATS):
        start = time.process_time()
        ens.load_ensemble(path)
        best = min(best, time.process_time() - start)
    runs = [after - was for was, after in zip(before, collections())]
    tracemalloc.start()
    try:
        ens.load_ensemble(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return 1e3 * best, runs, peak


def main() -> int:
    failed = False
    print("n  states  d   file KB  cpu ms  collections  tracemalloc peak MB")
    with tempfile.TemporaryDirectory() as tmp:
        for n_bits in KEY_BITS:
            path = os.path.join(tmp, f"chained_{n_bits}.json")
            ens.save_ensemble(locking.build_chained_locking_ensemble(n_bits).ensemble, path)
            try:
                cpu_ms, runs, peak = read_cost(path)
            except Exception as exc:  # noqa: BLE001 - reported, and the exit code says so
                print(f"{n_bits}  READ FAILED: {type(exc).__name__}: {exc}")
                failed = True
                continue
            print(f"{n_bits}  {2**n_bits:>6}  {2**n_bits:<2} {os.path.getsize(path) / 1024:>8.0f}"
                  f"  {cpu_ms:>6.1f}  {'/'.join(map(str, runs)):>11}  {peak / 2**20:>19.1f}")
            if any(runs):
                print(f"{n_bits}  COLLECTED: {runs} runs of the cyclic collector per generation")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
