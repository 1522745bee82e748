"""How far the search's frame ascents stop short of a long run.

    PYTHONPATH=src python tests/ascent_convergence.py

Runs the campaign of ``qseclab bounds-sweep --count 200 --checks
accessible_info,holevo_consistency --restarts 1`` (seed 0) and records the
start frame of every frame ascent it makes.  Each ascent is then rerun from
its own start twice: at the attempt cap ``ASCENT_STEPS``, as the search runs
it, and with the cap raised to 5000, as a reference.  Prints

- how many ascents end more than 1e-9, 1e-6 and 1e-4 bits short of their
  reference, and the worst shortfall;
- the attempts (one SVD each) and the ascents that use the whole cap, by d;
- the CPU time of the capped ascents (best of three passes) and of the
  references.

Exits 1 if any ascent, capped or reference, ends above the Holevo
information chi of its ensemble by more than 1e-8: no measurement extracts
more than chi, so such a value is a fault, not a better bound.  The counts
and times are printed only; they gate nothing.  pytest does not collect
this file.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

from qseclab import bounds, detection as det, ensembles as ens

REFERENCE_STEPS = 5000
SHORTFALLS = (1e-9, 1e-6, 1e-4)
HOLEVO_SLACK = 1e-8


def campaign_ascents() -> list[tuple[ens.CQEnsemble, np.ndarray]]:
    """(ensemble, start frame) of every ascent the campaign makes, in order."""
    ascents = []
    search, ascent = det.accessible_info_lower_bound, det._frame_ascent
    current = []

    def searched(e, *args, **kwargs):
        current[:] = [e]
        return search(e, *args, **kwargs)

    def recorded(prior, states, kets):
        ascents.append((current[0], kets.copy()))
        return ascent(prior, states, kets)

    det.accessible_info_lower_bound, det._frame_ascent = searched, recorded
    try:
        bounds.run_campaign(bounds.default_recipes(200, seed=0),
                            checks=("accessible_info", "holevo_consistency"),
                            seed=0, accessible_restarts=1)
    finally:
        det.accessible_info_lower_bound, det._frame_ascent = search, ascent
    return ascents


def counted_ascent(e: ens.CQEnsemble, kets: np.ndarray) -> tuple[float, int]:
    """The ascent's value from ``kets`` and its attempts (SVD calls)."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(None)
        return svd(*args, **kwargs)

    np.linalg.svd = counted
    try:
        bits, _ = det._frame_ascent(e.prior, e.stack, kets)
    finally:
        np.linalg.svd = svd
    return bits, len(calls)


def cpu_seconds(ascents) -> float:
    start = time.process_time()
    for e, kets in ascents:
        det._frame_ascent(e.prior, e.stack, kets)
    return time.process_time() - start


def main() -> int:
    ascents = campaign_ascents()
    cap = det.ASCENT_STEPS
    capped_cpu = min(cpu_seconds(ascents) for _ in range(3))
    capped = [counted_ascent(e, kets) for e, kets in ascents]
    det.ASCENT_STEPS = REFERENCE_STEPS
    try:
        start = time.process_time()
        reference = [counted_ascent(e, kets) for e, kets in ascents]
        reference_cpu = time.process_time() - start
    finally:
        det.ASCENT_STEPS = cap

    short = [ref - bits for (bits, _), (ref, _) in zip(capped, reference)]
    worst = int(np.argmax(short))
    print(f"{len(ascents)} ascents of bounds-sweep --count 200 --checks "
          f"accessible_info,holevo_consistency --restarts 1, cap {cap} attempts")
    print("short of the 5000-attempt reference by more than "
          + ", ".join(f"{tol:g}: {sum(s > tol for s in short)}" for tol in SHORTFALLS)
          + f"; worst {short[worst]:.3g} bits (d={ascents[worst][0].state_dim})")
    by_dim = defaultdict(list)
    for (e, _), (_, attempts) in zip(ascents, capped):
        by_dim[e.state_dim].append(attempts)
    print("d  ascents  attempts  mean  cap hits")
    for d, attempts in sorted(by_dim.items()):
        print(f"{d:<2} {len(attempts):>7} {sum(attempts):>9} {np.mean(attempts):>5.0f}"
              f" {sum(a >= cap for a in attempts):>9}")
    total = sum(attempts for _, attempts in capped)
    print(f"{'all':<2} {len(capped):>7} {total:>9} {total / len(capped):>5.0f}"
          f" {sum(a >= cap for _, a in capped):>9}")
    print(f"cpu: {capped_cpu:.2f} s for the capped ascents (best of 3), "
          f"{reference_cpu:.2f} s for the references")

    above = [(e, bits) for (e, _), (bits, _), (ref, _) in zip(ascents, capped, reference)
             for bits in (bits, ref) if bits > ens.holevo_information(e) + HOLEVO_SLACK]
    for e, bits in above:
        print(f"ABOVE CHI: {bits!r} bits > chi {ens.holevo_information(e)!r} + {HOLEVO_SLACK:g}"
              f" (n={e.n_bits}, d={e.state_dim})")
    return 1 if above else 0


if __name__ == "__main__":
    sys.exit(main())
