"""Write a fixed set of CLI outputs for before/after comparison of a refactor.

    PYTHONPATH=src python tests/golden_outputs.py OUTDIR

Runs every command of the golden set in-process through ``cli.main`` and
writes each one's standard output to ``OUTDIR/<name>``, plus the exit codes
to ``OUTDIR/exit_codes.json``.  Ensemble files for ``criteria`` are written
under ``OUTDIR/ensembles`` and passed by a path relative to OUTDIR, so the
argument vectors embedded in the reports are the same wherever OUTDIR is.
Running it on two checkouts and comparing the directories with ``diff -r``
shows every byte a change altered.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from qseclab import bounds, cli, ensembles, locking


def golden_runs() -> list[tuple[str, list[str]]]:
    """(output name, argv) pairs; ensemble files must already exist."""
    runs = []
    for variant in locking.VARIANTS:
        for fmt in ("json", "text"):
            runs.append((f"locking-demo_{variant}.{fmt}",
                         ["locking-demo", "--variant", variant, "--format", fmt]))
    for name in ensemble_names():
        runs.append((f"criteria_{name}.json", ["criteria", f"ensembles/{name}.json"]))
    runs += [
        ("sweep_600_seed3.jsonl", ["bounds-sweep", "--count", "600", "--seed", "3"]),
        ("sweep_200_seed3.csv",
         ["bounds-sweep", "--count", "200", "--seed", "3", "--format", "csv"]),
        ("sweep_200_seed3.text",
         ["bounds-sweep", "--count", "200", "--seed", "3", "--format", "text"]),
        ("sweep_all_checks_100_seed5.csv",
         ["bounds-sweep", "--count", "100", "--seed", "5", "--format", "csv",
          "--checks", "pinsker,quantum_pinsker,chi_two_sided,accessible_info,"
                      "holevo_consistency,exponent_relation"]),
        ("sweep_accessible_200_seed5.jsonl",
         ["bounds-sweep", "--count", "200", "--seed", "5",
          "--checks", "accessible_info,holevo_consistency"]),
        ("sweep_restarts_30_seed5.jsonl",
         ["bounds-sweep", "--count", "30", "--max-n", "2", "--max-dim", "4", "--seed", "5",
          "--checks", "accessible_info", "--restarts", "1"]),
        ("sweep_restarts2_40_seed7.jsonl",
         ["bounds-sweep", "--count", "40", "--max-dim", "8", "--seed", "7",
          "--checks", "accessible_info", "--restarts", "2"]),
        ("extremal_mi_4000.json",
         ["extremal", "--kind", "mutual_information", "--n", "4000", "--l-prime", "21"]),
        ("extremal_mi_8.json",
         ["extremal", "--kind", "mutual_information", "--n", "8", "--l-prime", "0.25"]),
        ("extremal_mi_8.text",
         ["extremal", "--kind", "mutual_information", "--n", "8", "--l-prime", "0.25",
          "--format", "text"]),
        ("extremal_vd_10.json",
         ["extremal", "--kind", "variational_distance", "--n", "10", "--l", "3.5"]),
    ]
    return runs


def ensemble_names() -> list[str]:
    return [f"recipe_{i:02d}" for i in range(40)] + [f"chained_{n}" for n in (3, 4, 5)]


def write_ensembles(directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    built = [bounds.build_instance(r) for r in bounds.default_recipes(40, seed=3)]
    built += [locking.build_chained_locking_ensemble(n).ensemble for n in (3, 4, 5)]
    for name, e in zip(ensemble_names(), built):
        ensembles.save_ensemble(e, os.path.join(directory, f"{name}.json"))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: golden_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = os.path.abspath(argv[0])
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    write_ensembles("ensembles")
    codes = {}
    for name, run_argv in golden_runs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes[name] = cli.main(run_argv)
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
    with open("exit_codes.json", "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
