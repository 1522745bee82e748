"""Write a fixed set of CLI outputs for before/after comparison of a refactor.

    PYTHONPATH=src python tests/golden_outputs.py OUTDIR

Runs every command of the golden set in-process through ``cli.main`` and
writes each one's standard output to ``OUTDIR/<name>``, plus the exit codes
to ``OUTDIR/exit_codes.json``.  Ensemble files for ``criteria`` are written
under ``OUTDIR/ensembles`` and passed by a path relative to OUTDIR, so the
argument vectors embedded in the reports are the same wherever OUTDIR is.
Running it on two checkouts and comparing the directories with ``diff -r``
shows every byte a change altered.  pytest does not collect this file;
``tests/test_golden.py`` runs the same set and checks it against the
committed manifest.

    python tests/golden_outputs.py --compare OLDDIR NEWDIR

summarises how two such directories differ, file by file: for each numeric
(float) field, how many values rose, how many fell, how many of those fell
by more than round-off (``ROUND_OFF`` = 1e-12), the largest rise and the
largest fall; and, one by one, every other changed value (verdicts, summary
counts, exit codes, notes).  A field is named by its path inside a record,
with list indices written ``[]``; records are the lines of a ``.jsonl``
file, the rows of a ``.csv`` file and the ``key=value`` rows of a text
report.  It exits 1 when any such non-float value changed or a file exists
on one side only, and 0 otherwise, so it can gate a change whose floats
are allowed to move.

    PYTHONPATH=src python tests/golden_outputs.py --write-manifest

regenerates the set in a temporary directory and rewrites the two committed
records of it: ``tests/golden.sha256``, one digest per output file under a
header naming the numpy version, the BLAS library and the platform the
digests were taken on, and ``tests/golden_verdicts.json``, the portable
part (every verdict, summary count and exit code).  A change that moves
numbers on purpose rewrites them in the same commit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile

import numpy as np

from qseclab import bounds, cli, ensembles, locking

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "golden.sha256")
VERDICTS = os.path.join(HERE, "golden_verdicts.json")
ROUND_OFF = 1e-12  # a fall beyond this is counted apart from round-off


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
        ("extremal_mi_3.json",
         ["extremal", "--kind", "mutual_information", "--n", "3", "--l-prime", "50"]),
        ("extremal_vd_4.json",
         ["extremal", "--kind", "variational_distance", "--n", "4", "--l", "40"]),
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


def _scalar(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _flatten(value, path: str, record, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}" if path else key, record, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", record, out)
    else:
        out[(record, path)] = value


def _text_fields(text: str, out: dict) -> None:
    """Leaves of a text report: ``key=value`` rows, and indented ``key: value``
    blocks whose ``- item`` lines are list entries of the key above them."""
    parents: list[tuple[int, str]] = []
    items: dict[str, int] = {}
    for number, line in enumerate(text.splitlines(), 1):
        body = line.lstrip()
        indent = len(line) - len(body)
        if not body:
            continue
        if re.match(r"[\w.]+=", body):
            for part in body.split("  "):
                key, _, value = part.partition("=")
                out[(number, key)] = _scalar(value)
            continue
        if body.startswith("- "):
            parent = ".".join(key for _, key in parents)
            items[parent] = items.get(parent, -1) + 1
            out[(None, f"{parent}[{items[parent]}]")] = _scalar(body[2:])
            continue
        while parents and parents[-1][0] >= indent:
            parents.pop()
        key, _, value = body.partition(":")
        if value.strip():
            out[(None, ".".join([k for _, k in parents] + [key]))] = _scalar(value.strip())
        else:
            parents.append((indent, key))


def _leaves(path: str) -> dict:
    """A golden file as {(record, field path): value}; record is None for a
    file that is one record."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    out: dict = {}
    if path.endswith(".jsonl"):
        for number, line in enumerate(text.splitlines(), 1):
            _flatten(json.loads(line), "", number, out)
    elif path.endswith(".json"):
        if text:  # a run that failed wrote nothing
            _flatten(json.loads(text), "", None, out)
    elif path.endswith(".csv"):
        for number, row in enumerate(csv.DictReader(io.StringIO(text)), 2):
            for key, value in row.items():
                out[(number, key)] = _scalar(value)
    else:
        _text_fields(text, out)
    return out


def _files(directory: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(root, name), directory)
        for root, _, names in os.walk(directory)
        for name in names
    }


def compare(old_dir: str, new_dir: str) -> int:
    """Print how the golden outputs in ``new_dir`` differ from ``old_dir``;
    1 if a non-float value changed or a file is on one side only, else 0."""
    old_files, new_files = _files(old_dir), _files(new_dir)
    identical = 0
    status = 0
    for name in sorted(old_files | new_files):
        if name not in new_files or name not in old_files:
            print(f"{name}: only in {old_dir if name in old_files else new_dir}")
            status = 1
            continue
        old_path, new_path = os.path.join(old_dir, name), os.path.join(new_dir, name)
        with open(old_path, "rb") as a, open(new_path, "rb") as b:
            if a.read() == b.read():
                identical += 1
                continue
        old, new = _leaves(old_path), _leaves(new_path)
        moved: dict[str, list] = {}  # field -> [rose, fell, fell past round-off, rise, fall]
        changed = []
        missing = object()
        for record, field in sorted(old.keys() | new.keys(), key=str):
            a, b = old.get((record, field), missing), new.get((record, field), missing)
            if a == b:
                continue
            if type(a) is float and type(b) is float:
                stats = moved.setdefault(re.sub(r"\[\d+\]", "[]", field), [0, 0, 0, 0.0, 0.0])
                rose = b > a
                stats[0 if rose else 1] += 1
                stats[2] += a - b > ROUND_OFF
                stats[3 if rose else 4] = max(stats[3 if rose else 4], abs(b - a))
            else:
                where = "" if record is None else f"record {record} "
                shown = ["(absent)" if v is missing else repr(v) for v in (a, b)]
                changed.append(f"  {where}{field}: {shown[0]} -> {shown[1]}")
        print(name)
        if moved:
            width = max(len(field) for field in moved)
            print(f"  {'field':<{width}}  {'rose':>5}  {'fell':>5}  {f'fell>{ROUND_OFF:g}':>10}"
                  "  largest rise  largest fall")
            for field, (rose, fell, past, rise, fall) in sorted(moved.items()):
                print(f"  {field:<{width}}  {rose:>5}  {fell:>5}  {past:>10}"
                      f"  {rise:>12.3g}  {fall:>12.3g}")
        print("\n".join(changed) if changed else "  no verdict, count or text changed")
        if changed:
            status = 1
    print(f"{identical} of {len(old_files | new_files)} files byte-identical")
    return status


def write_outputs(outdir: str) -> None:
    """Write the golden set into ``outdir``; the working directory is restored."""
    os.makedirs(outdir, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
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
    finally:
        os.chdir(cwd)


def environment() -> list[str]:
    """What the digests depend on besides the code: numpy, its BLAS and the
    platform, with the SIMD extensions the CPU offers to both."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    simd = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    return [
        f"numpy {np.__version__}",
        f"blas {blas.get('name')} {blas.get('version')}",
        f"platform {platform.system()} {platform.machine()} {' '.join(simd)}".rstrip(),
    ]


def digests(directory: str) -> dict[str, str]:
    """The sha256 of every file of a golden directory, by relative path."""
    out = {}
    for name in sorted(_files(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def read_manifest() -> tuple[list[str], dict[str, str]]:
    """The environment named in the manifest's header (the lines after its
    title) and the digests it records."""
    header, recorded = [], {}
    with open(MANIFEST, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                header.append(line[2:].rstrip("\n"))
            elif line.strip():
                digest, name = line.rstrip("\n").split("  ", 1)
                recorded[name] = digest
    return header[1:], recorded


def portable_fields(directory: str) -> dict[str, dict]:
    """What may not move on any platform, per output file: each verdict
    field as one letter per record (the initial of pass, fail, inconclusive
    or not_applicable), each summary count and every exit code."""
    out = {}
    for name in sorted(_files(directory)):
        if name.startswith("ensembles"):
            continue
        fields: dict = {}
        for (_, field), value in _leaves(os.path.join(directory, name)).items():
            if field.endswith("_verdict"):
                fields[field] = fields.get(field, "") + value[0]
            elif (name == "exit_codes.json" or field == "hard_failures"
                  or field.startswith("summary.") and type(value) is int):
                fields[field] = value
        if fields:
            out[name] = fields
    return out


def write_manifest() -> None:
    """Regenerate the golden set and rewrite the committed manifest and
    portable fields from it."""
    with tempfile.TemporaryDirectory() as outdir:
        write_outputs(outdir)
        recorded, portable = digests(outdir), portable_fields(outdir)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write("# sha256 of each output of tests/golden_outputs.py, taken on:\n")
        fh.writelines(f"# {line}\n" for line in environment())
        fh.writelines(f"{digest}  {name}\n" for name, digest in recorded.items())
    with open(VERDICTS, "w", encoding="utf-8") as fh:
        json.dump(portable, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if argv == ["--write-manifest"]:
        write_manifest()
        return 0
    if len(argv) != 1:
        print("usage: golden_outputs.py OUTDIR | --compare OLDDIR NEWDIR | --write-manifest",
              file=sys.stderr)
        return 2
    write_outputs(os.path.abspath(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
