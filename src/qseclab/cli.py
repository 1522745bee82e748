"""Command-line front end.

Four commands: ``locking-demo`` (build the counterexample and run its
attack), ``criteria`` (evaluate every criterion on an ensemble file),
``bounds-sweep`` (randomized inequality campaigns), ``extremal`` (spike
constructions).  All randomness flows through the single --seed flag and
every report embeds tool version, command line and seed, so identical
invocations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, bounds, detection, distributions, ensembles, locking
from .errors import Error

FORMATS = ("json", "csv", "text")


def _envelope(command: str, argv: list[str], seed: int) -> dict:
    return {
        "tool": "qseclab",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "seed": seed,
    }


def _dump_json(obj) -> str:
    """A report's text: ``json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False) + "\\n"``, byte for byte; a NaN or infinity, which JSON
    cannot hold, is an ``Error``.

    A report holds str-keyed dicts, lists, scalars of the exact types
    ``str``, ``int``, ``float``, ``bool`` and ``None``, and 1-D ``float64``
    arrays, each written as its ``tolist()`` would be.  Any other type is
    json's ``TypeError``.

    json's C encoder ignores ``indent``, so that call encodes element by
    element in Python.  Here only the layout of dicts and lists is written
    in Python; each scalar by the function json uses for it, and an array
    by :func:`_json_text` a run of equal values at a time.
    """
    try:
        return _json_text(obj, "") + "\n"
    except ValueError as exc:
        raise _refusal(obj, exc) from exc


def _json_line(obj) -> str:
    """One compact JSON line, refusing NaN and infinities like :func:`_dump_json`."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise _refusal(obj, exc) from exc


def _refusal(obj, exc: ValueError) -> Error:
    """json's refusal of ``obj`` as an ``Error``.  json's C encoder refuses
    every NaN or infinity with the text ``json.dumps(value, allow_nan=False)``
    gives; the path of the first one in the order json writes it is added,
    such as ``(at criteria.d)``."""
    path = _non_finite_path(obj, "")
    if path is None:  # not a NaN: an int too long for int.__repr__
        return Error(f"report not written: {exc}")
    return Error(f"report not written: {exc} (at {path or 'the top level'})")


def _non_finite_path(obj, path: str) -> str | None:
    """The path below ``path`` of the first NaN or infinity in ``obj``, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, np.ndarray):
        bad = np.flatnonzero(~np.isfinite(obj))
        return f"{path}[{bad[0]}]" if bad.size else None
    if isinstance(obj, dict):
        children = ((f"{path}.{key}" if path else key, obj[key]) for key in sorted(obj))
    elif isinstance(obj, list):
        children = ((f"{path}[{i}]", item) for i, item in enumerate(obj))
    else:
        return None
    for child_path, child in children:
        found = _non_finite_path(child, child_path)
        if found is not None:
            return found
    return None


# json's text for each exact scalar type; json refuses a NaN or infinity
# with its own ValueError
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x, allow_nan=False),
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(obj, pad: str) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for a report value
    nested at ``pad``: one of the types :func:`_dump_json` names, where an
    array stands for its ``tolist()``; any other type is json's
    ``TypeError``.

    An array is written by runs of equal IEEE bit patterns: the runs are
    found with one pass over the adjacent ``uint64`` patterns, the first
    value of every run is encoded in one ``json.dumps`` call, and each
    text is repeated for its run.  Equal bits have equal text, so the
    bytes are json's.
    """
    scalar_text = _SCALAR_TEXT.get(type(obj))
    if scalar_text is not None:
        return scalar_text(obj)
    inner = pad + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        items = [f"{encode_basestring_ascii(key)}: {_json_text(obj[key], inner)}"
                 for key in sorted(obj)]
        brackets = "{}"
    elif type(obj) is list:
        if not obj:
            return "[]"
        items = [_json_text(item, inner) for item in obj]
        brackets = "[]"
    elif type(obj) is np.ndarray and obj.dtype == np.float64 and obj.ndim == 1:
        if not obj.size:
            return "[]"
        bits = obj.view(np.uint64)
        starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
        texts = json.dumps(obj[np.append(0, starts)].tolist(), allow_nan=False)[1:-1].split(", ")
        items = []
        for text, count in zip(texts, np.diff(starts, prepend=0, append=obj.size).tolist()):
            items += [text] * count
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    separator = ",\n" + inner
    return f"{brackets[0]}\n{inner}{separator.join(items)}\n{pad}{brackets[1]}"


def _dump_text(obj, indent: int = 0) -> str:
    """The text format: one ``key: value`` or ``- item`` line per leaf; an
    array is written as its ``tolist()``."""
    pad = "  " * indent
    lines = []
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list, np.ndarray)):
                lines.append(f"{pad}{key}:")
                lines.append(_dump_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list, np.ndarray)):
                lines.append(_dump_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{obj}")
    return "\n".join(line for line in lines if line)


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise Error(f"cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _emit_report(payload: dict, args) -> None:
    """Write a report in the requested json or text format."""
    text = _dump_json(payload) if args.format == "json" else _dump_text(payload) + "\n"
    _emit(text, args.out)


def _int_at_least(value: str, low: int) -> int:
    number = int(value)
    if number < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {number}")
    return number


def _positive_int(value: str) -> int:
    return _int_at_least(value, 1)


def _non_negative_int(value: str) -> int:
    return _int_at_least(value, 0)


def _add_common(parser, formats=FORMATS):
    parser.add_argument("--seed", type=_non_negative_int, default=0,
                        help="seed recorded in the report")
    parser.add_argument("--format", choices=formats, default="json")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def cmd_locking_demo(args, argv) -> int:
    le = locking.build_locking_ensemble(args.variant)
    report = locking.locking_report(le, trials=args.trials, seed=args.seed)
    if args.emit_ensemble:
        ensembles.save_ensemble(le.ensemble, args.emit_ensemble)
    payload = _envelope("locking-demo", argv, args.seed)
    payload.update(report.to_dict())
    payload["trials"] = args.trials
    # hard invariants of the demo; a miss is an internal failure, not a report
    per_key = payload["ideal_reference_per_key"]
    pattern_keys = ("11", "10", "01") if args.variant == "as_printed" else tuple(per_key)
    for key in pattern_keys:
        if abs(per_key[key] - 0.5) > 1e-10:
            raise Error(f"ideal reference for key {key} is {per_key[key]}, not 1/2")
    if not payload["criteria"]["d"] < 1.0 - 1e-6:
        raise Error("trace criterion unexpectedly reached 1")
    _emit_report(payload, args)
    return 0


def cmd_criteria(args, argv) -> int:
    e = ensembles.load_ensemble(args.ensemble)
    record = detection.criteria_record(e)
    payload = _envelope("criteria", argv, args.seed)
    payload["criteria"] = record.to_dict()
    payload["n_bits"] = e.n_bits
    payload["state_dim"] = e.state_dim
    payload["forms_agreement_residual"] = (
        None if record.d_joint is None else abs(record.d_joint - record.d)
    )
    payload["ideal_reference_mean"] = ensembles.ideal_comparison_value(e).mean
    _emit_report(payload, args)
    return 0


def cmd_bounds_sweep(args, argv) -> int:
    kinds = tuple(args.kinds.split(",")) if args.kinds else bounds.RECIPE_KINDS
    recipes = bounds.default_recipes(
        args.count, seed=args.seed, max_n=args.max_n, max_dim=args.max_dim, kinds=kinds
    )
    checks = tuple(args.checks.split(",")) if args.checks else bounds.DEFAULT_CHECKS
    result = bounds.run_campaign(
        recipes, checks=checks, seed=args.seed, accessible_restarts=args.restarts
    )
    rows = [report.to_flat_dict() for report in result.reports]
    summary = {
        "summary": result.summary,
        "hard_failures": result.hard_failures,
        **_envelope("bounds-sweep", argv, args.seed),
    }
    if args.format == "json":
        lines = [_json_line(row) for row in rows + [summary]]
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "csv":
        columns = list(dict.fromkeys(key for row in rows for key in row))
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        _emit(buffer.getvalue(), args.out)
    else:
        lines = []
        for row in rows:
            cells = [f"{k}={row[k]}" for k in sorted(row)]
            lines.append("  ".join(cells))
        lines.append("summary:")
        lines.append(_dump_text(result.summary, 1))
        lines.append(f"hard_failures: {result.hard_failures}")
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if result.hard_failures else 0


def cmd_extremal(args, argv) -> int:
    if args.kind == "mutual_information":
        if args.l is not None:
            raise Error("--l belongs to the variational_distance kind")
        if args.l_prime is None:
            raise Error("--l-prime is required for the mutual_information kind")
        construction = distributions.spike_for_mutual_information(args.n, args.l_prime)
    else:
        if args.l_prime is not None:
            raise Error("--l-prime belongs to the mutual_information kind")
        if args.l is None:
            raise Error("--l is required for the variational_distance kind")
        construction = distributions.spike_for_variational_distance(args.n, args.l)
    spike = construction.resulting_distribution
    p1 = construction.resulting_p1
    payload = _envelope("extremal", argv, args.seed)
    payload.update(dataclasses.asdict(construction))
    payload["resulting_p1_exponent"] = -math.log2(p1) if p1 > 0 else None
    payload["materialized"] = spike is not None
    payload["resulting_distribution"] = spike  # as the array: no 2^n-entry list is made
    _emit_report(payload, args)
    return 0


@functools.cache  # parsing leaves the parser as it was, so in-process callers share one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qseclab",
        description="Key-secrecy criteria laboratory for classical-quantum ensembles.",
    )
    parser.add_argument("--version", action="version", version=f"qseclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("locking-demo", help="build the locking counterexample and attack it")
    p.add_argument("--variant", choices=locking.VARIANTS, default="symmetric_corrected")
    p.add_argument("--trials", type=_positive_int, default=100_000)
    p.add_argument("--emit-ensemble", default=None, dest="emit_ensemble",
                   help="also write the ensemble file for round-tripping")
    _add_common(p, formats=("json", "text"))
    p.set_defaults(func=cmd_locking_demo)

    p = sub.add_parser("criteria", help="evaluate criteria on an ensemble file")
    p.add_argument("ensemble", help="path to a JSON ensemble record")
    _add_common(p, formats=("json", "text"))
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("bounds-sweep", help="run randomized inequality campaigns")
    p.add_argument("--count", type=_positive_int, default=100)
    p.add_argument("--kinds", default=None, help="comma list of recipe kinds")
    p.add_argument("--checks", default=None, help="comma list of checks")
    p.add_argument("--max-n", type=_positive_int, default=3, dest="max_n")
    p.add_argument("--max-dim", type=_positive_int, default=8, dest="max_dim")
    p.add_argument("--restarts", type=_non_negative_int, default=0,
                   help="search restarts for the accessible-information checks")
    _add_common(p)
    p.set_defaults(func=cmd_bounds_sweep)

    p = sub.add_parser("extremal", help="spike constructions under a constraint")
    p.add_argument("--kind", choices=("mutual_information", "variational_distance"),
                   required=True)
    p.add_argument("--n", type=_positive_int, required=True, help="key length in bits")
    p.add_argument("--l-prime", type=float, default=None, dest="l_prime",
                   help="entropy-deficit exponent (mutual_information kind)")
    p.add_argument("--l", type=float, default=None,
                   help="distance exponent (variational_distance kind)")
    _add_common(p, formats=("json", "text"))
    p.set_defaults(func=cmd_extremal)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except Error as exc:
        print(f"qseclab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
