"""Span tracing of qseclab from outside the package.

``Tracer.install`` replaces module attributes with timing wrappers: every
public function of the traced modules, the validating ``__post_init__`` of
the operator, ensemble and POVM classes, and numpy's Hermitian eigensolvers.
Each call becomes a span with a parent (the innermost open span), timed in
CPU seconds of the process like the operations themselves.  Spans are
folded into totals as they close, so memory stays flat over a long run:

* inclusive time and call count per function,
* self time per layer, where a span's self time is its duration minus the
  durations of its children.

Only calls made while an operation span is open are recorded, so checks the
benchmark runs between operations do not count.  ``uninstall`` puts every
original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("operators", "distributions", "ensembles", "detection", "locking", "bounds", "cli")
VALIDATED_CLASSES = {
    "operators": ("DensityOperator", "HermitianOperator"),
    "ensembles": ("CQEnsemble",),
    "detection": ("POVM",),
}
EIGENSOLVERS = ("eigh", "eigvalsh")
# accessible_info_lower_bound's candidate measurements; the rest of its time
# is the search proper
SEARCH_CANDIDATES = frozenset({
    "detection.square_root_measurement",
    "detection.eigenbasis_povm",
    "detection.minimum_error_iterate",
})
OP = "bench.op"


class _Frame:
    __slots__ = ("name", "layer", "start", "children", "candidates")

    def __init__(self, name, layer, start):
        self.name = name
        self.layer = layer
        self.start = start
        self.children = 0.0
        self.candidates = 0.0


class Tracer:
    """Records spans of qseclab calls made inside ``op`` blocks."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.search_s = 0.0
        self.min_error_iterations = 0
        self.kpa = {"two_bit": [0, 0.0], "chain": [0, 0.0]}  # trials, seconds
        self.op_s = 0.0
        self.ops = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, name, layer):
        frame = _Frame(name, layer, time.process_time())
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.process_time()
        self.stack.pop()
        duration = end - frame.start
        self.calls[frame.name] = self.calls.get(frame.name, 0) + 1
        self.inclusive[frame.name] = self.inclusive.get(frame.name, 0.0) + duration
        self.self_time[frame.layer] = (
            self.self_time.get(frame.layer, 0.0) + duration - frame.children
        )
        if frame.name == "detection.accessible_info_lower_bound":
            self.search_s += duration - frame.candidates
        if self.stack:
            parent = self.stack[-1]
            parent.children += duration
            if parent.name == "detection.accessible_info_lower_bound" and frame.name in SEARCH_CANDIDATES:
                parent.candidates += duration
        return duration

    def op(self, fn, *args):
        """Run one benchmark operation as the root span."""
        frame = self._open(OP, "bench")
        try:
            return fn(*args)
        finally:
            self.op_s += self._close(frame)
            self.ops += 1

    def _wrap(self, fn, name, layer, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            frame = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer._close(frame)
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        return traced

    # -- per-function observations --------------------------------------------

    def _after_min_error(self, args, kwargs, result, seconds):
        self.min_error_iterations += int(result.iterations)

    def _after_kpa(self, args, kwargs, result, seconds):
        le = args[0] if args else kwargs["le"]
        entry = self.kpa["two_bit" if le.n_bits == 2 else "chain"]
        entry[0] += int(result.trials)
        entry[1] += seconds

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import qseclab

        modules = {layer: importlib.import_module(f"qseclab.{layer}") for layer in LAYERS}
        hooks = {
            "detection.minimum_error_iterate": self._after_min_error,
            "locking.kpa_simulate": self._after_kpa,
        }
        replacements = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                replacements[value] = self._wrap(value, name, layer, hooks.get(name))
        # a function imported by name into another module is patched there too
        for module in (qseclab, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._patch(module, attr, replacements[value])
        for layer, classes in VALIDATED_CLASSES.items():
            for cls_name in classes:
                cls = getattr(modules[layer], cls_name)
                self._patch(cls, "__post_init__",
                            self._wrap(cls.__post_init__, f"{layer}.{cls_name}", layer))
        for solver in EIGENSOLVERS:
            self._patch(np.linalg, solver,
                        self._wrap(getattr(np.linalg, solver), f"linalg.{solver}", "linalg"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    # -- results -----------------------------------------------------------------

    def layer_metrics(self, scale: float = 1.0) -> dict:
        """Per-operation figures of the recorded spans, keyed by metric name.

        ``scale`` turns the recorded CPU seconds into seconds at nominal
        machine speed.
        """
        ops = max(self.ops, 1)

        def per_op_ms(seconds):
            return 1000.0 * scale * seconds / ops

        def calls(name):
            return self.calls.get(name, 0)

        def rate(entry):
            trials, seconds = entry
            return trials / (scale * seconds) if seconds > 0.0 else 0.0

        min_error_calls = calls("detection.minimum_error_iterate")
        layer_self = sum(v for k, v in self.self_time.items() if k != "bench")
        return {
            "operators.eigensolves_per_op":
                sum(calls(f"linalg.{s}") for s in EIGENSOLVERS) / ops,
            "operators.density_checks_per_op": calls("operators.DensityOperator") / ops,
            "operators.self_ms_per_op": per_op_ms(self.self_time.get("operators", 0.0)),
            "ensembles.average_state_calls_per_op": calls("ensembles.average_state") / ops,
            "ensembles.self_ms_per_op": per_op_ms(self.self_time.get("ensembles", 0.0)),
            "ensembles.load_ms_per_op":
                per_op_ms(self.inclusive.get("ensembles.load_ensemble", 0.0)),
            "distributions.mi_calls_per_op": calls("distributions.mutual_information") / ops,
            "distributions.self_ms_per_op": per_op_ms(self.self_time.get("distributions", 0.0)),
            "detection.srm_ms_per_op":
                per_op_ms(self.inclusive.get("detection.square_root_measurement", 0.0)),
            "detection.min_error_ms_per_op":
                per_op_ms(self.inclusive.get("detection.minimum_error_iterate", 0.0)),
            "detection.min_error_iters_per_call":
                self.min_error_iterations / min_error_calls if min_error_calls else 0.0,
            "detection.povm_checks_per_op": calls("detection.POVM") / ops,
            "detection.search_ms_per_op": per_op_ms(self.search_s),
            "locking.kpa_ms_per_op": per_op_ms(self.inclusive.get("locking.kpa_simulate", 0.0)),
            "locking.kpa_trials_per_s": rate(self.kpa["two_bit"]),
            "locking.chain_kpa_trials_per_s": rate(self.kpa["chain"]),
            "bounds.build_instance_ms_per_op":
                per_op_ms(self.inclusive.get("bounds.build_instance", 0.0)),
            "bounds.self_ms_per_op": per_op_ms(self.self_time.get("bounds", 0.0)),
            "cli.self_ms_per_op": per_op_ms(self.self_time.get("cli", 0.0)),
            "linalg.eigensolve_ms_per_op": per_op_ms(self.self_time.get("linalg", 0.0)),
            "trace.op_ms_per_op": per_op_ms(self.op_s),
            "trace.attributed_pct": 100.0 * layer_self / self.op_s if self.op_s > 0.0 else 0.0,
        }
