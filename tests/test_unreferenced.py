"""Pins the functions and classes of the package that no package code
refers to.

A top-level function or class of ``src/qseclab`` counts as unreferenced
when no other module (the ``__init__`` re-exports aside) and no other code
of its own module names it.  Each public one must be listed below with the
reason it stays; a new one is either called from a report or deleted.
Private ones are pinned the same way to ``ALLOWED_PRIVATE``, which is
empty: a private function is deleted with its last caller in the package.

The same parse pins the layer order ``LAYERS``: a module imports only the
modules before it, at module level or inside a function.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qseclab"

ALLOWED = {
    "detection.conditioned_ensemble": "KPA arithmetic: keys consistent with known bits",
    "ensembles.semantic_security_gap": "KPA arithmetic: hidden-bit posterior uniformity",
    "distributions.markov_individual_bound": "KPA arithmetic: average to per-value bound",
    "distributions.pushforward_max": "KPA arithmetic: guessing a function of the key",
    "distributions.max_event_gap": "the greedy side of the greedy-vs-exhaustive pair",
    "locking.build_chained_locking_ensemble": "n-bit locking ensembles for the benchmark",
    "distributions.variational_distance": "the public form of the criteria's distance",
    "distributions.shannon_entropy":
        "the validated form of `_entropy_bits`, for a caller's distribution",
    "bounds.check_pinsker":
        "the pinsker check on a caller's joint; campaigns check the shared square-root joint",
    "ensembles.measured_criteria":
        "the measured criteria of a caller's measurement; reports use the square-root joint",
    "detection.minimum_error_iterate":
        "the certified result for a caller; ROADMAP item 2 reports it",
    "detection.eigenbasis_povm":
        "a caller's matrix; the search builds the same elements from the shared eigh",
    "operators.HermitianOperator":
        "input type patched by `bench/tracer.py`; goes with ROADMAP item 1",
    "detection.POVM":
        "input type for a caller's measurement; patched by `bench/tracer.py`",
}

ALLOWED_PRIVATE: dict[str, str] = {}

# each module builds on the ones before it; ``__init__`` re-exports them all
LAYERS = ("errors", "operators", "distributions", "ensembles", "detection", "locking",
          "bounds", "cli")


def _names(node) -> set[str]:
    """Every name, attribute and imported name that ``node`` mentions."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def _unreferenced() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    unreferenced = set()
    for module, tree in trees.items():
        elsewhere = set().union(*(_names(t) for m, t in trees.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = set().union(*(_names(other) for other in tree.body if other is not node))
            if node.name not in elsewhere | own:
                unreferenced.add(f"{module}.{node.name}")
    return unreferenced


def test_unreferenced_public_functions_are_the_allowed_ones():
    assert {name for name in _unreferenced() if "._" not in name} == set(ALLOWED)


def test_unreferenced_private_functions_are_the_allowed_ones():
    assert {name for name in _unreferenced() if "._" in name} == set(ALLOWED_PRIVATE)



def _imported_modules(tree) -> set[str]:
    """The package modules that ``tree`` imports anywhere, relatively or not."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").startswith("qseclab")):
            # ``from .m import x`` names m, ``from . import m`` names it among the aliases
            found.update((node.module or "").split("."), (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            found.update(*(alias.name.split(".") for alias in node.names
                           if alias.name.startswith("qseclab.")))
    return found & set(LAYERS)


def test_each_module_imports_only_the_layers_before_it():
    assert sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__") \
        == sorted(LAYERS)
    upward = {}
    for rank, module in enumerate(LAYERS):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        later = _imported_modules(tree) - set(LAYERS[:rank])
        if later:
            upward[module] = sorted(later)
    assert upward == {}
