"""Tripwires for test-only code in the package, and for parameters no learner reads.

Every top-level function and class of src/omdkit must be named somewhere
else in the package or in the bench scripts. A name that only tests use
belongs in the tests (tests/lemmas.py holds the lemma checks and oracles
that left the package). __init__.py is no caller: it re-exports names.
"""

import ast
import pickle
import re
from pathlib import Path

from omdkit.harness import CHOICES, LEARNERS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "omdkit"


def test_every_top_level_name_of_the_package_has_a_caller_outside_the_tests():
    modules = {p: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    bench = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py"))]
    unused = []
    for path, text in modules.items():
        if path.name == "__main__.py":
            continue
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1
            # the module without the definition itself, then every other file
            rest = "\n".join(lines[:start] + lines[node.end_lineno:])
            others = [rest, *(t for p, t in modules.items() if p != path), *bench]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in others):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"defined in the package but named only by tests: {unused}"


def _other_value(key, default):
    """Another valid value of a learner parameter."""
    if key in CHOICES:
        return next(c for c in CHOICES[key] if c != default)
    if key == "fixed_eta":  # it must stay in [0, 1]
        return default / 2
    if key == "p":  # it must stay in (1, 2]
        return 1.75
    return 2 * default if default else 0.5


def test_every_learner_parameter_changes_the_learner_it_builds():
    unread = []
    for name, (factory, defaults) in LEARNERS.items():
        base = pickle.dumps(factory(4, defaults))
        for key, default in defaults.items():
            other = factory(4, {**defaults, key: _other_value(key, default)})
            if pickle.dumps(other) == base:
                unread.append(f"{name}.{key}")
    assert not unread, f"parameters that do not change the learner: {unread}"
