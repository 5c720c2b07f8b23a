"""Tripwire for test-only code in the package.

Every top-level function and class of src/omdkit must be named somewhere
else in the package or in the bench scripts. A name that only tests use
belongs in the tests (tests/lemmas.py holds the lemma checks and oracles
that left the package). __init__.py is no caller: it re-exports names.
"""

import ast
import re
from pathlib import Path

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
