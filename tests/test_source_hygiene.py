"""Source hygiene: every function and class in ``src/repro`` is named somewhere.

The scan parses ``src/repro`` with :mod:`ast` and collects each non-dunder
``def``/``class``.  A definition counts as used when its name appears as an
identifier (a name, an attribute, an import or an identifier-shaped string
such as a ``getattr`` key or an ``__all__`` entry) anywhere in ``src/``,
``tests/``, ``benchmarks/``, ``examples/`` or ``e2ebench/`` outside the
definition itself.  Another definition of the same name counts too: an
override is reached through the name it shares.  A definition named nowhere
else is dead code; delete it rather than let it drift out of date.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
REFERENCE_ROOTS = ("src", "tests", "benchmarks", "examples", "e2ebench")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _identifiers(tree):
    """Every identifier in ``tree``, definition names included."""
    for node in ast.walk(tree):
        if isinstance(node, _DEFINITIONS):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.match(node.value):
                yield node.value


def _python_files():
    for root in REFERENCE_ROOTS:
        yield from sorted((ROOT / root).rglob("*.py"))


def unreferenced_definitions():
    """``(module path, qualified name)`` of every definition named nowhere."""
    references = Counter()
    source_trees = []
    for path in _python_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        references.update(_identifiers(tree))
        if SOURCE in path.parents:
            source_trees.append((path, tree))

    unused = []

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, _DEFINITIONS):
                visit(path, child, prefix)
                continue
            name = child.name
            qualname = f"{prefix}{name}"
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder:
                inside = Counter(_identifiers(child))
                if references[name] - inside[name] <= 0:
                    unused.append((str(path.relative_to(ROOT)), qualname))
            visit(path, child, f"{qualname}.")

    for path, tree in source_trees:
        visit(path, tree, "")
    return unused


def test_every_definition_is_referenced():
    unused = unreferenced_definitions()
    assert not unused, "definitions named nowhere outside themselves:\n" + "\n".join(
        f"  {path}: {qualname}" for path, qualname in unused
    )
