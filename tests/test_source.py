"""Checks on the source of ``apsn`` itself, read with ``ast``."""
import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "apsn"


def _named(node):
    """Every name that ``node`` reads, imports or reaches as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_helper_is_named_outside_its_definition():
    """A module-level ``_``-prefixed function or class of ``src/apsn`` that
    nothing names but its own body is a leftover: a helper whose last
    caller was deleted."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = collections.Counter(name for tree in trees.values() for name in _named(tree))
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and everywhere[node.name] == collections.Counter(_named(node))[node.name]
    ]
    assert unused == []
