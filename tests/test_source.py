"""Source hygiene: no dead private helpers in the library."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ultradyn"


def _names(node):
    """Every name used as a variable or an attribute under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_private_helpers_are_used():
    """Every module-level function or class whose name starts with "_" is
    named somewhere under src/ outside its own definition."""
    helpers, used = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used.update(_names(tree))
        helpers += [(path.name, node) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
    assert helpers, "no private helpers found: wrong source path?"
    dead = [f"{mod}:{node.name}" for mod, node in helpers
            if used[node.name] == list(_names(node)).count(node.name)]
    assert not dead, f"private helpers with no caller: {dead}"
