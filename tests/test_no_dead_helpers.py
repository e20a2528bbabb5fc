"""No public helper without a caller.

Every public module-level function or class of ``twobridge`` must be
referenced, by name or as an attribute, somewhere in the library or in the
benchmark outside its own definition.  The re-exports in ``__init__`` and
the unit tests do not count: a helper that only its own tests call is dead.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "twobridge").glob("*.py"))
CALLERS = [path for path in LIBRARY if path.name != "__init__.py"]
CALLERS += sorted((ROOT / "bench").glob("*.py"))

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(node: ast.AST) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def dead_helpers() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in {*LIBRARY, *CALLERS}}
    everywhere = sum((references(trees[path]) for path in CALLERS), Counter())
    dead = []
    for path in LIBRARY:
        for node in trees[path].body:
            if (isinstance(node, DEFINITIONS) and not node.name.startswith("_")
                    and everywhere[node.name] <= references(node)[node.name]):
                dead.append(f"{path.stem}.{node.name}")
    return dead


def test_every_public_helper_has_a_caller():
    assert dead_helpers() == []
