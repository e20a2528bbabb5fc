"""No public helper without a caller, no option without a setter, one
home per name, and no check counted that nothing checks.

Every public module-level function or class of ``twobridge`` must be
referenced, by name or as an attribute, somewhere in the library or in the
benchmark outside its own definition.  Every defaulted parameter of a
public module-level function must be set by some call there, positionally,
by keyword or through ``*``/``**``.  The unit tests do not count: a helper
or an option that only its own tests use is dead.

Each name is bound in the library module that defines it and in the
modules that use it, nowhere else: a module that imports a name from
another ``twobridge`` module must use it outside the import.  Importing
one module then loads only the modules it needs.

The verification suites count an item only through ``_Failures.expect``,
which pairs each count with a condition.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "twobridge").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "bench").glob("*.py"))
TREES = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(node: ast.AST) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def public_definitions(kinds=DEFINITIONS):
    for path in LIBRARY:
        for node in TREES[path].body:
            if isinstance(node, kinds) and not node.name.startswith("_"):
                yield path.stem, node


def dead_helpers() -> list[str]:
    everywhere = sum((references(TREES[path]) for path in CALLERS), Counter())
    return [f"{module}.{node.name}" for module, node in public_definitions()
            if everywhere[node.name] <= references(node)[node.name]]


def defaulted(node: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, or None when keyword-only; name) of each defaulted parameter."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    return ([(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            + [(None, arg.arg) for arg, default
               in zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None])


def sets(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether the call may pass the parameter: unpacked arguments may set any."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(keyword.arg in (None, name) for keyword in call.keywords):
        return True
    return index is not None and index < len(call.args)


def unset_options() -> list[str]:
    by_name: dict[str, list[ast.Call]] = {}
    for path in CALLERS:
        for call in ast.walk(TREES[path]):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                by_name.setdefault(name, []).append(call)
    return [f"{module}.{node.name}({name})"
            for module, node in public_definitions((ast.FunctionDef, ast.AsyncFunctionDef))
            for index, name in defaulted(node)
            if not any(sets(call, index, name) for call in by_name.get(node.name, []))]


def test_every_public_helper_has_a_caller():
    assert dead_helpers() == []


def test_every_option_has_a_setter():
    assert unset_options() == []


def only_re_exported() -> list[str]:
    """Names a library module imports from a ``twobridge`` module and never uses."""
    unused = []
    for path in LIBRARY:
        tree = TREES[path]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "twobridge"):
                names = (alias.asname or alias.name for alias in node.names)
                unused += [f"{path.stem}.{name}" for name in names if name not in used]
    return unused


def loaded_modules(module: str) -> list[str]:
    """The ``twobridge`` modules a fresh interpreter holds after importing one."""
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
            "print(*sorted(n for n in sys.modules if n.split('.')[0] == 'twobridge'))")
    return subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True).stdout.split()


def test_no_name_is_only_re_exported():
    assert only_re_exported() == []


def test_importing_a_module_loads_only_what_it_needs():
    assert loaded_modules("twobridge.slopes") == ["twobridge", "twobridge.slopes"]
    # The command line loads every layer, which the benchmark reads from
    # sys.modules after importing it.
    assert loaded_modules("twobridge.cli") == [
        "twobridge", "twobridge.cli", "twobridge.decide", "twobridge.pieces",
        "twobridge.reflections", "twobridge.seqs", "twobridge.slopes",
        "twobridge.verification", "twobridge.words"]


def counts_set_outside_expect() -> list[str]:
    """Lines of ``verification`` outside ``_Failures`` that assign to or
    augment an attribute named ``items``."""
    path = ROOT / "src" / "twobridge" / "verification.py"
    found = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef) and node.name == "_Failures":
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend(f"verification.py:{node.lineno}" for target in targets
                         for sub in ast.walk(target)
                         if isinstance(sub, ast.Attribute) and sub.attr == "items")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(TREES[path])
    return found


def test_check_counts_come_only_from_expect():
    assert counts_set_outside_expect() == []
