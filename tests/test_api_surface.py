"""The package holds only what a CLI command or the battery runs.

Reachability is by name, over the abstract syntax trees of
`src/quantcat`.  The roots are the functions of `cli.py`, every name in
a module's top-level statements other than its definitions (so
`selftest.CRITERIA`, and through it the battery, is a root), and KEEP.
A top-level function or class is reached when a reached definition or
a root names it (calls it, passes it, raises it or subclasses it).  A
definition that only tests, or only other unreached definitions, name
fails the scan: wire it in or delete it.  A public method of a package
class that nothing in the package names as an attribute is an orphan
too.  Test oracles live in `tests/helpers.py`.  KEEP holds what stays
although nothing in the package names it yet, each with its reason.

Every import in the package and in the tests is used, and the package
holds no `assert` statement: `python -O` strips them, so an invariant
the library relies on raises `InternalError` instead.  No module of the
package imports `dataclasses` or `typing`: every CLI process would pay
for them at start-up (`dataclasses` loads `inspect`, `ast` and `dis`),
and `quantale.Record` gives the frozen records their semantics.
"""

import ast
from pathlib import Path

import quantcat

SRC = Path(quantcat.__file__).parent
TESTS = Path(__file__).parent

# standard modules no module of the package may import
HEAVY = {"dataclasses", "typing"}

KEEP = {
    "monad_morphism_check":
        "the comparison σ: T → P of a submonad into the presheaf monad",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in SRC.glob("*.py")}


def _public_functions(trees):
    """The public top-level functions, and the public methods of the
    top-level classes: a method only tests call is an orphan too."""
    tops = [node for tree in trees for node in tree.body]
    methods = [node for cls in tops if isinstance(cls, ast.ClassDef) for node in cls.body]
    return {node.name for node in tops + methods
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _named(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_orphans_are_exactly_the_kept_functions():
    trees = _trees().values()
    assert _public_functions(trees) - _named(trees) == set(KEEP)


def test_every_definition_is_reached_from_the_cli_or_the_battery():
    trees = _trees()
    defined = {}  # name -> the modules that define it at top level
    uses = {}     # name -> every name its definitions mention
    roots = set(KEEP)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(module)
                uses.setdefault(node.name, set()).update(_named([node]))
                if module == "cli":
                    roots.add(node.name)
            else:
                roots |= _named([node])
    reached = set()
    todo = [name for name in roots if name in defined]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(uses[name] & defined.keys())
    unreached = sorted(f"{module}.{name}" for name in defined.keys() - reached
                       for module in defined[name])
    assert unreached == []


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    found = [entry for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
             for entry in _unused_imports(path)]
    assert found == []


def test_no_start_up_heavy_imports():
    found = [f"{path.name}:{node.lineno}" for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Import) and any(
                 alias.name.split(".")[0] in HEAVY for alias in node.names))
             or (isinstance(node, ast.ImportFrom) and node.level == 0
                 and node.module.split(".")[0] in HEAVY)]
    assert found == []


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}" for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
