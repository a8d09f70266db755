"""Every public library function is reached from the library itself.

A public module-level function of `src/quantcat` must be named (called,
passed or imported) somewhere in the package, or be listed in KEEP with
the reason it stays although nothing in the package uses it.  A function
that only its own unit tests call fails this scan: wire it in or delete it.

The package also holds no `assert` statement: `python -O` strips them, so
an invariant the library relies on raises `InternalError` instead.
"""

import ast
from pathlib import Path

import quantcat

SRC = Path(quantcat.__file__).parent

KEEP = {
    "functor_criterion":
        "tests/test_dist.py checks is_distributor against it",
    "monad_morphism_check":
        "the comparison σ: T → P of a submonad into the presheaf monad",
    "ball_functor_criterion":
        "functors between ball algebras, a paper result",
    "ball_morphism_check":
        "morphisms of ball algebras, a paper result",
    "l_dense_point_check":
        "L-dense points over an integral quantale, a paper result",
}


def _trees():
    return [ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")]


def _public_functions(trees):
    return {node.name for tree in trees for node in tree.body
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
    trees = _trees()
    assert _public_functions(trees) - _named(trees) == set(KEEP)


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}" for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
