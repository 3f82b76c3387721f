"""Every public function, class, method and property has a caller outside tests.

A public top-level definition in `src/quadgeo`, or a public method or
property of a public class there, counts as used when its name appears (as
a name or an attribute) in `src/quadgeo` or `perfbench`, outside its own
definition.  Matching is by name only, for methods as for functions: a
name counts as used when any name or attribute of the same spelling is
used, whatever object it belongs to (`SymmetricPair.split` also matches
`str.split` in cli.py), so a test-only method whose name something else
shares still passes.  Dunder methods are not checked.  The names below are used by tests only, on
purpose, and each must be named by some test.  Oracles and inputs that only
tests need live in tests/oracles.py, not in the package.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

TEST_ONLY = (
    ("loop_tools.structure_identity_residual", "to become a gate on a curved harmonic map"),
    ("loop_tools.blaschke_condition_residual", "to become a gate on a curved harmonic map"),
)


def _uses(node):
    """Each use of a name or attribute name under `node`, once per use."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]


def _public(body):
    return [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _unreferenced():
    """Public definitions whose name nothing in src/ or perfbench/ uses outside them.

    Top-level functions and classes go by `module.name`, the methods and
    properties of public classes by `module.Class.name`.
    """
    package = sorted((ROOT / "src" / "quadgeo").glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in package + sorted((ROOT / "perfbench").glob("*.py"))}
    uses = collections.Counter(name for tree in trees.values() for name in _uses(tree))
    definitions = []
    for path in package:
        for node in _public(trees[path].body):
            definitions.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{path.stem}.{node.name}.{member.name}", member)
                                for member in _public(node.body)]
    # unused when every use of the name lies inside the definition itself
    return {qualified for qualified, node in definitions
            if uses[node.name] == _uses(node).count(node.name)}


def test_public_api_has_callers_outside_tests():
    unreferenced = _unreferenced()
    kept = {name for name, _ in TEST_ONLY}
    assert unreferenced - kept == set(), "public but only tests reach it"
    assert kept - unreferenced == set(), "now used outside tests: drop it from TEST_ONLY"
    tested = {name for path in sorted((ROOT / "tests").glob("*.py"))
              if path.name != pathlib.Path(__file__).name
              for name in _uses(ast.parse(path.read_text()))}
    dead = {name for name in kept if name.split(".")[-1] not in tested}
    assert dead == set(), "no test names it: delete it rather than list it"

