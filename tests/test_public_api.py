"""Every public function and class of the package has a caller outside tests.

A public top-level definition in `src/quadgeo` counts as used when its name
appears (as a name or an attribute) in `src/quadgeo` or `perfbench`, outside
its own definition.  The names below are used by tests only, on purpose,
and each must be named by some test.  Oracles and inputs that only tests
need live in tests/oracles.py, not in the package.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

TEST_ONLY = (
    ("loop_tools.structure_identity_residual", "to become a gate on a curved harmonic map"),
    ("loop_tools.blaschke_condition_residual", "to become a gate on a curved harmonic map"),
)


def _names(node):
    """Names and attribute names used under `node`."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _unreferenced():
    """Public definitions no other top-level statement of src/ or perfbench/ names."""
    package = sorted((ROOT / "src" / "quadgeo").glob("*.py"))
    statements = [(path, node) for path in package + sorted((ROOT / "perfbench").glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    uses = collections.Counter(name for _, node in statements for name in _names(node))
    return {f"{path.stem}.{node.name}" for path, node in statements
            if path in package and isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and uses[node.name] == (node.name in _names(node))}


def test_public_api_has_callers_outside_tests():
    unreferenced = _unreferenced()
    kept = {name for name, _ in TEST_ONLY}
    assert unreferenced - kept == set(), "public but only tests reach it"
    assert kept - unreferenced == set(), "now used outside tests: drop it from TEST_ONLY"
    tested = {name for path in sorted((ROOT / "tests").glob("*.py"))
              if path.name != pathlib.Path(__file__).name
              for name in _names(ast.parse(path.read_text()))}
    dead = {name for name in kept if name.split(".")[1] not in tested}
    assert dead == set(), "no test names it: delete it rather than list it"

