"""Every public definition in the package has a caller.

A top-level public function or class of `src/monocentre/` must be named
outside its own definition: elsewhere in `src/`, in `scripts/`, or in
`tests/test_acceptance.py`.  Code that only its own unit tests reach is
dead weight and should be deleted with those tests.  Names are read from
the syntax tree, so a mention in a docstring or comment does not count.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monocentre"

# Constructors of test inputs: they build the data the unit tests check
# (identity and relabelled structures, coboundaries), not a certified claim.
ALLOWED = {
    "identity_functor": "identity functor, the reference input of fincat and bilimits tests",
    "identity_braiding": "symmetric braiding fixture for the braiding checks",
    "relabel_monoidal": "renamed copy of a structure, to test invariance under relabelling",
    "coboundary_cocycle": "cohomologically trivial cocycles for the linear backend tests",
}


def _names(node):
    """Identifiers a syntax subtree refers to or imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def test_every_public_definition_has_a_caller():
    files = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py"])
    # (file, top-level statement) -> identifiers it uses
    uses = {}
    definitions = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            uses[(path, id(stmt))] = _names(stmt)
            if (path.parent == PACKAGE
                    and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                definitions.append((path, stmt))
    assert set(ALLOWED) <= {stmt.name for _, stmt in definitions}
    unused = []
    for path, stmt in definitions:
        if stmt.name in ALLOWED:
            continue
        if not any(stmt.name in names for key, names in uses.items()
                   if key != (path, id(stmt))):
            unused.append(f"{path.name}:{stmt.lineno} {stmt.name}")
    assert unused == [], "public definitions without a caller: " + ", ".join(unused)

