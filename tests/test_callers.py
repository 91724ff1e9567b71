"""Every public definition in the package has a caller.

A top-level public function or class of `src/monocentre/`, and a public
method or property of such a class, must be named outside its own
definition: elsewhere in `src/`, in `scripts/`, or in
`tests/test_acceptance.py`.  A method named by another method of its own
class counts as called; dunders are exempt, as Python calls them.  Code
that only its own unit tests reach is dead weight and should be deleted
with those tests.  Names are read from the syntax tree, so a mention in a
docstring or comment does not count.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monocentre"

# Public definitions exempt from the rule, each with its reason.  Constructors
# of test inputs belong in tests/helpers.py, not here.
ALLOWED = {}


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


def _units(stmt):
    """A top-level statement split into its own sub-keys: one per member of
    a public class (so a method can be told apart from its siblings), else
    the statement whole."""
    if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
        return [(id(member), member) for member in stmt.body]
    return [(None, stmt)]


def test_every_public_definition_has_a_caller():
    files = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py"])
    # (file, top-level statement, class member or None) -> identifiers it uses
    uses = {}
    definitions = []   # (label, name, key of the unit(s) that define it)
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            top = (path, id(stmt))
            for member_id, node in _units(stmt):
                uses[top + (member_id,)] = _names(node)
            if (path.parent != PACKAGE
                    or not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    or stmt.name.startswith("_")):
                continue
            definitions.append((f"{path.name}:{stmt.lineno} {stmt.name}",
                                stmt.name, top))
            if isinstance(stmt, ast.ClassDef):
                definitions.extend(
                    (f"{path.name}:{m.lineno} {stmt.name}.{m.name}", m.name,
                     top + (id(m),))
                    for m in stmt.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
    assert set(ALLOWED) <= {name for _, name, _ in definitions}
    unused = [label for label, name, own in definitions
              if name not in ALLOWED
              and not any(name in names for key, names in uses.items()
                          if key[:len(own)] != own)]
    assert unused == [], "public definitions without a caller: " + ", ".join(unused)
