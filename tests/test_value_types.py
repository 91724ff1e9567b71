"""The package has one value type.

Every immutable value of `src/monocentre/` (categories, functors,
monoidal structures, the linear backend's groups, cocycles and
half-braidings, results and reports) is a `record.Record`, which alone
defines equality and hashing, as the tuple of its fields.  `CycNumber`
is the one exception: its hash must match `Fraction`'s.  Classes are read
from the syntax tree, so a method defined or assigned under either name
counts.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "monocentre"

OWN_EQUALITY = {"Record", "CycNumber"}


def _defined_names(cls):
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_only_record_and_cycnumber_define_equality_and_hashing():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name not in OWN_EQUALITY:
                offenders += [f"{path.name}:{node.lineno} {node.name}.{name}"
                              for name in _defined_names(node)
                              if name in ("__eq__", "__hash__")]
    assert offenders == [], "hand-written equality or hashing: " + ", ".join(offenders)
