"""Every public definition in the package has a caller.

A top-level public function or class of `src/monocentre/`, and a public
method or property of such a class, must be named outside its own
definition: elsewhere in `src/`, in `scripts/`, or in
`tests/test_acceptance.py`.  A method named by another method of its own
class counts as called; dunders are exempt, as Python calls them.  Code
that only its own unit tests reach is dead weight and should be deleted
with those tests.  Names are read from the syntax tree, so a mention in a
docstring or comment does not count.

Every optional parameter of such a function or method, and of such a
class's constructor, must be passed, by position or keyword, by a call
outside its definition among the same callers; a call with *args or
**kwargs passes them all.

fincat's table builder, _table_category, is named only by fincat's four
builders of derived categories (product_category, coproduct_category,
category_over and full_functor_subcategory), so that every other module
builds its categories through them; outside monoidal.py and jsonio.py,
only it and the two basic shapes discrete_category and walking_arrow
build a FinCategory.  Likewise, outside jsonio.py, only
centre._lifted_monoidal and monoidal's two builders, two_group_monoidal
and chain_poset_monoidal, build a MonoidalStructure, and only
fincat._search, full_functor_subcategory and day_convolve spend a search
budget.
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


# Optional parameters exempt from the rule below, by name, each with its reason.
ALLOWED_OPTIONAL = {
    "cfg": "every guarded construction takes the run's GuardConfig, so each "
           "keeps the parameter whether or not a caller outside tests passes it",
}


def _optional_params(fn, method):
    """(name, position) of each optional parameter of fn, position None for
    a keyword-only one; positions count what a call passes, so a method's
    self or cls takes none."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    skip = int(method)
    return ([(p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
            + [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _passes(call, name, position):
    """Whether the call passes the parameter; *args or **kwargs pass all."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return True
    return ((position is not None and len(call.args) > position)
            or any(k.arg == name for k in call.keywords))


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_optional_parameter_is_passed_by_a_caller():
    # a class's __init__ is called by the class's name; a parameter no call
    # passes is a capability nothing uses, and goes with its default
    files = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py"])
    calls = {}        # callee name -> calls
    functions = []    # (label, callee name, definition, is a method)
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
        if path.parent != PACKAGE:
            continue
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                functions.append((f"{path.name}:{stmt.lineno} {stmt.name}",
                                  stmt.name, stmt, False))
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                functions.extend(
                    (f"{path.name}:{m.lineno} {stmt.name}.{m.name}",
                     stmt.name if m.name == "__init__" else m.name, m,
                     not any(getattr(d, "id", None) == "staticmethod"
                             for d in m.decorator_list))
                    for m in stmt.body
                    if isinstance(m, ast.FunctionDef)
                    and (m.name == "__init__" or not m.name.startswith("_")))
    unpassed = []
    for label, name, fn, method in functions:
        own = {id(n) for n in ast.walk(fn)}
        callers = [c for c in calls.get(name, ()) if id(c) not in own]
        unpassed.extend(f"{label}({param})" for param, pos in _optional_params(fn, method)
                        if param not in ALLOWED_OPTIONAL
                        and not any(_passes(c, param, pos) for c in callers))
    assert unpassed == [], "optional parameters no caller passes: " + ", ".join(unpassed)


def test_only_fincat_builders_name_the_table_builder():
    files = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
             + sorted((ROOT / "tests").glob("*.py")))
    naming = [(path.name, getattr(stmt, "name", f"line {stmt.lineno}"))
              for path in files
              for stmt in ast.parse(path.read_text(encoding="utf-8")).body
              if "_table_category" in _names(stmt)]
    assert naming == [("fincat.py", "product_category"), ("fincat.py", "coproduct_category"),
                      ("fincat.py", "category_over"),
                      ("fincat.py", "full_functor_subcategory")], naming


def test_only_the_table_builder_and_the_basic_shapes_build_a_category():
    # monoidal.py builds the fixtures' base categories and jsonio.py the
    # loaded ones; every category derived from others (A x B, U + V, each
    # category over a base, each functor subcategory) is built from its
    # rows by fincat._table_category
    building = [(path.name, getattr(stmt, "name", f"line {stmt.lineno}"))
                for path in sorted(PACKAGE.glob("*.py"))
                if path.name not in ("monoidal.py", "jsonio.py")
                for stmt in ast.parse(path.read_text(encoding="utf-8")).body
                if any(isinstance(node, ast.Call) and _callee(node) == "FinCategory"
                       for node in ast.walk(stmt))]
    assert building == [("fincat.py", "_table_category"), ("fincat.py", "discrete_category"),
                        ("fincat.py", "walking_arrow")], building


def test_only_the_lift_builds_a_derived_monoidal_structure():
    # jsonio.py builds the loaded structures; every structure derived from
    # another (the centre's, the pointwise one) is lifted cell by cell by
    # centre._lifted_monoidal, and every group-like fixture is a 2-group
    building = [(path.name, getattr(stmt, "name", f"line {stmt.lineno}"))
                for path in sorted(PACKAGE.glob("*.py"))
                if path.name != "jsonio.py"
                for stmt in ast.parse(path.read_text(encoding="utf-8")).body
                if any(isinstance(node, ast.Call) and _callee(node) == "MonoidalStructure"
                       for node in ast.walk(stmt))]
    assert building == [("centre.py", "_lifted_monoidal"), ("monoidal.py", "two_group_monoidal"),
                        ("monoidal.py", "chain_poset_monoidal")], building


def test_only_the_search_and_two_counted_builders_spend_a_budget():
    # every search spends through fincat._search, one step per candidate;
    # full_functor_subcategory spends its reachable targets, and
    # day_convolve its generators and relations, in bulk
    spending = [(path.name, getattr(stmt, "name", f"line {stmt.lineno}"))
                for path in sorted(PACKAGE.glob("*.py"))
                for stmt in ast.parse(path.read_text(encoding="utf-8")).body
                if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                       and node.func.attr == "spend" for node in ast.walk(stmt))]
    assert spending == [("convolution.py", "day_convolve"), ("fincat.py", "_search"),
                        ("fincat.py", "full_functor_subcategory")], spending
