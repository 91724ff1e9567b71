"""JSON ingestion and emission for the CLI.

Four self-contained payload kinds, discriminated by a top-level "kind"
field and versioned by "schema_version": finite categories, monoidal
structures, group multiplication tables, and 3-cocycles over a group
table, each with its schema dict and builder in _KINDS.  Loading is
two-staged: a shape check against the schema dict, then referential
checks with JSON-pointer locations: dense morphism ids, one walk over
every nested table (identity, tensor_obj, lambda, rho, a group's table
and a cocycle's exponents) for its lengths and the range of its entries,
and keyed tables (compose, tensor_mor, alpha) whose rows with one key
agree.  A group file loads as a graded.Group and a cocycle file as a
graded.Cocycle3 over its own Group.  Axiom-level validation (associativity,
pentagon, cocycle identity) is deliberately NOT done here: the values run
their checks once, on first use, and the CLI reports them as certificates
so that a broken fixture is reported with a localized witness instead of
a parse error.
"""

from __future__ import annotations

import json

from .fincat import FinCategory
from .graded import Cocycle3, Group
from .monoidal import MonoidalStructure
from .record import Record

SCHEMA_VERSION = 1

_NONNEG = {"type": "integer", "minimum": 0}
_INT = {"type": "integer"}

_MORPHISM = {
    "type": "object",
    "required": ["id", "src", "dst"],
    "properties": {"id": _NONNEG, "src": _NONNEG, "dst": _NONNEG},
    "additionalProperties": False,
}

_CATEGORY_FIELDS = {
    "schema_version": {"const": SCHEMA_VERSION},
    "objects": _NONNEG,
    "morphisms": {"type": "array", "items": _MORPHISM},
    "identity": {"type": "array", "items": _NONNEG},
    "compose": {
        "type": "array",
        "items": {"type": "array", "items": _NONNEG,
                  "minItems": 3, "maxItems": 3},
    },
}

CATEGORY_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "kind", "objects", "morphisms",
                 "identity", "compose"],
    "properties": {"kind": {"const": "category"}, **_CATEGORY_FIELDS},
    "additionalProperties": False,
}

MONOIDAL_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "kind", "objects", "morphisms",
                 "identity", "compose", "unit", "tensor_obj", "tensor_mor",
                 "alpha", "lambda", "rho"],
    "properties": {
        "kind": {"const": "monoidal"},
        **_CATEGORY_FIELDS,
        "unit": _NONNEG,
        "tensor_obj": {"type": "array",
                       "items": {"type": "array", "items": _NONNEG}},
        "tensor_mor": {
            "type": "array",
            "items": {"type": "array", "items": _NONNEG,
                      "minItems": 3, "maxItems": 3},
        },
        "alpha": {
            "type": "array",
            "items": {"type": "array", "items": _NONNEG,
                      "minItems": 4, "maxItems": 4},
        },
        "lambda": {"type": "array", "items": _NONNEG},
        "rho": {"type": "array", "items": _NONNEG},
    },
    "additionalProperties": False,
}

GROUP_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "kind", "table"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "kind": {"const": "group"},
        "table": {"type": "array", "minItems": 1,
                  "items": {"type": "array", "items": _NONNEG}},
    },
    "additionalProperties": False,
}

COCYCLE_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "kind", "table", "scalar_order",
                 "exponents"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "kind": {"const": "cocycle"},
        "table": {"type": "array", "minItems": 1,
                  "items": {"type": "array", "items": _NONNEG}},
        "scalar_order": {"type": "integer", "minimum": 1},
        "exponents": {
            "type": "array",
            "items": {"type": "array",
                      "items": {"type": "array", "items": _INT}},
        },
    },
    "additionalProperties": False,
}

class MalformedInput(ValueError):
    """Input file rejected before any mathematics ran.

    `pointer` is a JSON pointer into the offending document ("" for the
    document root).
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        super().__init__(f"at {self.pointer}: {message}")


class LoadedSpec(Record):
    __slots__ = ("kind", "payload", "path")


def _pointer(parts) -> str:
    return "/" + "/".join(str(p) for p in parts)


_TYPES = {"integer": int, "array": list, "object": dict}


def _check_shape(value, schema: dict, path: tuple) -> None:
    """Raise MalformedInput at the first place where `value` breaks `schema`.

    Interprets exactly the keywords the schemas above use, with the
    messages of JSON Schema validators.  A node's own keywords are checked
    before its children, and children in document order.  "integer" means
    a JSON integer literal: 2.0 and true are rejected.
    """
    def fail(message):
        raise MalformedInput(_pointer(path), message)

    if "type" in schema and type(value) is not _TYPES[schema["type"]]:
        fail(f"{value!r} is not of type {schema['type']!r}")
    if "const" in schema:
        const = schema["const"]
        if type(value) is not type(const) or value != const:
            fail(f"{const!r} was expected")
    if "minimum" in schema and value < schema["minimum"]:
        fail(f"{value!r} is less than the minimum of {schema['minimum']!r}")
    if type(value) is dict:
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            extra = [key for key in value if key not in props]
            if extra:
                fail(f"Additional properties are not allowed "
                     f"({', '.join(map(repr, extra))} "
                     f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        for key, item in value.items():
            if key in props:
                _check_shape(item, props[key], path + (key,))
    elif type(value) is list:
        if len(value) < schema.get("minItems", 0):
            fail(f"{value!r} should be non-empty" if schema["minItems"] == 1
                 else f"{value!r} is too short")
        if len(value) > schema.get("maxItems", len(value)):
            fail(f"{value!r} is too long")
        if "items" in schema:
            for i, item in enumerate(value):
                _check_shape(item, schema["items"], path + (i,))


def _check_table(doc, name, n, lengths, entry=None):
    """Check doc[name], nested len(lengths) deep, depth first in document
    order: a list at depth d needs n items, else lengths[d] (formatted with
    n and got; None skips the level) is raised, and entry = (bound,
    message), as in _keyed_table, checks each innermost value."""
    def walk(value, path):
        depth = len(path) - 1
        if depth == len(lengths):
            if entry and value >= entry[0]:
                raise MalformedInput(_pointer(path), entry[1].format(value))
            return
        if lengths[depth] and len(value) != n:
            raise MalformedInput(_pointer(path),
                                 lengths[depth].format(n=n, got=len(value)))
        for i, item in enumerate(value):
            walk(item, path + (i,))
    walk(doc[name], (name,))


def _category_from_doc(doc):
    n = doc["objects"]
    mors = doc["morphisms"]
    for i, m in enumerate(mors):
        if m["id"] != i:
            raise MalformedInput(
                f"/morphisms/{i}/id",
                f"morphism ids must be dense and in order (expected {i}, "
                f"got {m['id']})")
        for end in ("src", "dst"):
            if m[end] >= n:
                raise MalformedInput(f"/morphisms/{i}/{end}",
                                     f"object {m[end]} out of range (0..{n - 1})")
    mor = (len(mors), "unknown morphism id {}")
    _check_table(doc, "identity", n,
                 ("expected one identity entry per object ({n}), got {got}",), mor)
    return FinCategory(n, [m["src"] for m in mors], [m["dst"] for m in mors],
                       doc["identity"], _keyed_table(doc, "compose", (mor, mor, mor)))


def _keyed_table(doc, name, ids):
    """The rows of doc[name] as a dict from their leading entries to their
    last one.  ids[pos] = (bound, message) checks the entry at pos, and
    two rows with one key must agree."""
    table = {}
    for k, row in enumerate(doc[name]):
        for pos, (v, (bound, message)) in enumerate(zip(row, ids)):
            if v >= bound:
                raise MalformedInput(f"/{name}/{k}/{pos}", message.format(v))
        *key, value = row
        key = tuple(key)
        if table.setdefault(key, value) != value:
            raise MalformedInput(f"/{name}/{k}", f"conflicting duplicate entry for {key}")
    return table


def _monoidal_from_doc(doc):
    cat = _category_from_doc(doc)
    n = cat.n_objects
    if doc["unit"] >= n:
        raise MalformedInput("/unit", f"object {doc['unit']} out of range")
    obj, mor = (n, "object {} out of range"), (cat.n_morphisms, "unknown morphism id {}")
    _check_table(doc, "tensor_obj", n, ("expected {n} rows, got {got}",
                                        "expected {n} entries, got {got}"), obj)
    for key in ("lambda", "rho"):
        _check_table(doc, key, n, ("expected one entry per object ({n}), got {got}",), mor)
    return MonoidalStructure(cat, doc["tensor_obj"],
                             _keyed_table(doc, "tensor_mor", (mor, mor, mor)),
                             doc["unit"], _keyed_table(doc, "alpha", (obj, obj, obj, mor)),
                             doc["lambda"], doc["rho"])


def _group_from_doc(doc):
    n = len(doc["table"])
    _check_table(doc, "table", n, (None, "expected {n} entries, got {got}"),
                 (n, f"element {{}} out of range (0..{n - 1})"))
    return Group(doc["table"])


def _cocycle_from_doc(doc):
    group = _group_from_doc(doc)
    _check_table(doc, "exponents", len(group.table),
                 ("expected {n} planes, got {got}", "expected {n} rows, got {got}",
                  "expected {n} entries, got {got}"))
    return Cocycle3(group, doc["scalar_order"], doc["exponents"])


# kind -> (schema, builder of the checked document's value)
_KINDS = {
    "category": (CATEGORY_SCHEMA, _category_from_doc),
    "monoidal": (MONOIDAL_SCHEMA, _monoidal_from_doc),
    "group": (GROUP_SCHEMA, _group_from_doc),
    "cocycle": (COCYCLE_SCHEMA, _cocycle_from_doc),
}


def load_spec(path: str) -> LoadedSpec:
    """Read, schema-validate, and referentially check one payload file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MalformedInput("", f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MalformedInput("", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInput("", "expected a JSON object at the top level")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise MalformedInput("/kind",
                             f"unknown kind {kind!r}; expected one of "
                             + ", ".join(sorted(_KINDS)))
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise MalformedInput("/schema_version",
                             f"unsupported schema_version "
                             f"{doc.get('schema_version')!r}; this build "
                             f"reads version {SCHEMA_VERSION}")
    schema, build = _KINDS[kind]
    _check_shape(doc, schema, ())
    return LoadedSpec(kind, build(doc), path)


# -- emission -------------------------------------------------------------


def category_to_doc(cat: FinCategory) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "category",
        "objects": cat.n_objects,
        "morphisms": [{"id": m, "src": cat.src(m), "dst": cat.dst(m)}
                      for m in cat.morphisms],
        "identity": list(cat.identity),
        "compose": [list(t) for t in cat.composition_items()],
    }


def monoidal_to_doc(ms: MonoidalStructure) -> dict:
    doc = category_to_doc(ms.base)
    doc["kind"] = "monoidal"
    doc["unit"] = ms.unit
    doc["tensor_obj"] = [list(row) for row in ms.tensor_obj_table]
    doc["tensor_mor"] = sorted([f, g, h]
                               for (f, g), h in ms.tensor_mor_table.items())
    doc["alpha"] = sorted([a, b, c, m]
                          for (a, b, c), m in ms.alpha_table.items())
    doc["lambda"] = list(ms.lam_table)
    doc["rho"] = list(ms.rho_table)
    return doc


def group_to_doc(table) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "group",
        "table": [list(row) for row in table],
    }


def cocycle_to_doc(omega: Cocycle3) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cocycle",
        "table": [list(row) for row in omega.group.table],
        "scalar_order": omega.scalar_order,
        "exponents": [[list(row) for row in plane]
                      for plane in omega.exponents],
    }


def dump_canonical(doc) -> str:
    """Stable serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_spec(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_canonical(doc))
