"""JSON ingestion and emission for the CLI.

Four self-contained payload kinds, discriminated by a top-level "kind"
field and versioned by "schema_version": finite categories, monoidal
structures, group multiplication tables, and 3-cocycles over a group
table.  Loading is two-staged: a shape check against the schema dicts
below, then referential checks (dense morphism ids, indices in range, no
conflicting duplicate table entries) with JSON-pointer locations.
Axiom-level validation (associativity, pentagon, cocycle identity) is
deliberately NOT done here; the CLI re-runs those as certificates so that
a broken fixture is reported with a localized witness instead of a parse
error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .fincat import FinCategory
from .monoidal import MonoidalStructure
from .veck import Cocycle3

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

_SCHEMAS = {
    "category": CATEGORY_SCHEMA,
    "monoidal": MONOIDAL_SCHEMA,
    "group": GROUP_SCHEMA,
    "cocycle": COCYCLE_SCHEMA,
}


class MalformedInput(ValueError):
    """Input file rejected before any mathematics ran.

    `pointer` is a JSON pointer into the offending document ("" for the
    document root).
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        super().__init__(f"at {self.pointer}: {message}")


@dataclass(frozen=True)
class LoadedSpec:
    kind: str
    payload: object
    path: str


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


def _category_from_doc(doc):
    n = doc["objects"]
    mors = doc["morphisms"]
    for i, m in enumerate(mors):
        if m["id"] != i:
            raise MalformedInput(
                f"/morphisms/{i}/id",
                f"morphism ids must be dense and in order (expected {i}, "
                f"got {m['id']})")
        if m["src"] >= n:
            raise MalformedInput(f"/morphisms/{i}/src",
                                 f"object {m['src']} out of range (0..{n - 1})")
        if m["dst"] >= n:
            raise MalformedInput(f"/morphisms/{i}/dst",
                                 f"object {m['dst']} out of range (0..{n - 1})")
    n_mor = len(mors)
    ident = doc["identity"]
    if len(ident) != n:
        raise MalformedInput(
            "/identity",
            f"expected one identity entry per object ({n}), got {len(ident)}")
    for a, e in enumerate(ident):
        if e >= n_mor:
            raise MalformedInput(f"/identity/{a}", f"unknown morphism id {e}")
    seen = {}
    for k, triple in enumerate(doc["compose"]):
        for pos, v in enumerate(triple):
            if v >= n_mor:
                raise MalformedInput(f"/compose/{k}/{pos}",
                                     f"unknown morphism id {v}")
        g, f, h = triple
        if (g, f) in seen and seen[(g, f)] != h:
            raise MalformedInput(f"/compose/{k}",
                                 f"conflicting duplicate entry for ({g}, {f})")
        seen[(g, f)] = h
    return FinCategory(n, [m["src"] for m in mors], [m["dst"] for m in mors],
                       ident, [tuple(t) for t in doc["compose"]])


def _monoidal_from_doc(doc):
    cat = _category_from_doc(doc)
    n, n_mor = cat.n_objects, cat.n_morphisms
    if doc["unit"] >= n:
        raise MalformedInput("/unit", f"object {doc['unit']} out of range")
    tob = doc["tensor_obj"]
    if len(tob) != n:
        raise MalformedInput("/tensor_obj", f"expected {n} rows, got {len(tob)}")
    for i, row in enumerate(tob):
        if len(row) != n:
            raise MalformedInput(f"/tensor_obj/{i}",
                                 f"expected {n} entries, got {len(row)}")
        for j, v in enumerate(row):
            if v >= n:
                raise MalformedInput(f"/tensor_obj/{i}/{j}",
                                     f"object {v} out of range")
    for key in ("lambda", "rho"):
        arr = doc[key]
        if len(arr) != n:
            raise MalformedInput(f"/{key}",
                                 f"expected one entry per object ({n}), "
                                 f"got {len(arr)}")
        for a, e in enumerate(arr):
            if e >= n_mor:
                raise MalformedInput(f"/{key}/{a}", f"unknown morphism id {e}")
    seen_t = {}
    for k, triple in enumerate(doc["tensor_mor"]):
        for pos, v in enumerate(triple):
            if v >= n_mor:
                raise MalformedInput(f"/tensor_mor/{k}/{pos}",
                                     f"unknown morphism id {v}")
        f, g, h = triple
        if (f, g) in seen_t and seen_t[(f, g)] != h:
            raise MalformedInput(f"/tensor_mor/{k}",
                                 f"conflicting duplicate entry for ({f}, {g})")
        seen_t[(f, g)] = h
    seen_a = {}
    for k, quad in enumerate(doc["alpha"]):
        a, b, c, m = quad
        for pos, v in enumerate((a, b, c)):
            if v >= n:
                raise MalformedInput(f"/alpha/{k}/{pos}",
                                     f"object {v} out of range")
        if m >= n_mor:
            raise MalformedInput(f"/alpha/{k}/3", f"unknown morphism id {m}")
        if (a, b, c) in seen_a and seen_a[(a, b, c)] != m:
            raise MalformedInput(f"/alpha/{k}",
                                 f"conflicting duplicate entry for "
                                 f"({a}, {b}, {c})")
        seen_a[(a, b, c)] = m
    return MonoidalStructure(cat,
                             tob,
                             [tuple(t) for t in doc["tensor_mor"]],
                             doc["unit"],
                             [tuple(q) for q in doc["alpha"]],
                             doc["lambda"],
                             doc["rho"])


def _table_from_doc(doc):
    table = doc["table"]
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise MalformedInput(f"/table/{i}",
                                 f"expected {n} entries, got {len(row)}")
        for j, v in enumerate(row):
            if v >= n:
                raise MalformedInput(f"/table/{i}/{j}",
                                     f"element {v} out of range (0..{n - 1})")
    return tuple(tuple(row) for row in table)


def _cocycle_from_doc(doc):
    table = _table_from_doc(doc)
    n = len(table)
    exps = doc["exponents"]
    if len(exps) != n:
        raise MalformedInput("/exponents", f"expected {n} planes, got {len(exps)}")
    for i, plane in enumerate(exps):
        if len(plane) != n:
            raise MalformedInput(f"/exponents/{i}",
                                 f"expected {n} rows, got {len(plane)}")
        for j, row in enumerate(plane):
            if len(row) != n:
                raise MalformedInput(f"/exponents/{i}/{j}",
                                     f"expected {n} entries, got {len(row)}")
    return Cocycle3(table, doc["scalar_order"], exps)


_BUILDERS = {
    "category": _category_from_doc,
    "monoidal": _monoidal_from_doc,
    "group": _table_from_doc,
    "cocycle": _cocycle_from_doc,
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
    if kind not in _SCHEMAS:
        raise MalformedInput("/kind",
                             f"unknown kind {kind!r}; expected one of "
                             + ", ".join(sorted(_SCHEMAS)))
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise MalformedInput("/schema_version",
                             f"unsupported schema_version "
                             f"{doc.get('schema_version')!r}; this build "
                             f"reads version {SCHEMA_VERSION}")
    _check_shape(doc, _SCHEMAS[kind], ())
    return LoadedSpec(kind, _BUILDERS[kind](doc), path)


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
        "table": [list(row) for row in omega.table],
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
