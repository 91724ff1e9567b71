"""Loader and emitter tests: pointered rejection, canonical round-trips."""

import json
import pathlib

import pytest

from monocentre.centre import compute_centre
from monocentre.cli import main
from monocentre.fincat import validate_category, walking_arrow
from monocentre.graded import check_cocycle, z2_nontrivial_cocycle
from monocentre.jsonio import (
    CATEGORY_SCHEMA,
    COCYCLE_SCHEMA,
    GROUP_SCHEMA,
    MONOIDAL_SCHEMA,
    MalformedInput,
    category_to_doc,
    cocycle_to_doc,
    dump_canonical,
    group_to_doc,
    load_spec,
    monoidal_to_doc,
    write_spec,
)
from monocentre.monoidal import S3, Z2, chain_poset_monoidal, two_group_monoidal


FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def _load_doc(tmp_path, doc, name="payload.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_spec(str(path))


@pytest.mark.parametrize("ms_factory",
                         [lambda: two_group_monoidal(Z2),
                          lambda: chain_poset_monoidal(2)],
                         ids=["z2-discrete", "poset"])
def test_monoidal_round_trip_passes_the_same_certificates(tmp_path, ms_factory):
    ms = ms_factory()
    before = compute_centre(ms)
    spec = _load_doc(tmp_path, monoidal_to_doc(ms))
    assert spec.kind == "monoidal"
    after = compute_centre(spec.payload)
    assert after.all_passed and before.all_passed
    assert after.category.n_objects == before.category.n_objects
    assert [(o.a, o.gamma) for o in after.objects] \
        == [(o.a, o.gamma) for o in before.objects]


def test_category_round_trip(tmp_path):
    cat = walking_arrow()
    spec = _load_doc(tmp_path, category_to_doc(cat))
    assert spec.kind == "category"
    assert spec.payload == cat
    assert validate_category(spec.payload) == []


def test_group_and_cocycle_round_trip(tmp_path):
    spec = _load_doc(tmp_path, group_to_doc(S3))
    assert spec.kind == "group" and spec.payload.table == S3
    omega = z2_nontrivial_cocycle()
    spec2 = _load_doc(tmp_path, cocycle_to_doc(omega), "omega.json")
    assert spec2.kind == "cocycle" and spec2.payload == omega
    assert check_cocycle(spec2.payload) == []


def test_missing_identity_entry_is_pointered(tmp_path):
    doc = monoidal_to_doc(two_group_monoidal(Z2))
    doc["identity"] = [0]
    with pytest.raises(MalformedInput) as exc:
        _load_doc(tmp_path, doc)
    assert exc.value.pointer == "/identity"


def test_unknown_compose_reference_is_pointered(tmp_path):
    doc = category_to_doc(walking_arrow())
    doc["compose"][0][2] = 99
    with pytest.raises(MalformedInput) as exc:
        _load_doc(tmp_path, doc)
    assert exc.value.pointer == "/compose/0/2"


def test_conflicting_compose_entries_are_pointered(tmp_path):
    doc = category_to_doc(walking_arrow())
    first = list(doc["compose"][0])
    clash = [first[0], first[1], (first[2] + 1) % 3]
    doc["compose"].append(clash)
    k = len(doc["compose"]) - 1
    with pytest.raises(MalformedInput) as exc:
        _load_doc(tmp_path, doc)
    assert exc.value.pointer == f"/compose/{k}"
    assert str(exc.value) == (f"at /compose/{k}: conflicting duplicate entry "
                              f"for ({first[0]}, {first[1]})")


def _keyed_row_error(tmp_path, key, k, row):
    """The error of loading chain_poset_monoidal(2) with row k of the keyed
    table `key` replaced (k past the end appends it)."""
    doc = monoidal_to_doc(chain_poset_monoidal(2))
    doc[key][k:k + 1] = [row]
    with pytest.raises(MalformedInput) as exc:
        _load_doc(tmp_path, doc)
    return exc.value.pointer, str(exc.value)


@pytest.mark.parametrize("key, k, row, pointer, message", [
    ("compose", 1, [0, 9, 0], "/compose/1/1", "unknown morphism id 9"),
    ("tensor_mor", 2, [0, 1, 3], "/tensor_mor/2/2", "unknown morphism id 3"),
    ("tensor_mor", 9, [0, 1, 2], "/tensor_mor/9",
     "conflicting duplicate entry for (0, 1)"),
    ("alpha", 3, [0, 2, 0, 0], "/alpha/3/1", "object 2 out of range"),
    ("alpha", 3, [0, 1, 1, 5], "/alpha/3/3", "unknown morphism id 5"),
    ("alpha", 8, [1, 1, 1, 0], "/alpha/8",
     "conflicting duplicate entry for (1, 1, 1)"),
])
def test_keyed_table_rows_are_pointered(tmp_path, key, k, row, pointer, message):
    assert _keyed_row_error(tmp_path, key, k, row) == (pointer, f"at {pointer}: {message}")


def test_schema_violation_is_pointered(tmp_path):
    doc = category_to_doc(walking_arrow())
    del doc["morphisms"][0]["dst"]
    with pytest.raises(MalformedInput) as exc:
        _load_doc(tmp_path, doc)
    assert exc.value.pointer.startswith("/morphisms/0")
    assert "dst" in str(exc.value)


def test_unknown_kind_and_version(tmp_path):
    with pytest.raises(MalformedInput) as exc:
        _load_doc(tmp_path, {"kind": "poset", "schema_version": 1})
    assert exc.value.pointer == "/kind"
    doc = group_to_doc(Z2)
    doc["schema_version"] = 7
    with pytest.raises(MalformedInput) as exc:
        _load_doc(tmp_path, doc)
    assert exc.value.pointer == "/schema_version"


def test_parse_error_and_missing_file(tmp_path):
    path = tmp_path / "garbled.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedInput, match="not valid JSON"):
        load_spec(str(path))
    with pytest.raises(MalformedInput, match="cannot read"):
        load_spec(str(tmp_path / "absent.json"))


def test_ragged_tables_are_pointered(tmp_path):
    doc = group_to_doc(Z2)
    doc["table"][1] = [1]
    with pytest.raises(MalformedInput) as exc:
        _load_doc(tmp_path, doc)
    assert exc.value.pointer == "/table/1"
    doc2 = cocycle_to_doc(z2_nontrivial_cocycle())
    doc2["exponents"] = doc2["exponents"][:1]
    with pytest.raises(MalformedInput) as exc:
        _load_doc(tmp_path, doc2)
    assert exc.value.pointer == "/exponents"


def test_dump_canonical_ignores_insertion_order():
    a = {"kind": "group", "schema_version": 1, "table": [[0]]}
    b = {"table": [[0]], "schema_version": 1, "kind": "group"}
    assert dump_canonical(a) == dump_canonical(b)


def test_write_spec_round_trips(tmp_path):
    path = tmp_path / "s3.json"
    write_spec(str(path), group_to_doc(S3))
    assert load_spec(str(path)).payload.table == S3


def _z2_monoidal_doc():
    return monoidal_to_doc(two_group_monoidal(Z2))


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("make_doc, path, bad, command", [
    (lambda: group_to_doc(Z2), ("table", 0, 1), 1.0, ["vec-centre"]),
    (lambda: group_to_doc(Z2), ("table", 1, 0), True, ["vec-centre"]),
    (_z2_monoidal_doc, ("objects",), 2.0, ["report"]),
    (_z2_monoidal_doc, ("unit",), 0.0, ["report"]),
    (lambda: cocycle_to_doc(z2_nontrivial_cocycle()), ("scalar_order",), 2.0,
     ["vec-centre", str(FIXTURES / "z2.json"), "--omega"]),
], ids=["group-entry-float", "group-entry-bool", "objects-float",
        "unit-float", "scalar-order-float"])
def test_floats_and_bools_are_not_integers(tmp_path, capsys, make_doc, path,
                                           bad, command):
    doc = make_doc()
    _set(doc, path, bad)
    pointer = "/" + "/".join(map(str, path))
    with pytest.raises(MalformedInput) as exc:
        _load_doc(tmp_path, doc)
    assert exc.value.pointer == pointer
    assert main(command + [str(tmp_path / "payload.json")]) == 2
    assert f"error: at {pointer}: " in capsys.readouterr().err


def _z2_cocycle_doc():
    return cocycle_to_doc(z2_nontrivial_cocycle())


@pytest.mark.parametrize("make_doc, path, bad, message", [
    (_z2_monoidal_doc, ("tensor_obj",), [[0, 1]],
     "at /tensor_obj: expected 2 rows, got 1"),
    (_z2_monoidal_doc, ("tensor_obj", 1), [1],
     "at /tensor_obj/1: expected 2 entries, got 1"),
    (_z2_monoidal_doc, ("tensor_obj", 0, 1), 5,
     "at /tensor_obj/0/1: object 5 out of range"),
    (_z2_monoidal_doc, ("lambda",), [0],
     "at /lambda: expected one entry per object (2), got 1"),
    (_z2_monoidal_doc, ("rho", 1), 9,
     "at /rho/1: unknown morphism id 9"),
    (_z2_monoidal_doc, ("identity",), [0],
     "at /identity: expected one identity entry per object (2), got 1"),
    (_z2_monoidal_doc, ("identity", 0), 9,
     "at /identity/0: unknown morphism id 9"),
    (lambda: group_to_doc(Z2), ("table", 1), [1],
     "at /table/1: expected 2 entries, got 1"),
    (lambda: group_to_doc(Z2), ("table", 1, 0), 2,
     "at /table/1/0: element 2 out of range (0..1)"),
    (_z2_cocycle_doc, ("exponents",), [[[0, 0], [0, 0]]],
     "at /exponents: expected 2 planes, got 1"),
    (_z2_cocycle_doc, ("exponents", 1), [[0, 0]],
     "at /exponents/1: expected 2 rows, got 1"),
    (_z2_cocycle_doc, ("exponents", 1, 0), [0],
     "at /exponents/1/0: expected 2 entries, got 1"),
], ids=["tensor-obj-rows", "tensor-obj-entries", "tensor-obj-object",
        "lambda-length", "rho-morphism", "identity-length", "identity-morphism",
        "table-entries", "table-element", "exponents-planes", "exponents-rows",
        "exponents-entries"])
def test_nested_table_errors_are_worded(tmp_path, make_doc, path, bad, message):
    doc = make_doc()
    _set(doc, path, bad)
    with pytest.raises(MalformedInput) as exc:
        _load_doc(tmp_path, doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("make_doc, mutate, pointer, message", [
    (lambda: category_to_doc(walking_arrow()),
     lambda d: _set(d, ("compose", 1), 5),
     "/compose/1", "5 is not of type 'array'"),
    (lambda: category_to_doc(walking_arrow()),
     lambda d: _set(d, ("schema_version",), True),
     "/schema_version", "1 was expected"),
    (lambda: category_to_doc(walking_arrow()),
     lambda d: _set(d, ("morphisms", 2, "src"), -1),
     "/morphisms/2/src", "-1 is less than the minimum of 0"),
    (lambda: category_to_doc(walking_arrow()),
     lambda d: d["morphisms"][1].pop("dst"),
     "/morphisms/1", "'dst' is a required property"),
    (lambda: category_to_doc(walking_arrow()),
     lambda d: _set(d, ("morphisms", 1, "name"), "f"),
     "/morphisms/1",
     "Additional properties are not allowed ('name' was unexpected)"),
    (lambda: category_to_doc(walking_arrow()),
     lambda d: _set(d, ("identity", 1), "1"),
     "/identity/1", "'1' is not of type 'integer'"),
    (lambda: group_to_doc(Z2),
     lambda d: _set(d, ("table",), []),
     "/table", "[] should be non-empty"),
    (lambda: category_to_doc(walking_arrow()),
     lambda d: d["compose"][0].append(0),
     "/compose/0", "is too long"),
], ids=["type", "const", "minimum", "required", "additionalProperties",
        "items", "minItems", "maxItems"])
def test_each_schema_keyword_is_enforced(tmp_path, make_doc, mutate, pointer,
                                         message):
    doc = make_doc()
    mutate(doc)
    with pytest.raises(MalformedInput) as exc:
        _load_doc(tmp_path, doc)
    assert exc.value.pointer == pointer
    assert message in str(exc.value)


SUPPORTED_KEYWORDS = {"type", "const", "minimum", "required", "properties",
                      "additionalProperties", "items", "minItems", "maxItems"}


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


@pytest.mark.parametrize("schema", [CATEGORY_SCHEMA, MONOIDAL_SCHEMA,
                                    GROUP_SCHEMA, COCYCLE_SCHEMA],
                         ids=["category", "monoidal", "group", "cocycle"])
def test_schemas_use_only_supported_keywords(schema):
    for sub in _subschemas(schema):
        assert set(sub) <= SUPPORTED_KEYWORDS, set(sub) - SUPPORTED_KEYWORDS
        assert sub.get("type") in {None, "integer", "array", "object"}
        assert sub.get("additionalProperties", False) is False
        if "minimum" in sub:
            assert sub.get("type") == "integer"


def test_first_violation_in_document_order_is_reported(tmp_path):
    doc = category_to_doc(walking_arrow())
    doc["compose"][0] = 5
    doc["morphisms"][2]["dst"] = 0.5
    with pytest.raises(MalformedInput) as exc:
        _load_doc(tmp_path, doc)
    assert exc.value.pointer == "/morphisms/2/dst"
