"""End-to-end CLI tests: contract examples, exit codes, determinism."""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from monocentre.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def fix(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_centre_on_z2_discrete(capsys):
    code, out, _ = run(capsys, "centre", fix("z2_discrete.json"))
    assert code == 0
    assert "centre objects: 2" in out
    assert "FAIL" not in out
    assert "Prop 2.1: braiding naturality and hexagons — PASS" in out


def test_validate_broken_pentagon_locates_the_failure(capsys):
    code, out, _ = run(capsys, "validate", fix("broken_pentagon.json"))
    assert code == 1
    assert "pentagon fails at objects (0, 0, 0, 0)" in out


def test_vec_centre_z2_nontrivial(capsys):
    code, out, _ = run(capsys, "vec-centre", fix("z2.json"),
                       "--omega", fix("z2_nontrivial.json"))
    assert code == 0
    assert "simples: 4" in out
    assert "sum rule: squared dimensions add to |G|^2 — PASS" in out


def test_vec_centre_rejects_broken_omega(capsys):
    code, out, _ = run(capsys, "vec-centre", fix("z2.json"),
                       "--omega", fix("z2_broken_omega.json"))
    assert code == 1
    assert "not normalized at (1, 1, 0)" in out


def test_vec_centre_dim_bound_reports_incomplete(capsys):
    code, out, _ = run(capsys, "vec-centre", fix("s3.json"),
                       "--dim-bound", "4")
    assert code == 1
    assert "simples: 0" in out
    assert "Enumeration: enumeration complete — FAIL" in out


def test_equiv_z2_discrete(capsys):
    code, out, _ = run(capsys, "equiv", fix("z2_discrete.json"))
    assert code == 0
    assert "Prop 3.1: descent ≃ centre — PASS" in out


def test_descent_poset(capsys):
    code, out, _ = run(capsys, "descent", fix("poset.json"))
    assert code == 0
    assert "descent objects: 2" in out


def test_convolve_discrete_includes_cardinality_law(capsys):
    code, out, _ = run(capsys, "convolve", fix("z2_discrete.json"))
    assert code == 0
    assert "cardinality law" in out
    code, out, _ = run(capsys, "convolve", fix("poset.json"))
    assert code == 0
    assert "cardinality law" not in out
    assert "Yoneda law" in out


def test_malformed_reference_exits_2(capsys, tmp_path):
    doc = json.loads((FIXTURES / "z2_discrete.json").read_text())
    doc["compose"][0][2] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "centre", str(bad))
    assert code == 2
    assert "/compose/0/2" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "validate", fix("no_such.json"))
    assert code == 2
    assert "cannot read" in err


def test_wrong_kind_exits_2(capsys):
    code, _, err = run(capsys, "centre", fix("z2.json"))
    assert code == 2
    assert "monoidal" in err


def test_guard_exit_3_via_env(capsys, monkeypatch):
    monkeypatch.setenv("MONOCENTRE_HOCHSCHILD_MAX_BASE", "1")
    code, _, err = run(capsys, "equiv", fix("z2_discrete.json"))
    assert code == 3
    assert "size guard exceeded" in err


def test_config_file_plumbing(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"vec_dim_bound": 4}))
    code, out, _ = run(capsys, "vec-centre", fix("s3.json"),
                       "--config", str(cfgfile))
    assert code == 1
    assert "enumeration complete — FAIL" in out
    cfgfile.write_text(json.dumps({"no_such_guard": 1}))
    code, _, err = run(capsys, "validate", fix("z2.json"),
                       "--config", str(cfgfile))
    assert code == 2
    assert "unknown keys" in err


def test_config_file_rejects_bool_guard(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"vec_dim_bound": True}))
    code, out, err = run(capsys, "vec-centre", fix("s3.json"),
                         "--config", str(cfgfile))
    assert code == 2 and out == ""
    assert "vec_dim_bound" in err


def test_env_rejects_negative_guard(capsys, monkeypatch):
    monkeypatch.setenv("MONOCENTRE_MAX_OBJECTS", "-3")
    code, out, err = run(capsys, "centre", fix("z2_discrete.json"))
    assert code == 2 and out == ""
    assert "max_objects" in err


def test_negative_dim_bound_is_malformed_not_a_failed_certificate(capsys):
    code, out, err = run(capsys, "vec-centre", fix("s3.json"),
                         "--dim-bound", "-2")
    assert code == 2 and out == ""
    assert "vec_dim_bound" in err


def test_workers_is_not_a_guard(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"workers": 1}))
    code, _, err = run(capsys, "validate", fix("z2.json"),
                       "--config", str(cfgfile))
    assert code == 2
    assert "unknown keys ['workers']" in err


def test_internal_soundness_error_exits_4(capsys, monkeypatch):
    import monocentre.cli as cli

    def disagree(*args, **kwargs):
        raise cli.InternalSoundnessError("routes disagree on objects")

    monkeypatch.setattr(cli, "compute_centre", disagree)
    code, out, err = run(capsys, "centre", fix("z2_discrete.json"))
    assert code == 4 and out == ""
    assert err == "error: internal soundness error: routes disagree on objects\n"


def test_json_emit_is_machine_readable(capsys):
    code, out, _ = run(capsys, "centre", fix("z2_discrete.json"),
                       "--emit", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["exit_code"] == 0
    assert doc["command"] == "centre"
    certs = doc["sections"][0]["certificates"]
    assert certs and all(c["ok"] for c in certs)


def test_reports_are_byte_identical_across_runs(capsys):
    argv = ("report", fix("z2_discrete.json"), fix("z2.json"),
            "--emit", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert (code1, out1) == (code2, out2)
    assert code1 == 0


def test_report_aggregates_failures(capsys):
    code, out, _ = run(capsys, "report", fix("z2_discrete.json"),
                       fix("broken_pentagon.json"))
    assert code == 1
    assert "[centre]" in out and "[validate]" in out
    assert "pentagon fails" in out


@pytest.mark.parametrize("name,expected", [
    ("z2_discrete.json", 0), ("z3_discrete.json", 0), ("z4_discrete.json", 0),
    ("s3_discrete.json", 0), ("poset.json", 0), ("walking_arrow.json", 0),
    ("z2.json", 0), ("z3.json", 0), ("z4.json", 0), ("s3.json", 0),
    ("z2_trivial.json", 0), ("z2_nontrivial.json", 0),
    ("broken_pentagon.json", 1), ("z2_broken_omega.json", 1),
])
def test_validate_whole_corpus(capsys, name, expected):
    code, _, _ = run(capsys, "validate", fix(name))
    assert code == expected


def _child_env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def test_cli_import_loads_only_the_standard_library():
    # Diff against the modules loaded before the import: site hooks of the
    # environment (e.g. .pth files) may preload third-party modules.
    probe = ("import sys; before = set(sys.modules); import monocentre.cli; "
             "print(*{m.split('.')[0] for m in set(sys.modules) - before})")
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "monocentre" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"monocentre"}


@pytest.mark.parametrize("emit", ["text", "json"])
def test_closed_stdout_pipe_keeps_the_exit_code(emit):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader from the start: the first write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "monocentre", "report", fix("poset.json"),
             "--emit", emit],
            stdout=write_end, stderr=subprocess.PIPE, env=_child_env(),
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0


# Each case mutates one fixture and runs the command line with the mutated
# copy in place of "{}".
FUZZ_CASES = [
    ("z2_discrete.json", ["report", "{}"]),
    ("z3_discrete.json", ["report", "{}"]),
    ("poset.json", ["report", "{}"]),
    ("walking_arrow.json", ["report", "{}"]),
    ("broken_pentagon.json", ["report", "{}"]),
    ("z3.json", ["report", "{}"]),
    ("z2.json", ["vec-centre", "{}", "--omega", fix("z2_nontrivial.json")]),
    ("z2_nontrivial.json", ["vec-centre", fix("z2.json"), "--omega", "{}"]),
    ("z2_broken_omega.json", ["validate", "{}"]),
]
VALUE_MUTATIONS = {
    "plus one": lambda v: v + 1,
    "minus one": lambda v: v - 1,
    "negative": lambda v: -1,
    "large": lambda v: v + 1000,
}
TYPE_MUTATIONS = {
    "float": float,
    "bool": lambda v: v % 2 == 1,
    "string": str,
}
LEAF_MUTATIONS = {**VALUE_MUTATIONS, **TYPE_MUTATIONS}
KEY_MUTATIONS = ("drop key", "unknown key")


def _paths(node, want, path=()):
    """Paths of every node of type `want`, in document order."""
    if type(node) is want:
        yield path
    if type(node) is dict:
        children = node.items()
    elif type(node) is list:
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, want, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, rng):
    """Apply one random mutation in place; return its kind and pointer."""
    kind = rng.choice(sorted([*LEAF_MUTATIONS, *KEY_MUTATIONS]))
    if kind in KEY_MUTATIONS:
        path = rng.choice(list(_paths(doc, dict)))
        node = _at(doc, path)
        if kind == "drop key":
            del node[rng.choice(sorted(node))]
        else:
            node["unknown"] = 0
    else:
        path = rng.choice(list(_paths(doc, int)))
        parent = _at(doc, path[:-1])
        parent[path[-1]] = LEAF_MUTATIONS[kind](parent[path[-1]])
    return kind, "/" + "/".join(map(str, path))


def test_mutated_fixtures_exit_with_a_documented_code(capsys, tmp_path):
    rng = random.Random(20200301)
    mutant = str(tmp_path / "mutant.json")
    codes = set()
    for _ in range(400):
        name, argv = rng.choice(FUZZ_CASES)
        doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
        kind, pointer = _mutate(doc, rng)
        with open(mutant, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        where = f"{kind} at {pointer} of {name}"
        try:
            code, _, err = run(capsys, *[mutant if a == "{}" else a
                                         for a in argv])
        except Exception as exc:
            pytest.fail(f"{where}: {exc!r} escaped")
        assert code in (0, 1, 2, 3), where
        if kind not in VALUE_MUTATIONS:
            assert code == 2, where
        if kind in TYPE_MUTATIONS:
            assert err.startswith(f"error: at {pointer}: "), where
        codes.add(code)
    assert {0, 1, 2} <= codes
