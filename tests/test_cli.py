"""End-to-end CLI tests: contract examples, exit codes, determinism."""

import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from monocentre.cli import main
from monocentre.config import GUARDS, GuardConfig, SizeGuardExceeded
from monocentre.fincat import FinCategory, Functor, walking_arrow
from monocentre.graded import Cocycle3, Group
from monocentre.record import Certificate

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


def test_vec_centre_group_order_guard_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("MONOCENTRE_VEC_MAX_GROUP", "4")
    code, out, err = run(capsys, "vec-centre", fix("s3.json"))
    assert code == 3 and out == ""
    assert "group order needs 6, limit 4" in err


def test_oversized_group_is_refused_before_the_cocycle_check(capsys, tmp_path):
    # Z40: the quartic cocycle check alone takes over a second; the refusal
    # must cost no more than validating the same file.  Both are timed in
    # CPU time, which other processes on the machine do not inflate.
    from monocentre.jsonio import group_to_doc, write_spec

    path = str(tmp_path / "z40.json")
    write_spec(path, group_to_doc([[(i + j) % 40 for j in range(40)]
                                   for i in range(40)]))

    def best_of_three(*argv):
        times = []
        for _ in range(3):
            start = time.process_time()
            code = main(list(argv))
            times.append(time.process_time() - start)
        return code, min(times)

    validate_code, validate_s = best_of_three("validate", path)
    code, refuse_s = best_of_three("vec-centre", path)
    err = capsys.readouterr().err
    assert validate_code == 0 and code == 3
    assert "group order needs 40, limit 8" in err
    assert refuse_s <= validate_s + 0.05, (refuse_s, validate_s)


def test_oversized_product_is_refused_after_one_validation(capsys, tmp_path):
    # discrete S4: validating the input takes over a second, and the
    # translation diagram reads the input's kept report instead of checking
    # it again, so equiv costs no more than validate plus 0.05 s before the
    # product A x A is refused.  The remainder is timed on its own: the
    # validation both commands share varies by more than 0.05 s run to run.
    # It is timed in CPU time, which other processes do not inflate.
    from itertools import permutations

    from monocentre.hochschild import verify_prop_3_1
    from monocentre.jsonio import load_spec, monoidal_to_doc, write_spec
    from monocentre.monoidal import two_group_monoidal

    perms = sorted(permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    s4 = [[index[tuple(p[q[k]] for k in range(4))] for q in perms] for p in perms]
    path = str(tmp_path / "s4_discrete.json")
    write_spec(path, monoidal_to_doc(two_group_monoidal(s4)))
    code, out, err = run(capsys, "equiv", path)
    assert code == 3 and out == ""
    assert "product category objects needs 576, limit 64" in err

    ms = load_spec(path).payload
    assert ms.problems == ()
    times = []
    for _ in range(3):
        start = time.process_time()
        with pytest.raises(SizeGuardExceeded,
                           match="product category objects needs 576, limit 64"):
            verify_prop_3_1(ms)
        times.append(time.process_time() - start)
    assert min(times) <= 0.05, times


def test_group_order_guard_wins_over_a_broken_cocycle(capsys, monkeypatch):
    # both would refuse: the size guard is checked first and exits 3
    monkeypatch.setenv("MONOCENTRE_VEC_MAX_GROUP", "1")
    code, out, err = run(capsys, "vec-centre", fix("z2.json"),
                         "--omega", fix("z2_broken_omega.json"))
    assert code == 3 and out == ""
    assert "group order needs 2, limit 1" in err


def count_calls(monkeypatch, *fns):
    """Count calls to fns wherever a monocentre module binds them, so that
    calls from within a function's own module count too.  A report kept on
    a value and read again is not a call."""
    calls = dict.fromkeys((fn.__name__ for fn in fns), 0)

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("monocentre"):
            for fn in fns:
                if getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, counted(fn))
    return calls


def test_vec_centre_validates_the_group_and_the_cocycle_once(capsys, monkeypatch):
    import monocentre.graded as graded
    import monocentre.monoidal as monoidal

    calls = count_calls(monkeypatch, monoidal.group_table_report,
                        graded.check_cocycle)
    for argv in (["vec-centre", fix("s3.json")],
                 ["report", fix("z3.json")],
                 ["vec-centre", fix("z2.json"), "--omega", fix("z2_nontrivial.json")],
                 ["validate", fix("z2_nontrivial.json")]):
        calls.update(group_table_report=0, check_cocycle=0)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert calls == {"group_table_report": 1, "check_cocycle": 1}, argv
        if argv[0] == "vec-centre":
            assert "Axiom: normalized 3-cocycle — PASS" in out
            assert "Prop 2.1: associator pentagon (3-cocycle identity) — PASS" in out


def test_each_set_level_check_and_construction_runs_once(capsys, monkeypatch):
    # validate_monoidal runs once on the input and once on the centre's own
    # monoidal structure; report renders centre, descent and equiv from one
    # comparison, and descent builds no centre
    from monocentre import bilimits, centre, hochschild, monoidal

    calls = count_calls(monkeypatch, monoidal.validate_monoidal,
                        centre.compute_centre, hochschild.build_hochschild,
                        bilimits.descent_object, bilimits.validate_cosimplicial)
    for argv, counts in ((["report", fix("z2_discrete.json")], (2, 1, 1, 1, 1)),
                         (["equiv", fix("poset.json")], (2, 1, 1, 1, 1)),
                         (["descent", fix("poset.json")], (1, 0, 1, 1, 1))):
        calls.update(dict.fromkeys(calls, 0))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "FAIL" not in out
        assert tuple(calls.values()) == counts, (argv, calls)


def test_tables_that_are_not_groups_fail_their_axiom_line(capsys, tmp_path):
    from monocentre.jsonio import cocycle_to_doc, group_to_doc, write_spec
    from monocentre.graded import z2_nontrivial_cocycle

    group = str(tmp_path / "z3_not_associative.json")
    write_spec(group, group_to_doc([[0, 1, 2], [1, 1, 0], [2, 0, 1]]))  # 1 * 1 = 1
    axiom = ("Axiom: group table (associativity, identity, inverses) — FAIL "
             "(not associative at (1, 1, 2))\n")
    head = f"input: {group}\n"
    for argv, info in ((["validate", group], "kind: group\ngroup order: 3\n"),
                       (["vec-centre", group],
                        "group order: 3\ncocycle: trivial (default)\n"),
                       (["report", group], "kind: group\ngroup order: 3\n")):
        assert run(capsys, *argv) == (1, head + info + axiom, ""), argv

    doc = cocycle_to_doc(z2_nontrivial_cocycle())
    doc["table"] = [[0, 1], [1, 1]]  # 1 has no inverse
    cocycle = str(tmp_path / "over_a_monoid.json")
    write_spec(cocycle, doc)
    assert run(capsys, "validate", cocycle) == (
        1, f"input: {cocycle}\nkind: cocycle\ngroup order: 2\nscalar order: 2\n"
           "Axiom: normalized 3-cocycle — FAIL (group table invalid: element 1 "
           "has no inverse)\n", "")


def test_cocycle_over_a_different_table_is_malformed(capsys):
    code, out, err = run(capsys, "vec-centre", fix("z3.json"),
                         "--omega", fix("z2_nontrivial.json"))
    assert code == 2 and out == ""
    assert "is defined over a different group table than" in err


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


def test_convolve_convolves_each_representable_pair_once(capsys, monkeypatch):
    # the unit laws are read off the pairs (unit, b) and (b, unit), as J is
    # y_unit: |A|^2 convolutions, not |A|^2 + 2|A|
    from monocentre import convolution

    calls = count_calls(monkeypatch, convolution.day_convolve)
    for command in ("convolve", "report"):
        for name, n_objects in (("z4_discrete.json", 4), ("poset.json", 2)):
            calls["day_convolve"] = 0
            code, out, _ = run(capsys, command, fix(name))
            assert code == 0 and "FAIL" not in out
            assert calls["day_convolve"] == n_objects ** 2, (command, name)


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
    # the centre is built before the translation diagram, so it refuses
    # first wherever both are built
    monkeypatch.setenv("MONOCENTRE_MAX_OBJECTS", "1")
    for command, stage in (("equiv", "centre objects"),
                           ("report", "centre objects"),
                           ("descent", "translation level one objects")):
        code, out, err = run(capsys, command, fix("z2_discrete.json"))
        assert code == 3 and out == ""
        assert f"size guard exceeded: {stage} needs 2, limit 1" in err, command


def test_config_file_plumbing(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"vec_max_group": 4}))
    code, out, err = run(capsys, "vec-centre", fix("s3.json"),
                         "--config", str(cfgfile))
    assert code == 3 and out == ""
    assert "group order needs 6, limit 4" in err
    cfgfile.write_text(json.dumps({"no_such_guard": 1}))
    code, _, err = run(capsys, "validate", fix("z2.json"),
                       "--config", str(cfgfile))
    assert code == 2
    assert "unknown keys" in err


@pytest.mark.parametrize("make, reason", [
    (lambda tmp: tmp / "missing.json", "No such file or directory"),
    (lambda tmp: tmp, "Is a directory"),
    (lambda tmp: tmp / "cfg.json", "Expecting value"),
], ids=["missing", "directory", "not_json"])
def test_unreadable_config_file_exits_2(capsys, tmp_path, make, reason):
    (tmp_path / "cfg.json").write_text("max_branch = 1")
    path = str(make(tmp_path))
    code, out, err = run(capsys, "validate", fix("z2.json"), "--config", path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: config file {path}: {reason}")
    assert err.count("\n") == 1


def test_config_file_rejects_bool_guard(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"vec_max_group": True}))
    code, out, err = run(capsys, "vec-centre", fix("s3.json"),
                         "--config", str(cfgfile))
    assert code == 2 and out == ""
    assert "vec_max_group" in err


def test_env_rejects_negative_guard(capsys, monkeypatch):
    monkeypatch.setenv("MONOCENTRE_MAX_OBJECTS", "-3")
    code, out, err = run(capsys, "centre", fix("z2_discrete.json"))
    assert code == 2 and out == ""
    assert "max_objects" in err


def _guards(cfg):
    return tuple(getattr(cfg, name) for name in GUARDS)


def _refusal(**guards):
    with pytest.raises(ValueError) as exc:
        GuardConfig(**guards)
    return str(exc.value)


def _assignment(record, name):
    with pytest.raises(AttributeError) as exc:
        setattr(record, name, 1)
    return str(exc.value)


def _lists_and_tuples_agree():
    comp = {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2}
    return FinCategory(2, [0, 1, 0], [0, 1, 1], [0, 1], comp) == walking_arrow()


def _indexes():
    cat = walking_arrow()
    return cat.hom(0, 1), cat.hom(1, 0), cat.is_invertible(0), cat.is_invertible(2)


def _cocycle_residues():
    omega = Cocycle3(Group(((0, 1), (1, 0))), 2, [[[0, 2], [-2, 4]], [[0, -1], [3, 5]]])
    with pytest.raises(ValueError) as exc:
        Cocycle3(omega.group, 0, omega.exponents)
    return omega.exponents, str(exc.value)


def _help_defaults():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main(["--help"])
    return out.getvalue().splitlines()[-1]


@pytest.mark.parametrize("probe, want", [
    (lambda: _guards(GuardConfig()), (64, 4096, 1_000_000, 8)),
    (lambda: _guards(GuardConfig(max_branch=10, vec_max_group=2)), (64, 4096, 10, 2)),
    (lambda: _refusal(vec_max_group=True),
     "guard vec_max_group must be a nonnegative integer, got True"),
    (lambda: _refusal(max_objects=-1),
     "guard max_objects must be a nonnegative integer, got -1"),
    (lambda: _assignment(GuardConfig(), "max_objects"), "cannot assign to field 'max_objects'"),
    (lambda: (GuardConfig(3) == GuardConfig(max_objects=3),
              hash(GuardConfig(3)) == hash(GuardConfig(max_objects=3)),
              GuardConfig(3) == GuardConfig(4)), (True, True, False)),
    (lambda: Certificate("x", True).detail, ""),
    (_lists_and_tuples_agree, True),
    (lambda: _assignment(Functor(walking_arrow(), walking_arrow(), (0, 1), (0, 1, 2)),
                         "obj_map"), "cannot assign to field 'obj_map'"),
    (_indexes, ([2], [], True, False)),
    (_cocycle_residues, ((((0, 0), (0, 0)), ((0, 1), (1, 1))),
                         "scalar order must be a positive integer")),
    (_help_defaults,
     "  max_objects=64, max_morphisms=4096, max_branch=1000000, vec_max_group=8"),
], ids=["defaults", "keywords", "bool refused", "negative refused", "immutable",
        "value equality", "certificate detail", "category from lists",
        "functor immutable", "category indexes", "cocycle residues", "help defaults"])
def test_records_keep_their_construction_checks_and_value_semantics(probe, want):
    assert probe() == want


def test_removed_carrier_bound_is_malformed_not_ignored(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"vec_dim_bound": 8}))
    code, out, err = run(capsys, "vec-centre", fix("s3.json"),
                         "--config", str(cfgfile))
    assert code == 2 and out == ""
    assert "unknown keys ['vec_dim_bound']" in err
    with pytest.raises(SystemExit) as exc:
        main(["vec-centre", fix("s3.json"), "--dim-bound", "8"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_workers_is_not_a_guard(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"workers": 1}))
    code, _, err = run(capsys, "validate", fix("z2.json"),
                       "--config", str(cfgfile))
    assert code == 2
    assert "unknown keys ['workers']" in err


@pytest.mark.parametrize("key", ["hochschild_max_base", "level2_full_cap", "closure_cap"])
def test_removed_translation_guards_are_unknown_keys(capsys, tmp_path, key):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: 1}))
    code, out, err = run(capsys, "equiv", fix("z2_discrete.json"),
                         "--config", str(cfgfile))
    assert code == 2 and out == ""
    assert f"unknown keys ['{key}']" in err


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
    # The package's records are plain classes: no dataclass machinery and
    # none of the introspection modules it pulls in.
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_loading_a_payload_compiles_no_solver():
    # jsonio builds groups and cocycles from graded, which holds the values
    # of Vec_G^omega apart from the linear solver in veck and the set-level
    # constructions.
    probe = ("import sys; import monocentre.jsonio; "
             "print(*sorted(m for m in sys.modules if m.startswith('monocentre.')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = {m.removeprefix("monocentre.") for m in proc.stdout.split()}
    assert "graded" in loaded
    assert not loaded & {"veck", "centre", "bilimits", "hochschild", "convolution"}, loaded


def test_cli_runs_load_neither_fractions_nor_decimal():
    # the cyclotomic kernel reads rationals as integer pairs; only the
    # Fraction view CycNumber.coeffs imports fractions (and decimal with it)
    runs = [["vec-centre", fix("s3.json")],
            ["vec-centre", fix("z2.json"), "--omega", fix("z2_broken_omega.json")],
            ["report", fix("z4_discrete.json")],
            ["validate", fix("broken_pentagon.json")]]
    probe = ("import contextlib, os, sys; from monocentre.cli import main\n"
             "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
             f"    codes = [main(argv) for argv in {runs!r}]\n"
             "print(*codes, *sorted({'fractions', 'decimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1", "0", "1"]


def test_the_linear_backend_compiles_no_set_level_centre():
    # veck reads Certificate from record, so the half-braiding enumeration
    # of centre stays out of a vec-centre run
    probe = ("import sys; import monocentre.veck; "
             "print(*sorted(m for m in sys.modules if m.startswith('monocentre.')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = {m.removeprefix("monocentre.") for m in proc.stdout.split()}
    assert "veck" in loaded
    assert "centre" not in loaded, loaded


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


@pytest.mark.parametrize("argv, env, code", [
    (["validate", fix("absent.json")], {}, 2),
    (["equiv", fix("z2_discrete.json")],
     {"MONOCENTRE_MAX_OBJECTS": "1"}, 3),
], ids=["malformed", "guard"])
def test_closed_stderr_pipe_keeps_the_exit_code(argv, env, code):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader from the start: the error line fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "monocentre", *argv],
            stdout=subprocess.PIPE, stderr=write_end,
            env={**_child_env(), **env}, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stdout == b""
    assert proc.returncode == code


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
