"""Self-test of the certification benchmark.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

The smoke runs use ``--seconds 1``, the shortest run: three CLI passes, or
with ``--trace 1`` one CLI pass and one plain and traced pair.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Every workload of the oracle, gated in BENCHMARK.json or not.
WORKLOADS = list(json.loads((ROOT / "perfbench" / "oracle.json").read_text(
    encoding="utf-8"))["workloads"])


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = run_bench(ROOT, workload, trace)
        return cache[workload, trace]
    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(smoke, workload, trace):
    proc = smoke(workload, trace)
    doc = result(proc)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())
    assert "fail_ratio                   0 (0 of" in proc.stdout


def test_every_layer_does_work_on_the_corpus(smoke):
    metrics = result(smoke("corpus", 1))["metrics"]
    idle = [n for n, m in metrics.items() if m["value"] <= 0 and n != "trace.overhead_s"]
    assert idle == []


@pytest.mark.parametrize("workload,layers", [
    ("translation", ("fincat", "hochschild")),
    ("linear", ("veck", "cyclo")),
])
def test_named_layers_take_most_of_the_traced_time(smoke, workload, layers):
    metrics = result(smoke(workload, 1))["metrics"]
    self_s = {n: m["value"] for n, m in metrics.items()
              if n.endswith(".self_s")}
    assert sum(self_s[f"{layer}.self_s"] for layer in layers) > sum(self_s.values()) / 2


def copy_checkout(dest, with_program=True):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        for name in ("src", "fixtures"):
            shutil.copytree(ROOT / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))


def test_a_corrupted_oracle_entry_fails(tmp_path):
    copy_checkout(tmp_path)
    oracle_path = tmp_path / "perfbench" / "oracle.json"
    oracle = json.loads(oracle_path.read_text(encoding="utf-8"))
    entry = oracle["workloads"]["corpus"]["invocations"][0]
    assert entry["expect"]["centre"]["centre objects"] == "2"
    entry["expect"]["centre"]["centre objects"] = "3"
    oracle_path.write_text(json.dumps(oracle), encoding="utf-8")
    proc = run_bench(tmp_path, "corpus", 0)
    doc = result(proc)
    assert not doc["correct"]
    assert doc["failed"] > 0
    assert "fail_ratio                   0 (" not in proc.stdout
    assert "[centre] centre objects: '2', expected '3'" in proc.stderr


def test_without_the_program_no_result_is_printed(tmp_path):
    copy_checkout(tmp_path, with_program=False)
    proc = run_bench(tmp_path, "corpus", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "not a monocentre checkout" in proc.stderr


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stdout_that_changes_between_executions_fails():
    run = load_run_module()
    inv = {"argv": ["validate", "fixtures/walking_arrow.json"], "exit": 0,
           "expect": {"validate": {"objects": "2"}}}
    first = b"input: x\nobjects: 2\nAxiom: laws \xe2\x80\x94 PASS\n"
    checker = run.Checker()
    checker.check(inv, 0, first)
    checker.check(inv, 0, first)
    assert (checker.attempted, checker.failed) == (2, 0)
    checker.check(inv, 0, first + b"\n")
    assert (checker.attempted, checker.failed) == (3, 1)
