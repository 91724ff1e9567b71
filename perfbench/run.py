"""Certification benchmark for the monocentre CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

NAME is one of the workloads in ``perfbench/oracle.json`` (translation,
linear, corpus) or ``all``, which runs each in turn.  Every workload is a
closed loop with one client: this process starts one child at a time and
waits for it.  The inputs are fixed fixtures; the seed only permutes the
order of the invocations in each pass.

``--trace 0`` measures the end-to-end metrics.  It first times the set-up
(interpreter start, ``import monocentre.cli`` and ``load_spec`` on each
invocation's inputs) in probe children, then runs passes of ``python3 -m
monocentre ...`` children until S seconds have gone, and at least
``MIN_PASSES``.  Each metric takes every invocation's median over its
children and sums it over the pass (the largest for peak RSS).  CPU time
and peak RSS are read per child from ``os.wait4``.

``--trace 1`` runs one CLI pass, then the same invocations in process
through ``perfbench/trace_pass.py``, plain and traced, in pairs until S
seconds have gone.  It reports per-module self time, call counts and sizes,
medians over the pairs.

Every execution of an invocation is checked against the oracle: its exit
code, its expected info lines, every certificate PASS on positives and the
expected FAIL on negatives, and its stdout byte-identical to the first
execution in the run.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics for reading, with ``fail_ratio``.  The metric names
come from ``BENCHMARK.json``.

Exit codes: 0 a result was printed, 2 the checkout cannot run the
benchmark, 3 the run overran its deadline.
"""

import argparse
import json
import os
import random
import re
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SCRATCH = ROOT / ".bench_build" / "perfbench"
DEADLINE_S = 170

# Set-up probe: what every CLI invocation pays before it computes.
PROBE = ("import sys, monocentre.cli\n"
         "from monocentre.jsonio import load_spec\n"
         "for path in sys.argv[1:]:\n"
         "    load_spec(path)\n")

# Probe children per set-up measurement, at least: enough for a steady median.
PROBE_CHILDREN = 12
PROBE_ROUNDS_MIN = 3
# Passes per run, at least: every invocation runs more than twice, so the
# determinism check has a second execution and each median a third sample.
MIN_PASSES = 3

CERT_LINE = re.compile(r"(.*?) — (PASS|FAIL)(?: \(.*\))?")
SECTION_HEADER = re.compile(r"\[(\S+)\] .*")


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


class Overrun(Exception):
    """The run passed its deadline."""


@dataclass
class Child:
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MONOCENTRE_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


ENV = child_env()


def spawn(args):
    """Run ``python3 ARGS`` to completion, with its own rusage from wait4."""
    out, err = SCRATCH / "child.out", SCRATCH / "child.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], ENV,
                         file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Child(os.waitstatus_to_exitcode(status), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 out.read_bytes(), err.read_bytes())


def parse_report(text, command):
    """Sections of a text report: name -> info lines and certificates.

    A ``[name] path`` header starts a section; output with a single
    ``input: path`` header is one section named after the subcommand."""
    sections, current = {}, None
    for line in text.splitlines():
        header = SECTION_HEADER.fullmatch(line)
        if header or (current is None and line.startswith("input: ")):
            name = header[1] if header else command
            current = sections.setdefault(name, {"info": {}, "certs": {}})
            continue
        if current is None:
            continue
        cert = CERT_LINE.fullmatch(line)
        if cert:
            current["certs"][cert[1]] = cert[2]
            continue
        key, sep, value = line.partition(": ")
        if sep:
            current["info"][key] = value
    return sections


def oracle_failures(inv, exit_code, stdout):
    """Why one execution disagrees with its oracle entry (empty if it agrees)."""
    why = []
    if exit_code != inv["exit"]:
        why.append(f"exit {exit_code}, expected {inv['exit']}")
    sections = parse_report(stdout.decode("utf-8", "replace"), inv["argv"][0])
    for name, lines in inv["expect"].items():
        info = sections.get(name, {}).get("info", {})
        for key, want in lines.items():
            if info.get(key) != want:
                why.append(f"[{name}] {key}: {info.get(key)!r}, expected {want!r}")
    certs = [(n, v) for s in sections.values() for n, v in s["certs"].items()]
    if inv["exit"] == 0:
        if not certs:
            why.append("no certificate printed")
        why += [f"certificate FAIL: {n}" for n, v in certs if v != "PASS"]
    for name in inv.get("fail", ()):
        if (name, "FAIL") not in certs:
            why.append(f"certificate did not FAIL: {name}")
    return why


class Checker:
    """Counts executions and failures over one run; keeps each invocation's
    first stdout as the reference the later executions must equal."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = {}

    def check(self, inv, exit_code, stdout, stderr=b""):
        self.attempted += 1
        key = tuple(inv["argv"])
        why = oracle_failures(inv, exit_code, stdout)
        if self.reference.setdefault(key, stdout) != stdout:
            why.append("stdout differs from the first execution in this run")
        if why:
            self.failed += 1
            tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            print(f"FAILED monocentre {' '.join(key)}: {'; '.join(why + tail)}",
                  file=sys.stderr)


def input_files(inv):
    return [a for a in inv["argv"] if a.endswith(".json")]


def require_checkout(invocations):
    """Refuse a directory that cannot run the workload, then byte-compile
    the package and read the inputs once, untimed."""
    missing = [p for p in ["src/monocentre/cli.py", "BENCHMARK.json",
                           *(f for inv in invocations for f in input_files(inv))]
               if not (ROOT / p).is_file()]
    if missing:
        raise SetupError(f"not a monocentre checkout: missing {', '.join(missing)}")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    warm = spawn(["-c", PROBE, *sorted({f for inv in invocations
                                        for f in input_files(inv)})])
    if warm.exit != 0:
        raise SetupError("cannot import monocentre or load the fixtures: "
                         + warm.stderr.decode("utf-8", "replace").strip())


def measure_setup(invocations, rng):
    """Per-invocation median probe time, summed over the invocations."""
    rounds = max(PROBE_ROUNDS_MIN, -(-PROBE_CHILDREN // len(invocations)))
    samples = {}
    for _ in range(rounds):
        for inv in rng.sample(invocations, len(invocations)):
            probe = spawn(["-c", PROBE, *input_files(inv)])
            if probe.exit != 0:
                raise SetupError(f"set-up probe failed on {input_files(inv)}")
            samples.setdefault(tuple(inv["argv"]), []).append(probe.wall_s)
    return sum(statistics.median(v) for v in samples.values())


def cli_pass(invocations, rng, checker, samples):
    """One pass of CLI children in a seeded order; appends each child's
    (wall, cpu, RSS) to its invocation's samples and returns the pass wall."""
    wall = 0.0
    for inv in rng.sample(invocations, len(invocations)):
        child = spawn(["-m", "monocentre", *inv["argv"]])
        checker.check(inv, child.exit, child.stdout, child.stderr)
        samples.setdefault(tuple(inv["argv"]), []).append(
            (child.wall_s, child.cpu_s, child.rss_mb))
        wall += child.wall_s
    return wall


def end_to_end(invocations, rng, seconds, checker):
    """Per-invocation medians over passes, summed over a pass (the largest
    for RSS).  Passes run until SECONDS have gone, and at least MIN_PASSES."""
    setup = measure_setup(invocations, rng)
    samples, passes = {}, []
    stop = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < stop:
        passes.append(cli_pass(invocations, rng, checker, samples))
    medians = [[statistics.median(col) for col in zip(*v)] for v in samples.values()]
    return {
        "wall_s": (sum(m[0] for m in medians), "s"),
        "cpu_s": (sum(m[1] for m in medians), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (max(m[2] for m in medians), "MB"),
    }, passes


def self_times(spans):
    """Per-module self time (span time minus child spans) and call counts."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    metrics = Counter()
    for (name, start, end, _), inner in zip(spans, covered):
        layer, fn = name.split(":")
        metrics[f"{layer}.self_s"] += end - start - inner
        if fn != "import":
            metrics[f"{layer}.calls"] += 1
    return metrics


def src_lines():
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src" / "monocentre").rglob("*.py")))


def per_layer(invocations, rng, seconds, checker):
    """One CLI pass, then the same order in process, plain and traced, as
    pairs until SECONDS have gone; self times are medians over the pairs."""
    order = rng.sample(invocations, len(invocations))
    argvs = json.dumps([inv["argv"] for inv in order])
    for inv in order:
        child = spawn(["-m", "monocentre", *inv["argv"]])
        checker.check(inv, child.exit, child.stdout, child.stderr)
    pairs = []
    stop = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < stop:
        docs = {}
        for mode in ("plain", "traced"):
            out = SCRATCH / f"{mode}.json"
            child = spawn([str(BENCH_DIR / "trace_pass.py"), mode, str(out), argvs])
            if child.exit != 0:
                raise SetupError(f"{mode} in-process pass failed: "
                                 + child.stderr.decode("utf-8", "replace").strip())
            docs[mode] = json.loads(out.read_text(encoding="utf-8"))
            for inv, result in zip(order, docs[mode]["invocations"]):
                checker.check(inv, result["exit"], result["stdout"].encode("utf-8"))
        traced = docs["traced"]
        metrics = self_times(traced["spans"])
        metrics.update(traced["counts"])
        metrics["trace.overhead_s"] = traced["wall_s"] - docs["plain"]["wall_s"]
        pairs.append(metrics)
    medians = {name: statistics.median(p.get(name, 0) for p in pairs)
               for name in set().union(*pairs)}
    medians["src_lines"] = src_lines()
    return medians, len(pairs)


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    return "lines" if name == "src_lines" else "count"


def run_workload(name, invocations, args, benchmark):
    """Measure one workload: (human-readable lines, result document)."""
    rng = random.Random(args.seed)
    checker = Checker()
    require_checkout(invocations)
    if args.trace:
        values, n_pairs = per_layer(invocations, rng, args.seconds, checker)
        names = [m["name"] for m in benchmark["per_layer"]]
        metrics = {n: (values.get(n, 0), unit_of(n)) for n in names}
        runs = f"one CLI pass, {n_pairs} plain and traced in-process pairs"
    else:
        values, passes = end_to_end(invocations, rng, args.seconds, checker)
        names = [m["name"] for m in benchmark["end_to_end"]]
        metrics = {n: values[n] for n in names}
        runs = (f"{len(passes)} passes of "
                + " ".join(f"{wall:.3f}" for wall in passes) + " s")
    lines = [f"workload {name}, seed {args.seed}: {runs}, "
             f"{len(invocations)} invocations per pass"]
    lines += [f"  {n:<28} {v:.6g} {u}" for n, (v, u) in metrics.items()]
    lines.append(f"  {'fail_ratio':<28} {checker.failed / checker.attempted:.6g} "
                 f"({checker.failed} of {checker.attempted} executions)")
    doc = {"correct": checker.failed == 0, "attempted": checker.attempted,
           "failed": checker.failed,
           "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    return lines, doc


def load_json(path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _overrun(signum, frame):
    raise Overrun(f"the run did not end within {DEADLINE_S} s per workload")


def main(argv=None):
    workloads = load_json(BENCH_DIR / "oracle.json")["workloads"]
    args = parse_args(argv, workloads)
    chosen = list(workloads) if args.workload == "all" else [args.workload]
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(DEADLINE_S * len(chosen))
    try:
        benchmark = load_json(ROOT / "BENCHMARK.json")
        docs = {}
        for name in chosen:
            lines, docs[name] = run_workload(
                name, workloads[name]["invocations"], args, benchmark)
            print("\n".join(lines), flush=True)
    except (SetupError, Overrun) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, Overrun) else 2
    finally:
        signal.alarm(0)
    if len(docs) == 1:
        doc = docs[args.workload]
    else:
        doc = {"correct": all(d["correct"] for d in docs.values()),
               "attempted": sum(d["attempted"] for d in docs.values()),
               "failed": sum(d["failed"] for d in docs.values()),
               "metrics": {f"{w}.{n}": m for w, d in docs.items()
                           for n, m in d["metrics"].items()}}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
