"""Where a CLI run from source reaches its peak RSS: the compile of each
module, or the work.

    python3 scripts/compile_peaks.py vec-centre fixtures/s3.json

runs ``python3 -m monocentre ARGS`` in a child process that compiles every
``monocentre`` module from source, as a run without cached bytecode does,
and prints one row per module in compile order: its compile time and the
child's maximum resident set size (``ru_maxrss``) just before and just
after the compile.  The last row gives the maximum at exit and the CLI's
exit code.  The CLI's own output is discarded.  Standard library only.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Runs in the child: argv[1] is the descriptor to report on, the rest are
# the CLI's arguments.
PROBE = r"""
import importlib.machinery, os, resource, runpy, sys, time

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

rows = []

class Loader(importlib.machinery.SourceFileLoader):
    def get_code(self, fullname):
        source = self.get_data(self.path)
        before, start = maxrss(), time.perf_counter()
        code = self.source_to_code(source, self.path)
        rows.append((fullname, time.perf_counter() - start, before, maxrss()))
        return code

class Finder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] != "monocentre":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None and spec.origin.endswith(".py"):
            spec.loader = Loader(name, spec.origin)
        return spec

sys.meta_path.insert(0, Finder)
report = os.fdopen(int(sys.argv.pop(1)), "w")
try:
    runpy.run_module("monocentre", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
for row in rows:
    print(*row, file=report)
print("exit", code, maxrss(), file=report)
"""


def measure(args) -> list:
    """The child's rows: (module, compile seconds, maxrss KB before, after),
    then ("exit", exit code, maxrss KB at exit)."""
    read_end, write_end = os.pipe()
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8"}
    try:
        subprocess.run([sys.executable, "-c", PROBE, str(write_end), *args],
                       stdout=subprocess.DEVNULL, pass_fds=[write_end], env=env)
    finally:
        os.close(write_end)
    with os.fdopen(read_end) as report:
        return [line.split() for line in report]


def main(args) -> int:
    rows = measure(args)
    if not rows or rows[-1][0] != "exit":
        print("the child reported no exit row", file=sys.stderr)
        return 1
    print(f"{'module':<24} {'compile ms':>10} {'maxrss MB before':>17} {'after':>8}")
    for name, seconds, before, after in rows[:-1]:
        print(f"{name:<24} {float(seconds) * 1e3:>10.2f} "
              f"{int(before) / 1024:>17.2f} {int(after) / 1024:>8.2f}")
    _, code, peak = rows[-1]
    print(f"exit {code}, maxrss at exit {int(peak) / 1024:.2f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
