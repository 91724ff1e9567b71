"""Run CLI invocations in one process through ``monocentre.cli.main``.

    python3 perfbench/trace_pass.py {plain,traced} OUT.json '<JSON list of argv lists>'

Both modes import ``monocentre.cli`` and call ``main(argv)`` once per
invocation, capturing its stdout, and write one JSON document to OUT.json:
the wall time from before the import to after the last invocation, each
invocation's exit code and stdout and, in ``traced`` mode, the spans and
counts.  ``run.py`` starts this script as a child; the difference between
the two modes' wall times is the tracing overhead.

Tracing touches no file under ``src/``.  Before the run it

* times the import of every ``monocentre`` module as a span
  ``<module>:import`` (nested imports are child spans);
* rebinds, in every ``monocentre`` module, each name bound to another
  module's public function to a wrapper that records a span
  ``<home module>:<function>`` and reads sizes from the arguments and the
  result;
* rebinds the functions named in ``COUNTED_AT_HOME`` in their home module
  to a count-only wrapper, so calls within that module are counted too,
  while their time stays in the module's self time.

A span is ``[name, start, end, parent index]``.  Calls within one module
and ``CycNumber`` operators record no span.
"""

import contextlib
import functools
import importlib.abc
import importlib.machinery
import inspect
import io
import json
import sys
import time
import traceback
import weakref
from collections import Counter

PACKAGE = "monocentre"


def _solve_linear_counts(args, counts):
    matrix = args[0] if args else ()
    counts["cyclo.solve_linear_calls"] += 1
    counts["cyclo.solve_linear_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _mat_mul_counts(args, counts):
    counts["cyclo.mat_mul_calls"] += 1


# Counts read from the arguments of every call to these functions.
FUNCTION_COUNTS = {
    "solve_linear": _solve_linear_counts,
    "mat_mul": _mat_mul_counts,
}

# Also rebound in their home module, so that calls from within that module
# are counted: cyclo calls its own solve_linear and mat_mul, and
# descent_object builds its inserter through bilimits' own iso_inserter.
COUNTED_AT_HOME = ("solve_linear", "mat_mul", "iso_inserter")


def _functor_category_sizes(r, counts):
    counts["fincat.functors"] += len(r.functors)
    counts["fincat.transfs"] += len(r.transfs)


def _inserter_sizes(r, counts):
    counts["bilimits.inserter_objects"] += r.category.n_objects


def _descent_sizes(r, counts):
    counts["bilimits.descent_objects"] += r.category.n_objects


def _centre_sizes(r, counts):
    counts["centre.objects"] += r.category.n_objects
    counts["centre.morphisms"] += r.category.n_morphisms


def _vec_centre_sizes(r, counts):
    counts["veck.simples"] += len(r.simples)


# Sizes read from a result, by the result's class name.
RESULT_SIZES = {
    "FunctorCategory": _functor_category_sizes,
    "Inserter": _inserter_sizes,
    "DescentResult": _descent_sizes,
    "CentreCategory": _centre_sizes,
    "VecCentreResult": _vec_centre_sizes,
}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._diagrams = {}   # id -> weak reference; diagrams are unhashable

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def record(self, layer, fn_name, args, result):
        counts = self.counts
        per_call = FUNCTION_COUNTS.get(fn_name)
        if per_call is not None:
            per_call(args, counts)
        sizes = RESULT_SIZES.get(type(result).__name__)
        if sizes is not None:
            sizes(result, counts)
        elif layer == "fincat" and isinstance(result, (list, tuple)) and result:
            # an enumeration: a list of functors or of transformations
            kind = type(result[0]).__name__
            if kind == "Functor":
                counts["fincat.functors"] += len(result)
            elif kind == "NatTransf":
                counts["fincat.transfs"] += len(result)
        for value in (*args, result):
            self._diagram_sizes(getattr(value, "diagram", value))

    def _diagram_sizes(self, value):
        """Levels one and two of each translation diagram seen, once each."""
        if type(value).__name__ != "TruncatedCosimplicial":
            return
        seen = self._diagrams.get(id(value))
        if seen is not None and seen() is value:
            return
        self._diagrams[id(value)] = weakref.ref(value)
        self.counts["hochschild.x1_objects"] += value.X1.n_objects
        self.counts["hochschild.x2_objects"] += value.X2.n_objects
        self.counts["hochschild.x2_morphisms"] += value.X2.n_morphisms

    def spanned(self, fn, layer):
        name = f"{layer}:{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.record(layer, fn.__name__, args, result)
            return result
        return wrapper

    def counted(self, fn, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.record(layer, fn.__name__, args, result)
            return result
        return wrapper


class ImportSpans(importlib.abc.MetaPathFinder):
    """Records the import of each package module as a span."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if not name.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        span_name = name.rsplit(".", 1)[1] + ":import"

        def timed_exec(module):
            index = self.tracer.open(span_name)
            try:
                exec_module(module)
            finally:
                self.tracer.close(index)
        spec.loader.exec_module = timed_exec
        return spec


def layer_of(fn):
    return fn.__module__.rsplit(".", 1)[1]


def install_wrappers(tracer):
    """Rebind cross-module public functions to span wrappers and the
    functions in COUNTED_AT_HOME, in their home module, to count wrappers."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith(PACKAGE + ".")]
    for module in modules:
        for name, obj in list(vars(module).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith(PACKAGE + ".")):
                continue
            if obj.__module__ != module.__name__:
                setattr(module, name, tracer.spanned(obj, layer_of(obj)))
            elif name in COUNTED_AT_HOME:
                setattr(module, name, tracer.counted(obj, layer_of(obj)))


def run(mode, invocations):
    tracer = Tracer() if mode == "traced" else None
    start = time.perf_counter()
    if tracer is not None:
        sys.meta_path.insert(0, ImportSpans(tracer))
    import monocentre.cli as cli
    main = cli.main
    if tracer is not None:
        install_wrappers(tracer)
        main = tracer.spanned(cli.main, "cli")
    results = []
    for argv in invocations:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            # the exit code the interpreter would give
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = (exc.code if isinstance(exc.code, int)
                        else 0 if exc.code is None else 1)
            except Exception:
                traceback.print_exc()
                code = 1
        results.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
    wall = time.perf_counter() - start
    doc = {"mode": mode, "wall_s": wall, "invocations": results}
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["counts"] = dict(tracer.counts)
    return doc


def main(argv):
    if len(argv) != 3 or argv[0] not in ("plain", "traced"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    mode, out_path, invocations = argv[0], argv[1], json.loads(argv[2])
    doc = run(mode, invocations)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
