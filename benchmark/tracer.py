"""Per-layer trace of one `yangian` CLI run, recorded from outside the package.

Usage (with the package's `src` directory on PYTHONPATH):

    python3 benchmark/tracer.py TRACE.json -- verify hopf-axioms --n 2 --format json

The tracer wraps the public boundaries of each module (`suites`, `cli`,
`rtt`, `series`, `algebra`, `hopf`, `drinfeld`), runs `yangian.cli.main`
with the given arguments in this fresh process, so every cache starts cold,
and writes the per-layer metrics to TRACE.json.  The CLI's own output goes
to standard output unchanged.

Every call of a wrapped boundary is a span.  Each thread keeps its own span
stack, because `verify all` runs its suites on a thread pool.  A span's
self CPU is its thread CPU (`time.thread_time`) minus that of the spans it
caused; wall time alone would count the time a pool thread spends waiting
for the interpreter lock.  Spans are kept in memory, aggregated per
(parent, name) edge and thread, and written when the run ends: a deep run
makes millions of them.

Cache statistics are read from `cache_info()` and the minor cache's size,
never by wrapping the cached function: `normal_form_word` recurses through
its module-global name, and a wrapper there would trace every recursion.
"""

import functools
import importlib
import json
import sys
import threading
from time import perf_counter, thread_time

SUITE_NAMES = ("r-matrix", "minors", "gauss", "drinfeld", "hopf-axioms",
               "coproduct-formulas", "antipode-formulas", "sl2", "sl3")

# (module, attribute or Class.attribute, span name).  A function is
# replaced in every yangian module namespace that bound it, so `hopf` and
# `drinfeld`, which import these names from `rtt`, are traced too.
SPANS = [
    ("suites", "run_suite", "suites.run_suite"),
    ("cli", "_render_verify", "cli.render"),
    ("rtt", "t_star_matrix", "rtt.t_star_matrix"),
    ("rtt", "quantum_minor", "rtt.quantum_minor"),
    ("rtt", "matrix_minor", "rtt.matrix_minor"),
    ("rtt", "mat_mul", "rtt.mat_mul"),
    ("rtt", "embed_pair", "rtt.embed_pair"),
    ("series", "SeriesMatrix.inverse", "series.SeriesMatrix.inverse"),
    ("series", "Series.__init__", "series.Series.init"),
    ("series", "Series.__mul__", "series.Series.mul"),
    ("series", "Series.shift", "series.Series.shift"),
    ("series", "Series.invert", "series.Series.invert"),
    ("algebra", "Element.__mul__", "algebra.Element.mul"),
    ("algebra", "Tensor.__mul__", "algebra.Tensor.mul"),
    ("hopf", "delta_element", "hopf.delta_element"),
    ("hopf", "antipode_element", "hopf.antipode_element"),
    ("hopf", "delta_on_slot", "hopf.delta_on_slot"),
    ("hopf", "antipode_on_slot", "hopf.antipode_on_slot"),
    ("hopf", "multiply_slots", "hopf.multiply_slots"),
    ("hopf", "formula_delta", "hopf.formula_delta"),
    ("hopf", "formula_antipode", "hopf.formula_antipode"),
    ("drinfeld", "current", "drinfeld.current"),
]

# Calls counted without a span: each is one quantum minor actually
# computed, i.e. a miss of the minor cache.
COUNTERS = [("rtt", "_minor_sum", "rtt.quantum_minor.computed")]

CACHES = [
    ("algebra", "normal_form_word", "algebra.normal_form_word"),
    ("algebra", "_sl_word_nf", "algebra.sl_word_nf"),
    ("hopf", "_delta_word", "hopf.delta_word"),
    ("hopf", "_antipode_word", "hopf.antipode_word"),
    ("drinfeld", "current", "drinfeld.current"),
]


def _products(args, result):
    """Nonzero scalar products a dense `mat_mul(x, y)` computes."""
    x, y = args
    row_nnz = [sum(1 for v in row if v) for row in y]
    return sum(row_nnz[k] for row in x for k, v in enumerate(row) if v)


# Extra per-span measurements: metric suffix, how it combines, and how it
# is read from the call's arguments and result.
OBSERVERS = {
    "rtt.mat_mul": ("products", "sum", _products),
    "algebra.Element.mul": ("max_terms", "max",
                            lambda args, result: len(result.terms)),
    "algebra.Tensor.mul": ("max_terms", "max",
                           lambda args, result: len(result.terms)),
}


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for suite in SUITE_NAMES:
        names["suites.%s.cpu_s" % suite] = "s"
        names["suites.%s.wait_s" % suite] = "s"
    names["suites.run_suite.wall_s"] = "s"
    names["cli.render.cpu_s"] = "s"
    for _, _, span in SPANS:
        if span.startswith(("suites.", "cli.")):
            continue
        names[span + ".calls"] = "count"
        names[span + ".self_cpu_s"] = "s"
    for span, (suffix, _, _) in OBSERVERS.items():
        names["%s.%s" % (span, suffix)] = "count"
    for _, _, name in COUNTERS:
        names[name] = "count"
    names["rtt.minor_cache.entries"] = "count"
    for _, _, cache in CACHES:
        names[cache + ".hit_ratio"] = "ratio"
        names[cache + ".entries"] = "count"
    return names


class Tracer:
    """Installs span wrappers on the yangian modules and removes them."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._restore = []
        self._caches = {}
        self.untraced = []

    # -- per-thread state -------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = {"stack": [], "edges": {},
                                         "counts": {}}
            with self._lock:
                self._threads.append(state)
            return state

    def _span(self, name, fn):
        observer = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state["stack"]
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            wall0, cpu0 = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = thread_time() - cpu0
                wall = perf_counter() - wall0
                stack.pop()
                if parent is not None:
                    parent[1] += cpu
                key = (parent[0] if parent else "", name)
                edge = state["edges"].get(key)
                if edge is None:
                    edge = state["edges"][key] = [0, 0.0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += cpu
                edge[2] += cpu - frame[1]
                edge[3] += wall
            if observer is not None:
                suffix, how, measure = observer
                counts, key = state["counts"], "%s.%s" % (name, suffix)
                value = measure(args, result)
                old = counts.get(key, 0)
                counts[key] = old + value if how == "sum" else max(old, value)
            return result

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._state()["counts"]
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, module_name, attr, make):
        module = importlib.import_module("yangian." + module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                self.untraced.append("%s.%s" % (module_name, attr))
                return
            original = vars(cls)[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.untraced.append("%s.%s" % (module_name, attr))
            return
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "yangian" and not mod_name.startswith("yangian."):
                continue
            for bound, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, bound, original))
                    setattr(mod, bound, wrapped)

    def install(self):
        """Wrap every boundary; returns self for chaining."""
        from yangian import cli, suites  # noqa: F401  (loads every module)

        if not hasattr(sys.modules["yangian.rtt"], "_MINOR_CACHE"):
            self.untraced.append("rtt._MINOR_CACHE")
        for mod, attr, name in CACHES:
            fn = getattr(importlib.import_module("yangian." + mod), attr, None)
            if hasattr(fn, "cache_info"):
                self._caches[name] = fn
            else:
                self.untraced.append("%s.%s" % (mod, attr))
        for mod, attr, name in SPANS:
            self._patch(mod, attr, functools.partial(self._span, name))
        for mod, attr, name in COUNTERS:
            self._patch(mod, attr, functools.partial(self._counter, name))
        for suite, fn in list(suites.SUITES.items()):
            self._restore.append((suites.SUITES, suite, fn))
            suites.SUITES[suite] = self._span("suites." + suite, fn)
        return self

    def uninstall(self):
        """Put every original function back, newest patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def edges(self):
        """Aggregated spans: one row per (parent, name) edge."""
        merged = {}
        for state in self._threads:
            for key, edge in state["edges"].items():
                row = merged.setdefault(key, [0, 0.0, 0.0, 0.0])
                for i, v in enumerate(edge):
                    row[i] += v
        return [{"parent": parent, "name": name, "calls": calls,
                 "cpu_s": cpu, "self_cpu_s": self_cpu, "wall_s": wall}
                for (parent, name), (calls, cpu, self_cpu, wall)
                in sorted(merged.items())]

    def metrics(self):
        """Every name of `metric_names()` mapped to [value, unit]."""
        spans = {}
        for edge in self.edges():
            row = spans.setdefault(edge["name"], dict.fromkeys(
                ("calls", "cpu_s", "self_cpu_s", "wall_s"), 0))
            for k in row:
                row[k] += edge[k]
        peaks = {"%s.%s" % (span, suffix)
                 for span, (suffix, how, _) in OBSERVERS.items()
                 if how == "max"}
        counts = {}
        for state in self._threads:
            for key, v in state["counts"].items():
                old = counts.get(key, 0)
                counts[key] = max(old, v) if key in peaks else old + v
        empty = dict.fromkeys(("calls", "cpu_s", "self_cpu_s", "wall_s"), 0)
        out = {}
        for name in metric_names():
            span, _, field = name.rpartition(".")
            row = spans.get(span, empty)
            if span.startswith("suites.") and field == "wait_s":
                out[name] = max(row["wall_s"] - row["cpu_s"], 0.0)
            elif field in ("calls", "cpu_s", "self_cpu_s", "wall_s"):
                out[name] = row[field]
            else:
                out[name] = counts.get(name, 0)
        rtt = sys.modules.get("yangian.rtt")
        out["rtt.minor_cache.entries"] = len(getattr(rtt, "_MINOR_CACHE",
                                                     ()))
        for cache, fn in self._caches.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[cache + ".hit_ratio"] = info.hits / lookups if lookups else 0
            out[cache + ".entries"] = info.currsize
        units = metric_names()
        return {name: [out[name], units[name]] for name in units}


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit(__doc__.split("\n\n")[1])
    trace_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer().install()
    from yangian import cli
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        with open(trace_path, "w") as out:
            json.dump({"metrics": tracer.metrics(),
                       "untraced": tracer.untraced,
                       "edges": tracer.edges()}, out, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
