"""Every name the benchmark tracer binds still exists in the package.

`benchmark/tracer.py` wraps functions and methods by name and reads
caches through `cache_info()`.  A boundary it cannot find is listed as
untraced and its per-layer metrics read zero, so a rename in the package
would silently blank them.  The tracer module is loaded for its tables
only; nothing is wrapped.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "benchmark" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_yangian_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name, attr):
    module = importlib.import_module("yangian." + module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        return cls is not None and meth in vars(cls)
    return callable(getattr(module, attr, None))


def test_every_span_and_counter_resolves():
    tracer = _tracer()
    missing = ["%s.%s" % (mod, attr)
               for mod, attr, _ in tracer.SPANS + tracer.COUNTERS
               if not _resolves(mod, attr)]
    assert missing == []


def test_every_cache_has_cache_info():
    tracer = _tracer()
    missing = []
    for mod, attr, _ in tracer.CACHES:
        fn = getattr(importlib.import_module("yangian." + mod), attr, None)
        if not hasattr(fn, "cache_info"):
            missing.append("%s.%s" % (mod, attr))
    assert missing == []


def test_minor_cache_exists():
    rtt = importlib.import_module("yangian.rtt")
    assert isinstance(rtt._MINOR_CACHE, dict)


def test_products_observer_counts_nonzero_scalar_products():
    # `rtt.mat_mul.products` reads the dense rows `mat_mul` is given;
    # if the R-matrix lifts stopped being dense rows this would fail
    # instead of the metric silently reading garbage
    tracer = _tracer()
    rtt = importlib.import_module("yangian.rtt")
    for n in (2, 3):
        x = rtt.embed_pair(n, rtt.rmatrix(n, Fraction(3, 2)), 0, 1)
        y = rtt.embed_pair(n, rtt.rmatrix(n, Fraction(-1, 4)), 1, 2)
        size = n ** 3
        want = sum(1 for i in range(size) for k in range(size)
                   for j in range(size) if x[i][k] and y[k][j])
        assert want > 0
        assert tracer._products((x, y), rtt.mat_mul(x, y)) == want
