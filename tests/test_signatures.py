"""The truncation order is read from the context, never passed beside it.

Every series of a `Context(n, max_degree, mode)` is cut at u^-max_degree,
so a function that receives a context (or a `hopf.CurrentFrame`, which
holds one) takes no `order` or `upto`, and `Series`/`SeriesMatrix` take
no `order` either.  No function takes an `upto` at all: what is cut at
a degree is a series, and a series carries its order.  The arguments
after a dropped `order` are keyword-only where a leftover positional
order would otherwise be read as something else.
"""

import ast
from pathlib import Path

import pytest

from yangian import drinfeld, hopf, rtt
from yangian.algebra import SL, Context
from yangian.report import Report
from yangian.series import Series

SRC = Path(__file__).resolve().parent.parent / "src" / "yangian"

CONTEXT_PARAMS = {"ctx", "frame"}
ORDER_PARAMS = {"order", "upto"}
SERIES_CLASSES = {"Series", "SeriesMatrix"}


def _params(fn):
    a = fn.args
    return {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}


def order_beside_context(source):
    """Names of the functions in source that take a context or frame
    together with an order, that take an upto, and of the
    Series/SeriesMatrix methods that take an order at all."""
    tree = ast.parse(source)
    found = []
    methods = {id(fn): cls.name for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name in SERIES_CLASSES
               for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        params = _params(fn)
        name = getattr(fn, "name", "<lambda>")
        if params & ORDER_PARAMS and (params & CONTEXT_PARAMS
                                      or "upto" in params
                                      or id(fn) in methods):
            found.append("%s.%s" % (methods[id(fn)], name)
                         if id(fn) in methods else name)
    return found


def test_no_function_takes_an_order_beside_its_context():
    found = {path.name: order_beside_context(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: fns for name, fns in found.items() if fns} == {}


def test_the_guard_sees_an_order_beside_a_context():
    # a negative control: each shape the guard looks for is caught
    source = '''
def entry(ctx, i, order): pass
def match(lhs, frame, *, upto=None): pass
def first(lhs, rhs, upto): pass
def fine(ctx, i): pass
def other(n, order): pass
class Series:
    def constant(cls, value, order): pass
    def shift(self, c): pass
'''
    assert order_beside_context(source) == ["entry", "match", "first",
                                            "Series.constant"]


def test_old_positional_orders_fail_loudly():
    # an order left in its old position must not be read as the shift,
    # value, arity, variant or documented flag that now follows
    ctx = Context(2, 3, SL)
    s = Series.constant(ctx)
    with pytest.raises(TypeError):
        rtt.t_entry(ctx, 1, 2, 3)
    with pytest.raises(TypeError):
        rtt.t_entry(ctx, 1, 2, 3, 1)
    with pytest.raises(TypeError):
        Series.constant(ctx, 3)
    with pytest.raises(TypeError):
        Series.constant(ctx, 3, 2, 1)
    with pytest.raises(TypeError):
        drinfeld.h_current(ctx, 1, 3, 2)
    with pytest.raises(TypeError):
        hopf._series_match(Report("x"), "x", s, s, 3)
    with pytest.raises(TypeError):
        hopf._series_match(Report("x"), "x", s, s, 3, True)
