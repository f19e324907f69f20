"""Series arithmetic: shifts, inversion, products, matrix inverses."""

import operator
import random
from fractions import Fraction

import pytest

from yangian.algebra import (
    Context, Element, GL, SL, generator, unit, word_degree, zero,
)
from yangian.series import (
    Series, SeriesMatrix, geometric_unit_sum, series_outer, slot_embed,
)
from yangian.rtt import t_matrix, t_star_matrix
from util import geometric_inverse, random_element


def gen_series(ctx, i, j, order):
    coeffs = {k: generator(ctx, i, j, k) for k in range(1, order + 1)}
    if i == j:
        coeffs[0] = unit(ctx)
    return Series(ctx, coeffs)


def rand_series(rng, ctx, order, with_unit=True):
    coeffs = {}
    for k in range(1, order + 1):
        el = random_element(rng, ctx, terms=2, max_len=1, max_mode=1,
                            allow_const=False)
        if el.degree() <= k and rng.random() < 0.8:
            coeffs[k] = el
    if with_unit:
        coeffs[0] = unit(ctx)
    return Series(ctx, coeffs)


def test_shift_of_simple_pole():
    ctx = Context(2, 4)
    a = generator(ctx, 1, 1, 1)
    s = Series(ctx, {1: a})
    t = s.shift(1)
    for k in range(1, 5):
        assert t.coefficient(k) == a * Fraction((-1) ** (k - 1))
    assert s.shift(0) == s


def test_shift_composes_with_half_integers():
    ctx = Context(2, 4)
    rng = random.Random(21)
    for _ in range(25):
        s = rand_series(rng, ctx, 4)
        a, b = Fraction(1, 2), Fraction(-3, 2)
        assert s.shift(a).shift(b) == s.shift(a + b)
        assert s.shift(a).shift(-a) == s


def test_shift_is_multiplicative():
    ctx = Context(2, 4)
    rng = random.Random(22)
    for _ in range(25):
        s = rand_series(rng, ctx, 4)
        t = rand_series(rng, ctx, 4)
        c = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        assert (s * t).shift(c) == s.shift(c) * t.shift(c)


def test_negate_variable():
    ctx = Context(2, 4)
    rng = random.Random(23)
    for _ in range(25):
        s = rand_series(rng, ctx, 4)
        assert s.negate_variable().negate_variable() == s
        c = Fraction(rng.randint(-2, 2))
        assert s.shift(c).negate_variable() == s.negate_variable().shift(-c)


def test_inverse_two_sided():
    ctx = Context(2, 4)
    one = Series.constant(ctx)
    rng = random.Random(24)
    for _ in range(25):
        s = rand_series(rng, ctx, 4)
        inv = s.invert()
        assert s * inv == one
        assert inv * s == one
        assert inv.invert() == s


def test_inverse_of_geometric():
    ctx = Context(2, 4)
    a = generator(ctx, 1, 1, 1)
    s = Series(ctx, {0: unit(ctx), 1: a})
    inv = s.invert()
    for k in range(5):
        want = unit(ctx)
        for _ in range(k):
            want = want * a
        assert inv.coefficient(k) == want * Fraction((-1) ** k)


def test_coefficient_degree_invariant_enforced():
    ctx = Context(2, 4)
    g2 = generator(ctx, 1, 1, 2)
    with pytest.raises(ValueError):
        Series(ctx, {1: g2})
    # map_coeffs applies an arbitrary function, so it keeps the check
    s = gen_series(ctx, 1, 2, 4)
    with pytest.raises(ValueError):
        s.map_coeffs(lambda c: c * g2)
    with pytest.raises(ValueError):
        s.map_coeffs(lambda c: c + g2)


@pytest.mark.parametrize("other", [1.5, None, "x", [1], 1j])
def test_unsupported_operands_are_not_implemented(other):
    # Python then tries the reflected operator and raises TypeError
    ctx = Context(2, 3, GL)
    s = gen_series(ctx, 1, 2, 3)
    for name in ("add", "sub", "mul", "radd", "rsub", "rmul"):
        assert getattr(s, "__%s__" % name)(other) is NotImplemented
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(s, other)
        with pytest.raises(TypeError):
            op(other, s)


def test_series_and_element_operands_raise_type_error():
    ctx = Context(2, 3, GL)
    s = gen_series(ctx, 1, 2, 3)
    g = generator(ctx, 1, 2, 1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(s, g)
        with pytest.raises(TypeError):
            op(g, s)
    # two series of different contexts or arities stay a mismatch
    other = gen_series(Context(3, 3, GL), 1, 2, 3)
    square = series_outer(s, s)
    for b in (other, square):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="context mismatch"):
                op(s, b)


def _rand_graded_series(rng, ctx, order, arity=1):
    """A series whose u^-k coefficient is a random element of degree <= k."""
    coeffs = {0: unit(ctx) * rng.choice([1, 2, Fraction(-1, 2)])}
    for k in range(1, order + 1):
        el = random_element(rng, ctx, terms=3, max_len=2, max_mode=k,
                            allow_const=False)
        coeffs[k] = Element(ctx, {w: c for w, c in el.terms.items()
                                  if word_degree(w) <= k})
    s = Series(ctx, coeffs)
    if arity == 2:
        s = series_outer(s, gen_series(ctx, 1, 1, order))
    return s


def _arithmetic_results(rng, ctx):
    a = _rand_graded_series(rng, ctx, 3)
    b = _rand_graded_series(rng, ctx, 3)
    x = _rand_graded_series(rng, ctx, 3, arity=2)
    y = _rand_graded_series(rng, ctx, 3, arity=2)
    yield from (a + b, a - b, a - a, a + (-a),
                -a, a + 2, 2 - a, a - True, a * b, b * a,
                a * Fraction(3, 2), 3 * a, a * 0, a.shift(1), a.shift(-2),
                a.shift(Fraction(1, 2)), a.shift(Fraction(-3, 2)),
                a.negate_variable(), a.invert(), series_outer(a, b))
    yield from (x + y, x - y, x - x, -x, x * y, x * Fraction(-1, 3),
                x.shift(Fraction(1, 2)), x.negate_variable(), x.invert(),
                (x * y).shift(-1))


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_series_arithmetic_keeps_the_coefficient_invariant(n, mode):
    # the arithmetic builds its results unchecked; the public
    # constructor must accept each one as it stands
    rng = random.Random(500 + 10 * n + (mode == SL))
    ctx = Context(n, 3, mode)
    empty = 0
    for _ in range(4):
        for r in _arithmetic_results(rng, ctx):
            checked = Series(ctx, r.coeffs, r.arity)
            assert checked.coeffs == r.coeffs
            assert list(checked.coeffs) == list(r.coeffs)
            assert not any(c.is_zero() for c in r.coeffs.values())
            empty += r.is_zero()
    # cancelled results were among them, with nothing stored
    assert empty > 0


def test_geometric_unit_sum():
    ctx = Context(2, 4)
    t = Series(ctx, {1: generator(ctx, 1, 2, 1)})
    total = geometric_unit_sum(t)
    one = Series.constant(ctx)
    assert (one - t) * total == one
    with pytest.raises(ValueError):
        geometric_unit_sum(one)


def test_series_outer_and_slot_embedding():
    ctx = Context(2, 4)
    a = gen_series(ctx, 1, 2, 4)
    b = gen_series(ctx, 2, 1, 4)
    outer = series_outer(a, b)
    assert outer.arity == 2
    # matches the product of the two slot embeddings
    assert slot_embed(a, 2, 0) * slot_embed(b, 2, 1) == outer
    # and embeddings into different slots commute
    assert slot_embed(b, 2, 1) * slot_embed(a, 2, 0) == outer


def test_matrix_inverse_round_trip():
    ctx = Context(2, 4)
    m = SeriesMatrix([[gen_series(ctx, i, j, 4) for j in (1, 2)]
                      for i in (1, 2)])
    inv = m.inverse()
    ident = SeriesMatrix.identity(ctx, 2)
    assert m * inv == ident
    assert inv * m == ident
    assert inv.inverse() == m


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n, order", [(2, 7), (3, 4), (6, 3)])
def test_matrix_inverse_matches_geometric_sum(n, order, mode):
    # the coefficient recursion against the truncated geometric sum of
    # (1 - T)^m, for T(u) and for the reflected T(-u) that t_star_matrix
    # inverts
    ctx = Context(n, order, mode)
    t = t_matrix(ctx)
    assert t.inverse() == geometric_inverse(t)
    reflected = SeriesMatrix([[s.negate_variable() for s in row]
                              for row in t.rows])
    star = reflected.inverse()
    assert star == geometric_inverse(reflected)
    assert t_star_matrix(ctx) == star


def test_matrix_inverse_rejects_a_non_identity_constant_part():
    ctx = Context(2, 3)
    t = t_matrix(ctx)
    two = Series.constant(ctx, value=2)
    scaled = SeriesMatrix([[t.entry(1, 1) + two, t.entry(1, 2)],
                           [t.entry(2, 1), t.entry(2, 2)]])
    off = SeriesMatrix([[t.entry(1, 1), t.entry(1, 2) + two],
                        [t.entry(2, 1), t.entry(2, 2)]])
    vanishing = SeriesMatrix(
        [[t.entry(1, 1), t.entry(1, 2)],
         [t.entry(2, 1), t.entry(2, 2) - Series.constant(ctx)]])
    for mat in (scaled, off, vanishing):
        with pytest.raises(ValueError):
            mat.inverse()


def test_matrix_inverse_leading_entry():
    # the u^-1 part of the inverse is minus the generator matrix
    ctx = Context(3, 3)
    m = SeriesMatrix([[gen_series(ctx, i, j, 3) for j in (1, 2, 3)]
                      for i in (1, 2, 3)])
    inv = m.inverse()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert inv.entry(i, j).coefficient(1) == -generator(ctx, i, j, 1)
