"""Exact coefficient types: int while integral, Fraction with a denominator.

The structure constants are integers, so the Hopf maps of generators and
the quantum determinant stay in int arithmetic; a Fraction seed would
still give equal results, only slower, so these tests pin the types.
Denominators (series inverses, recentred currents) must stay exact:
never a float, and never a bool left over from a comparison.
"""

from fractions import Fraction

import pytest

from yangian.algebra import Context, GL, SL, generator
from yangian.drinfeld import current
from yangian.hopf import antipode_element, delta_element, delta_series
from yangian.rtt import qdet
from yangian.series import Series
from yangian.suites import default_order


def coefficients(obj):
    """Every stored coefficient of an element, a tensor or a series."""
    if isinstance(obj, Series):
        for c in obj.coeffs.values():
            yield from c.terms.values()
    else:
        yield from obj.terms.values()


def assert_exact(obj):
    kinds = {type(c) for c in coefficients(obj)}
    assert kinds <= {int, Fraction}, kinds


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_hopf_maps_of_generators_have_int_coefficients(n, mode):
    ctx = Context(n, default_order(n), mode)
    for k in range(1, ctx.max_degree + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                x = generator(ctx, i, j, k)
                for image in (x, delta_element(x), antipode_element(x)):
                    assert all(type(c) is int for c in coefficients(image))


def test_qdet_has_int_coefficients():
    s = qdet(Context(3, 3, GL))
    assert len(s.coeffs) == 4
    assert all(type(c) is int for c in coefficients(s))


def test_inverse_of_scalar_series_is_exact():
    ctx = Context(2, 3, GL)
    inv = Series.constant(ctx, value=2).invert()
    (c0,) = coefficients(inv)
    assert type(c0) is Fraction and c0 == Fraction(1, 2)
    assert inv * 2 == Series.constant(ctx)


def test_inverse_with_generator_term_is_exact():
    ctx = Context(2, 3, GL)
    s = Series.constant(ctx, value=2) + Series(
        ctx, {1: generator(ctx, 1, 1, 1)})
    inv = s.invert()
    assert_exact(inv)
    assert inv.coefficient(0).constant() == Fraction(1, 2)
    assert type(inv.coefficient(0).constant()) is Fraction
    one = Series.constant(ctx)
    assert s * inv == one and inv * s == one


@pytest.mark.parametrize("kind", ["e", "f", "h"])
def test_currents_and_coproducts_have_exact_coefficients(kind):
    n = 3
    order = default_order(n)
    ctx = Context(n, order, SL)
    for i in range(1, n):
        cur = current(ctx, kind, i)
        assert_exact(cur)
        assert_exact(delta_series(cur))
