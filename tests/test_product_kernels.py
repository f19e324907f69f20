"""Product kernels against the straightforward bodies they replaced.

Tensor products look slot products up in a graded table and cut partial
keys early; series products, brackets and the Hopf maps on elements
accumulate into one terms dict and reduce once; differences subtract in
one copied dict.  Each test keeps the plain body (one reduced product,
one negated copy or one copied sum per step) as its reference.
"""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from yangian.algebra import (
    Context, Element, GL, SL, Tensor, commutator, decode_word, encode_word,
    from_words, generator, normal_form_word, unit, word_degree, _sl_word_nf,
)
from yangian import hopf
from yangian.rtt import t_entry
from yangian.series import series_outer, slot_embed
from util import random_element


# ---------------------------------------------------------------------------
# references


def _slot_reduce(ctx, word_product):
    """Normal terms of one slot concatenation in the right quotient."""
    out = {}
    for w, c in normal_form_word(word_product):
        if ctx.mode == SL:
            for w2, c2 in _sl_word_nf(ctx.n, w):
                out[w2] = out.get(w2, 0) + c * c2
        else:
            out[w] = out.get(w, 0) + c
    return tuple((w, c) for w, c in out.items() if c)


def _expand_slotwise(ctx, parts, coeff, out):
    """Accumulate the product of per-slot term tuples into out."""
    keys = [()]
    coeffs = [coeff]
    for per_slot in parts:
        new_keys, new_coeffs = [], []
        for base, c in zip(keys, coeffs):
            for w, c2 in per_slot:
                new_keys.append(base + (w,))
                new_coeffs.append(c * c2)
        keys, coeffs = new_keys, new_coeffs
    bound = ctx.max_degree
    for key, c in zip(keys, coeffs):
        if sum(word_degree(w) for w in key) > bound:
            continue
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        elif key in out:
            del out[key]


def tensor_product_reference(a, b):
    """Every slot reduced in full, every key built, then the cut."""
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            parts = [_slot_reduce(a.ctx, k1[s] + k2[s])
                     for s in range(a.arity)]
            _expand_slotwise(a.ctx, parts, c1 * c2, out)
    return out


def series_product_reference(a, b):
    """Coefficientwise sums of single reduced products."""
    order = min(a.order, b.order)
    out = {}
    for k in range(order + 1):
        acc = None
        for p in range(k + 1):
            if p in a.coeffs and k - p in b.coeffs:
                v = a.coeffs[p] * b.coeffs[k - p]
                acc = v if acc is None else acc + v
        if acc is not None and not acc.is_zero():
            out[k] = acc
    return out


def linear_extension_reference(x, image, total):
    """total + image(w) * c for every term, one copied sum per step."""
    for w, c in x.terms.items():
        total = total + image(x.ctx, w) * c
    return total


def difference_reference(a, b):
    """a + (-b): a negated copy, then a copied sum."""
    return a + (-b)


def commutator_reference(a, b):
    """a * b - b * a: two reduced products, then the plain difference."""
    return difference_reference(a * b, b * a)


def _raw_bracket(a, b):
    """The unreduced sum the fused bracket reduces once."""
    raw = {}
    a._mul_into(b, raw)
    b._mul_into(a, raw, -1)
    return raw


def _random_tensor(rng, ctx, arity):
    total = Tensor.zero(ctx, arity)
    for _ in range(rng.randint(1, 3)):
        parts = [random_element(rng, ctx, terms=2, max_len=2, max_mode=2)
                 for _ in range(arity)]
        total = total + Tensor.of_elements(*parts)
    return total


def _passes_bound_early(a, b):
    """Some key pair has a first-slot product term over the bound."""
    bound = a.ctx.max_degree
    return any(word_degree(w) > bound
               for k1 in a.terms for k2 in b.terms
               for w, _ in _slot_reduce(a.ctx, k1[0] + k2[0]))


# ---------------------------------------------------------------------------
# tensor products


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("arity", [2, 3])
def test_tensor_product_matches_full_slot_expansion(arity, n, mode):
    rng = random.Random(100 * arity + 10 * n + (mode == SL))
    ctx = Context(n, 4, mode)
    early = 0
    for _ in range(12):
        a = _random_tensor(rng, ctx, arity)
        b = _random_tensor(rng, ctx, arity)
        assert (a * b).terms == tensor_product_reference(a, b)
        early += _passes_bound_early(a, b)
    # the early cut was exercised, not only the final one
    assert early > 0


def test_tensor_product_of_word_coproducts_matches_reference():
    for mode in (GL, SL):
        ctx = Context(2, 5, mode)
        x = hopf._delta_word(ctx, encode_word(((2, 1, 2), (1, 2, 1))))
        y = hopf._delta_word(ctx, encode_word(((3, 2, 1),)))
        assert (x * y).terms == tensor_product_reference(x, y)


# ---------------------------------------------------------------------------
# series products


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_element_series_product_matches_coefficient_sums(n, mode):
    order = 4
    ctx = Context(n, order, mode)
    entries = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for (i, j), (k, l) in itertools.product(entries, repeat=2):
        a = t_entry(ctx, i, j)
        b = t_entry(ctx, k, l)
        assert (a * b).coeffs == series_product_reference(a, b)


@pytest.mark.parametrize("mode", [GL, SL])
def test_tensor_series_products_match_coefficient_sums(mode):
    order = 4
    ctx = Context(2, order, mode)
    s11 = t_entry(ctx, 1, 1)
    s12 = t_entry(ctx, 1, 2)
    s21 = t_entry(ctx, 2, 1)
    squares = [hopf.delta_series(s11), hopf.delta_series(s12),
               series_outer(s21, s11)]
    for a, b in itertools.product(squares, repeat=2):
        assert (a * b).coeffs == series_product_reference(a, b)
    cubes = [slot_embed(s12, 3, 0), slot_embed(s21, 3, 1),
             slot_embed(s11, 3, 2)]
    for a, b in itertools.product(cubes, repeat=2):
        assert (a * b).coeffs == series_product_reference(a, b)


# ---------------------------------------------------------------------------
# Hopf maps on elements


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_delta_and_antipode_match_copied_sums(n, mode):
    rng = random.Random(n + 10 * (mode == SL))
    ctx = Context(n, 4, mode)
    for _ in range(15):
        x = random_element(rng, ctx, terms=4, max_len=3, max_mode=2)
        want = linear_extension_reference(x, hopf._delta_word,
                                          Tensor.zero(ctx, 2))
        assert hopf.delta_element(x) == want
        want = linear_extension_reference(x, hopf._antipode_word,
                                          Element(ctx))
        assert hopf.antipode_element(x) == want


def test_delta_element_drops_cancelled_keys():
    ctx = Context(2, 3)
    x = generator(ctx, 1, 2, 1)
    y = x * generator(ctx, 2, 1, 1)
    z = generator(ctx, 2, 1, 1) * x
    # y - z is a sum of words whose coproduct images share keys
    assert hopf.delta_element(y - z) == (hopf.delta_element(y)
                                         - hopf.delta_element(z))
    assert 0 not in hopf.delta_element(y - z).terms.values()


# ---------------------------------------------------------------------------
# the cut comes after the SL elimination


def _cut_then_eliminate(x, y):
    """The wrong order: drop words over the bound, then eliminate T_nn."""
    ctx = x.ctx
    raw = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            for w, c in normal_form_word(w1 + w2):
                if word_degree(w) <= ctx.max_degree:
                    raw[w] = raw.get(w, 0) + c1 * c2 * c
    return Element(ctx, raw)


def _eliminate_then_cut(x, y):
    ctx = x.ctx
    raw = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            for w, c in normal_form_word(w1 + w2):
                for v, cv in _sl_word_nf(ctx.n, w):
                    raw[v] = raw.get(v, 0) + c1 * c2 * c * cv
    return Element._trusted(ctx, {
        w: c for w, c in raw.items()
        if c and word_degree(w) <= ctx.max_degree})


def test_sl_product_eliminates_before_the_cut():
    ctx = Context(2, 3, SL)
    x, y = generator(ctx, 1, 2, 3), generator(ctx, 2, 1, 2)
    want = from_words(ctx, {
        ((1, 1, 1), (2, 1, 1)): -2,
        ((1, 1, 2), (2, 2, 1)): -1,
        ((2, 1, 1),): -1,
        ((3, 1, 1),): 1,
    })
    assert x * y == want
    # every GL word of the product has degree 5 > 3, so cutting first
    # would lose the whole product
    assert all(word_degree(w) > 3
               for w, _ in normal_form_word(encode_word(((3, 1, 2),
                                                         (2, 2, 1)))))
    assert _cut_then_eliminate(x, y).is_zero()


def test_sl_generator_products_eliminate_before_the_cut():
    differing = 0
    for n in (2, 3):
        ctx = Context(n, 3, SL)
        gens = [generator(ctx, i, j, k) for k in range(1, 4)
                for i in range(1, n + 1) for j in range(1, n + 1)]
        for x, y in itertools.product(gens, repeat=2):
            assert x * y == _eliminate_then_cut(x, y)
            differing += x * y != _cut_then_eliminate(x, y)
    # the sweep tells the two orders apart
    assert differing > 0


# ---------------------------------------------------------------------------
# fused brackets and in-place differences


MODES = [(n, mode) for n in (2, 3) for mode in (GL, SL)]


def _no_zero_stored(x):
    return 0 not in x.terms.values()


@pytest.mark.parametrize("n, mode", MODES)
def test_bracket_matches_two_products_and_a_difference(n, mode):
    rng = random.Random(300 + 10 * n + (mode == SL))
    ctx = Context(n, 4, mode)
    for _ in range(20):
        a = random_element(rng, ctx, terms=3, max_len=2, max_mode=2)
        b = random_element(rng, ctx, terms=3, max_len=2, max_mode=2)
        got = commutator(a, b)
        assert got == commutator_reference(a, b)
        assert _no_zero_stored(got)
    for arity in (2, 3):
        for _ in range(4):
            a = _random_tensor(rng, ctx, arity)
            b = _random_tensor(rng, ctx, arity)
            got = commutator(a, b)
            assert got == commutator_reference(a, b)
            assert _no_zero_stored(got)


@pytest.mark.parametrize("n", [2, 3])
def test_bracket_eliminates_t_nn_once_on_the_sum(n):
    ctx = Context(n, 3, SL)
    a, b = generator(ctx, n, 1, 1), generator(ctx, 1, n, 2)
    raw = _raw_bracket(a, b)
    # the raw sum holds a T_nn word, so the SL elimination has work to do
    assert any(c and any(sym[1] == sym[2] == n for sym in decode_word(w))
               for w, c in raw.items())
    got = commutator(a, b)
    assert not got.is_zero()
    assert got == commutator_reference(a, b)
    assert not any(sym[1] == sym[2] == n
                   for w in got.terms for sym in decode_word(w))


@pytest.mark.parametrize("n, mode", MODES)
def test_bracket_that_cancels_is_zero_with_no_terms(n, mode):
    ctx = Context(n, 3, mode)
    x = generator(ctx, 1, 2, 1) + generator(ctx, 2, 1, 2) * 3
    y = x * Fraction(1, 2) + 5
    for a, b in ((x, x), (x, y), (unit(ctx) * 7, x)):
        assert commutator(a, b).terms == {}
        assert commutator_reference(a, b).is_zero()


@pytest.mark.parametrize("n, mode", MODES)
def test_bracket_whose_products_pass_the_bound(n, mode):
    ctx = Context(n, 3, mode)
    a, b = generator(ctx, 1, 2, 2), generator(ctx, 2, 1, 2)
    # each product has words of degree 4 over the bound; the bracket
    # lowers the degree to 3 and keeps those terms
    assert any(word_degree(w) > 3 for w in _raw_bracket(a, b))
    got = commutator(a, b)
    assert not got.is_zero()
    assert got == commutator_reference(a, b)
    assert got.degree() <= 3


@pytest.mark.parametrize("n, mode", MODES)
def test_differences_match_negated_sums(n, mode):
    rng = random.Random(400 + 10 * n + (mode == SL))
    ctx = Context(n, 4, mode)
    for _ in range(20):
        x = random_element(rng, ctx)
        y = random_element(rng, ctx)
        for a, b in ((x, y), (x, x), (x + y, y), (x, x + y)):
            got = a - b
            assert got == difference_reference(a, b)
            assert _no_zero_stored(got)
        assert (x - x).terms == {}
    for arity in (2, 3):
        for _ in range(4):
            t = _random_tensor(rng, ctx, arity)
            v = _random_tensor(rng, ctx, arity)
            assert (t - v) == difference_reference(t, v)
            assert _no_zero_stored(t - v)
            assert ((t + v) - v) == t
            assert _no_zero_stored((t + v) - v)
            assert (t - t).terms == {}


@pytest.mark.parametrize("n, mode", MODES)
def test_scalar_operands(n, mode):
    ctx = Context(n, 3, mode)
    x = generator(ctx, 1, 2, 1) * 2 + generator(ctx, 2, 2, 2) + 3
    t = Tensor.of_elements(x, generator(ctx, 2, 1, 1))
    for c in (2, Fraction(3, 2), True):
        for el in (x, t):
            one = el._unit()
            assert el - c == difference_reference(el, one * c)
            assert c - el == difference_reference(one * c, el)
            assert el + c == one * c + el
            assert el * c == c * el == el._scale(Fraction(c))
            assert _no_zero_stored(el - c) and _no_zero_stored(c - el)
    assert 2 - x == difference_reference(unit(ctx) * 2, x)
    assert (x - 3 - x * 2 + x + 3).terms == {}
    assert unit(ctx) * 2 == 2 and x * True == x and x != True


def test_context_mismatch_raises():
    x = generator(Context(2, 3, GL), 1, 2, 1)
    y = generator(Context(2, 3, SL), 1, 2, 1)
    z = generator(Context(3, 3, GL), 1, 2, 1)
    for other in (y, z):
        with pytest.raises(ValueError):
            x - other
        with pytest.raises(ValueError):
            commutator(x, other)
    t2 = Tensor.of_elements(x, x)
    t3 = Tensor.of_elements(x, x, x)
    with pytest.raises(ValueError):
        t2 - t3
    with pytest.raises(ValueError):
        commutator(t2, t3)
    with pytest.raises(ValueError):
        commutator(x, t2)


def test_arity_mismatch_raises_context_mismatch():
    x = generator(Context(2, 3, GL), 1, 2, 1)
    t2 = Tensor.of_elements(x, x)
    t3 = Tensor.of_elements(x, x, x)
    for a, b in ((x, t2), (t2, x), (t2, t3), (t3, x)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="context mismatch"):
                op(a, b)


@pytest.mark.parametrize("other", [1.5, None, "x", [1], 1j])
def test_unsupported_operands_are_not_implemented(other):
    # Python then tries the reflected operator and raises TypeError
    x = generator(Context(2, 3, GL), 1, 2, 1)
    for el in (x, Tensor.of_elements(x, x)):
        for name in ("add", "sub", "mul", "radd", "rsub", "rmul"):
            assert getattr(el, "__%s__" % name)(other) is NotImplemented
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(el, other)
            with pytest.raises(TypeError):
                op(other, el)
        assert el != other
