"""Product kernels against the straightforward bodies they replaced.

Tensor products look slot products up in a graded table and cut partial
keys early; series products and the Hopf maps on elements accumulate
into one terms dict and reduce once.  Each test keeps the plain body
(one reduced product or one copied sum per step) as its reference.
"""

import itertools
import random

import pytest

from yangian.algebra import (
    Context, Element, GL, SL, Tensor, from_words, generator,
    normal_form_word, word_degree, _sl_word_nf,
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
        x = hopf._delta_word(ctx, ((2, 1, 2), (1, 2, 1)))
        y = hopf._delta_word(ctx, ((3, 2, 1),))
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
        a = t_entry(ctx, i, j, order)
        b = t_entry(ctx, k, l, order)
        assert (a * b).coeffs == series_product_reference(a, b)


@pytest.mark.parametrize("mode", [GL, SL])
def test_tensor_series_products_match_coefficient_sums(mode):
    order = 4
    ctx = Context(2, order, mode)
    s11 = t_entry(ctx, 1, 1, order)
    s12 = t_entry(ctx, 1, 2, order)
    s21 = t_entry(ctx, 2, 1, order)
    squares = [hopf.delta_series(s11), hopf.delta_series(s12),
               series_outer(s21, s11)]
    for a, b in itertools.product(squares, repeat=2):
        assert (a * b).coeffs == series_product_reference(a, b)
    cubes = [slot_embed(s12, 3, 0), slot_embed(s21, 3, 1),
             slot_embed(s11, 3, 2)]
    for a, b in itertools.product(cubes, repeat=2):
        assert (a * b).coeffs == series_product_reference(a, b)


def test_series_product_truncates_at_the_smaller_order():
    ctx = Context(2, 4)
    a = t_entry(ctx, 1, 2, 4)
    b = t_entry(ctx, 2, 1, 2)
    got = a * b
    assert got.order == 2
    assert got.coeffs == series_product_reference(a, b)


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
               for w, _ in normal_form_word(((3, 1, 2), (2, 2, 1))))
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
