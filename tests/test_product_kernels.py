"""Product kernels against the straightforward bodies they replaced.

Tensor products look slot products up in a graded table and cut partial
keys early; series products, brackets and the Hopf maps on elements
accumulate into one terms dict and reduce once; differences subtract in
one copied dict.  Every sum of series products (a product, a matrix
product, a minor expansion) is one `series.product_sum`, every sum of
outer products (a symbol's or a minor's coproduct split) is one
`series.outer_sum`, and every series or matrix inverse is one recursion.
Each test keeps the plain body (one reduced product, one negated copy
or one copied sum per step) as its reference.
"""

import itertools
import operator
import random
from fractions import Fraction
from math import comb

import pytest

from yangian.algebra import (
    Context, Element, GL, SL, Tensor, commutator, decode_word, encode_word,
    from_words, generator, normal_form_word, symbol, unit, word_degree,
    _sl_word_nf,
)
from yangian import hopf, rtt
from yangian.rtt import quantum_minor, t_entry, t_matrix
from yangian.series import (
    Series, SeriesMatrix, outer_sum, product_sum, scalar_of, series_outer,
)
from util import (
    delta_symbol_reference, geometric_inverse, geometric_unit_sum_reference,
    random_element, series_outer_reference,
)


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


def invert_reference(s):
    """The element-by-element inverse recursion: each u^-k coefficient a
    copied sum of reduced products a_j b_{k-j}, then scaled by -1/c0."""
    inv0 = Fraction(1, scalar_of(s.coefficient(0)))
    out = {0: Series.constant(s.ctx, value=inv0, arity=s.arity).coeffs[0]}
    for k in range(1, s.order + 1):
        acc = None
        for j in range(1, k + 1):
            a = s.coeffs.get(j)
            b = out.get(k - j)
            if a is None or b is None:
                continue
            v = a * b
            acc = v if acc is None else acc + v
        if acc is not None and not acc.is_zero():
            out[k] = acc * (-inv0)
    return out


def matrix_product_reference(x, y):
    """Entry (i, j) as a chained copied sum of reduced series products."""
    n = x.size
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = x.rows[i][0] * y.rows[0][j]
            for k in range(1, n):
                acc = acc + x.rows[i][k] * y.rows[k][j]
            row.append(acc)
        rows.append(row)
    return SeriesMatrix(rows)


def signed_sum_reference(ctx, arity, terms):
    """total + a * b or total - a * b per term, from the zero series.

    Each a * b is the one-term case of `product_sum`, which the series
    product tests check against `series_product_reference`."""
    total = Series(ctx, arity=arity)
    for a, b, sign in terms:
        total = total - a * b if sign < 0 else total + a * b
    return total


def expand_last_column_reference(ctx, rows, cols):
    """The chained last-column expansion over cached sub-minors."""
    m = len(rows)
    return signed_sum_reference(ctx, 1, [
        (quantum_minor(ctx, rows[:k - 1] + rows[k:], cols[:-1]),
         t_entry(ctx, rows[k - 1], cols[-1], shift=m - 1),
         -1 if (k + m) % 2 else 1)
        for k in range(1, m + 1)])


def expand_last_row_reference(ctx, rows, cols):
    """The chained last-row expansion over cached sub-minors."""
    m = len(rows)
    return signed_sum_reference(ctx, 1, [
        (t_entry(ctx, rows[-1], cols[k - 1], shift=m - 1),
         quantum_minor(ctx, rows[:-1], cols[:k - 1] + cols[k:]),
         -1 if (k + m) % 2 else 1)
        for k in range(1, m + 1)])


def outer_sum_reference(ctx, terms):
    """total + a (x) b or total - a (x) b per term, from the zero series,
    each a (x) b the element-by-element body of the old `series_outer`."""
    total = Series(ctx, arity=2)
    for a, b, sign in terms:
        v = series_outer_reference(a, b)
        total = total - v if sign < 0 else total + v
    return total


def minor_split_reference(ctx, rows, cols):
    """sum over mid of t(rows; mid) (x) t(mid; cols), one copied sum per
    intermediate index set: the chained right side that
    `hopf.minor_coproduct_check` built before `outer_sum`."""
    rhs = None
    for mid in itertools.combinations(range(1, ctx.n + 1), len(rows)):
        term = series_outer_reference(quantum_minor(ctx, rows, mid),
                                      quantum_minor(ctx, mid, cols))
        rhs = term if rhs is None else rhs + term
    return rhs


def slot_cube(s, slot):
    """The element series s in slot `slot` of a tensor-cube series, with
    the unit in the other two slots."""
    def embed(el):
        parts = [unit(s.ctx)] * 3
        parts[slot] = el
        return Tensor.of_elements(*parts)
    return s.map_coeffs(embed, arity=3)


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
    cubes = [slot_cube(s12, 0), slot_cube(s21, 1), slot_cube(s11, 2)]
    for a, b in itertools.product(cubes, repeat=2):
        assert (a * b).coeffs == series_product_reference(a, b)


def _no_zero_coefficient(s):
    return all(c.terms for c in s.coeffs.values())


def _series_samples(ctx):
    """Element and tensor-square series with no u^0 term."""
    n = ctx.n
    e12, e21 = t_entry(ctx, 1, 2), t_entry(ctx, 2, 1)
    enn = t_entry(ctx, n, n)
    return [e12, e12 * e21, enn - 1, series_outer(e12, e21),
            hopf.delta_series(enn) - 1,
            hopf.delta_series(t_entry(ctx, 1, n)) * hopf.delta_series(e21)]


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("c0", [1, 2, Fraction(-1, 3)])
def test_invert_matches_elementwise_recursion(n, mode, c0):
    ctx = Context(n, 3, mode)
    for x in _series_samples(ctx):
        s = x + c0
        got = s.invert()
        assert got.coeffs == invert_reference(s)
        assert _no_zero_coefficient(got)
        assert got * s == Series.constant(ctx, arity=s.arity)
        # negative control: the inverse of c0 - x differs from it
        assert (c0 - x).invert() != got


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_unit_inverse_matches_geometric_sum(n, mode):
    ctx = Context(n, 3, mode)
    for x in _series_samples(ctx):
        assert (1 + x).invert() == geometric_unit_sum_reference(-x)
        assert (1 - x).invert() == geometric_unit_sum_reference(x)
        assert (1 + x).invert() != geometric_unit_sum_reference(x)


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_matrix_product_and_inverse_match_chained_bodies(n, mode):
    ctx = Context(n, 3, mode)
    t = t_matrix(ctx)
    inv = t.inverse()
    delta = SeriesMatrix([[hopf.delta_series(s) for s in row]
                          for row in t.rows])
    for x, y in ((t, inv), (inv, t), (t, t), (delta, delta)):
        got = x * y
        assert got == matrix_product_reference(x, y)
        assert all(_no_zero_coefficient(s) for row in got.rows for s in row)
    assert t * inv == SeriesMatrix.identity(ctx, n)
    assert inv == geometric_inverse(t)
    # the tensor-square inverse: the coproduct is an algebra map, so
    # Delta(T)^{-1} is the entrywise coproduct of T^{-1}
    one, nil = Series.constant(ctx, arity=2), Series(ctx, arity=2)
    ident = SeriesMatrix([[one if i == j else nil for j in range(n)]
                          for i in range(n)])
    delta_inv = delta.inverse()
    assert matrix_product_reference(delta, delta_inv) == ident
    assert delta_inv == SeriesMatrix([[hopf.delta_series(s) for s in row]
                                      for row in inv.rows])


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_minor_expansions_match_chained_sums(n, mode):
    ctx = Context(n, 3, mode)
    idx = range(1, n + 1)
    for m in range(1, n + 1):
        for rows in itertools.combinations(idx, m):
            for cols in itertools.permutations(idx, m):
                got = rtt.minor_expand_last_column(ctx, rows, cols)
                assert got == expand_last_column_reference(ctx, rows, cols)
                assert _no_zero_coefficient(got)
                got = rtt.minor_expand_last_row(ctx, rows, cols)
                assert got == expand_last_row_reference(ctx, rows, cols)
                assert _no_zero_coefficient(got)


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_product_sum_matches_chained_signed_sum(n, mode):
    ctx = Context(n, 3, mode)
    for arity in (1, 2):
        xs = [x for x in _series_samples(ctx) if x.arity == arity]
        xs.append(xs[0] + 3)
        terms = [(a, b, 1 if (p + q) % 3 else -1)
                 for p, a in enumerate(xs) for q, b in enumerate(xs)]
        got = product_sum(ctx, arity, terms)
        assert got == signed_sum_reference(ctx, arity, terms)
        assert _no_zero_coefficient(got)
        # negative control: flipping one sign changes the sum
        flipped = [(a, b, -sign) if p == 1 else (a, b, sign)
                   for p, (a, b, sign) in enumerate(terms)]
        assert product_sum(ctx, arity, flipped) != got


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_product_sum_that_cancels_stores_no_zero(n, mode):
    ctx = Context(n, 4, mode)
    a, b = t_entry(ctx, 1, 1), t_entry(ctx, 2, 2)
    # T_11(u) T_22(u) - T_22(u) T_11(u) cancels at u^0 .. u^-3, where
    # the product is nonzero, and survives at u^-4
    got = product_sum(ctx, 1, [(a, b, 1), (b, a, -1)])
    assert {0, 3} <= set((a * b).coeffs)
    assert list(got.coeffs) == [4]
    assert _no_zero_coefficient(got)
    assert got == signed_sum_reference(ctx, 1, [(a, b, 1), (b, a, -1)])
    for arity, x in ((1, a), (2, hopf.delta_series(a))):
        whole = product_sum(ctx, arity, [(x, x, 1), (x, x, -1)])
        assert whole.coeffs == {} and whole.arity == arity


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_empty_product_sum_is_the_zero_series(arity):
    ctx = Context(2, 3, SL)
    got = product_sum(ctx, arity, ())
    assert got == Series(ctx, arity=arity)
    assert got.is_zero() and got.arity == arity and got.ctx is ctx


def test_product_sum_rejects_a_foreign_term():
    ctx = Context(2, 3, GL)
    a = t_entry(ctx, 1, 2)
    for other in (t_entry(Context(2, 3, SL), 1, 2),
                  hopf.delta_series(a)):
        with pytest.raises(ValueError, match="context mismatch"):
            product_sum(ctx, 1, [(a, a, 1), (a, other, 1)])


# ---------------------------------------------------------------------------
# outer-product sums


def _no_zero_stored_in(s):
    """No zero coefficient and no zero term in any coefficient."""
    return all(c.terms and 0 not in c.terms.values()
               for c in s.coeffs.values())


def _element_samples(ctx):
    """Element series with and without a u^0 term, the unit among them."""
    n = ctx.n
    x = [s for s in _series_samples(ctx) if s.arity == 1]
    return x + [t_entry(ctx, n, n), t_entry(ctx, 1, 2).shift(1) + 3,
                Series.constant(ctx)]


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_outer_sum_matches_chained_series_outer(n, mode):
    ctx = Context(n, 3, mode)
    xs = _element_samples(ctx)
    for a, b in itertools.product(xs, repeat=2):
        got = series_outer(a, b)
        assert got == series_outer_reference(a, b)
        assert _no_zero_stored_in(got)
    terms = [(a, b, 1 if (p + 2 * q) % 3 else -1)
             for p, a in enumerate(xs) for q, b in enumerate(xs)]
    assert {sign for _, _, sign in terms} == {1, -1}
    got = outer_sum(ctx, terms)
    assert got == outer_sum_reference(ctx, terms)
    assert got.arity == 2 and got.ctx is ctx
    assert _no_zero_stored_in(got)
    # negative control: flipping one sign changes the sum
    flipped = [(a, b, -sign) if p == 1 else (a, b, sign)
               for p, (a, b, sign) in enumerate(terms)]
    assert outer_sum(ctx, flipped) != got


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_outer_sum_that_cancels_stores_no_zero(n, mode):
    ctx = Context(n, 4, mode)
    one = Series.constant(ctx)
    a, b = t_entry(ctx, 1, 2), t_entry(ctx, 2, 2)
    # a without its u^-4 term: a (x) b - a3 (x) b cancels at u^-1 ..
    # u^-3, where a (x) b is nonzero, and survives at u^-4
    a3 = Series(ctx, {k: c for k, c in a.coeffs.items() if k < 4})
    terms = [(one, one, 1), (a, b, 1), (a3, b, -1)]
    got = outer_sum(ctx, terms)
    assert {1, 2, 3} <= set(series_outer(a, b).coeffs)
    assert list(got.coeffs) == [0, 4]
    assert got.coefficient(4) == Tensor.of_elements(a.coefficient(4),
                                                    unit(ctx))
    assert _no_zero_stored_in(got)
    assert got == outer_sum_reference(ctx, terms)
    whole = outer_sum(ctx, [(a, b, 1), (a, b, -1)])
    assert whole.coeffs == {} and whole.arity == 2


def test_empty_outer_sum_is_the_zero_tensor_square_series():
    ctx = Context(2, 3, SL)
    got = outer_sum(ctx, ())
    assert got == Series(ctx, arity=2)
    assert got.is_zero() and got.arity == 2 and got.ctx is ctx


def test_outer_sum_rejects_a_foreign_operand():
    ctx = Context(2, 3, GL)
    a = t_entry(ctx, 1, 2)
    for other in (t_entry(Context(2, 3, SL), 1, 2),
                  hopf.delta_series(a)):
        for term in ((a, other, 1), (other, a, -1)):
            with pytest.raises(ValueError, match="context mismatch"):
                outer_sum(ctx, [(a, a, 1), term])
        with pytest.raises(ValueError, match="context mismatch"):
            series_outer(other, a)


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


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_delta_word_symbols_match_per_term_sums(n, mode):
    ctx = Context(n, 3, mode)
    idx = range(1, n + 1)
    for k, i, j in itertools.product(range(1, 4), idx, idx):
        sym = symbol(k, i, j)
        got = hopf._delta_word(ctx, sym)
        assert got.terms == delta_symbol_reference(ctx, sym).terms
        assert 0 not in got.terms.values()
        # negative control: the transposed symbol splits differently
        if i != j:
            assert got != delta_symbol_reference(ctx, symbol(k, j, i))


def _minor_coproduct_splits(monkeypatch, n, order, wrong=False):
    """Run hopf.minor_coproduct_check with its outer sums recorded.

    Returns the report and (rows, cols, rhs) per split.  With wrong, the
    right factor t(mid; cols) of every term is t(cols; mid) instead.  A
    first, plain run builds every word coproduct, so that only the
    check's own splits reach the recording `outer_sum`.
    """
    ctx = Context(n, order, GL)
    assert hopf.minor_coproduct_check(n, order).passed
    idx = range(1, n + 1)
    where = {}
    for m in idx:
        sets = list(itertools.combinations(idx, m))
        for rows, cols in itertools.product(sets, repeat=2):
            where[id(quantum_minor(ctx, rows, cols))] = rows, cols
    real = hopf.outer_sum
    splits = []

    def recorded(ctx_, terms):
        terms = list(terms)
        rows = where[id(terms[0][0])][0]
        cols = where[id(terms[0][1])][1]
        if wrong:
            terms = [(a, quantum_minor(ctx, cols, where[id(b)][0]), sign)
                     for a, b, sign in terms]
        got = real(ctx_, terms)
        splits.append((rows, cols, got))
        return got

    monkeypatch.setattr(hopf, "outer_sum", recorded)
    rep = hopf.minor_coproduct_check(n, order)
    assert len(splits) == sum(comb(n, m) ** 2 for m in idx)
    return rep, splits


@pytest.mark.parametrize("n, order", [(3, 3), (4, 2)])
def test_minor_coproduct_splits_match_per_mid_chained_sums(
        monkeypatch, n, order):
    rep, splits = _minor_coproduct_splits(monkeypatch, n, order)
    assert rep.passed, rep.as_dict()
    ctx = Context(n, order, GL)
    for rows, cols, got in splits:
        assert got == minor_split_reference(ctx, rows, cols)
        assert _no_zero_stored_in(got)


@pytest.mark.parametrize("n, order", [(3, 3), (4, 2)])
def test_minor_coproduct_check_fails_on_a_wrong_minor(monkeypatch, n, order):
    rep, splits = _minor_coproduct_splits(monkeypatch, n, order, wrong=True)
    assert rep.status == "fail"
    assert "FAIL" in rep.summary_line()
    # the full minor has one intermediate set, mid = cols, which the swap
    # leaves as it is; every smaller size has a failing split
    failed = {label.split(",")[0] for label, _ in rep.residuals}
    assert failed == {"m=%d" % m for m in range(1, n)}
    ctx = Context(n, order, GL)
    assert any(got != minor_split_reference(ctx, rows, cols)
               for rows, cols, got in splits)


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
