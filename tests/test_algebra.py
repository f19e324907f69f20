"""Core rewriting engine: normal forms, products, quotients, tensors."""

import gc
import itertools
import random
from fractions import Fraction

import pytest

from yangian import algebra, cli, hopf, render
from yangian.algebra import (
    MAX_DEGREE, MAX_N, Context, Element, Tensor, TruncationError, GL, SL,
    commutator, decode_word, encode_word, from_words, generator,
    mode_commutator, normal_order, normal_form_word, sl_reduce, unit,
    word_degree, zero,
)
from yangian.suites import run_suite
from util import (
    normal_order_strategy, project, random_element, random_word,
)


def test_normal_order_single_swap():
    ctx = Context(2, 4)
    got = normal_order(ctx, [(1, 1, 2), (1, 1, 1)])
    want = from_words(ctx, {((1, 1, 1), (1, 1, 2)): 1, ((1, 1, 2),): 1})
    assert got == want


def test_mode_commutator_examples():
    ctx = Context(2, 4)
    got = mode_commutator(ctx, 1, 2, 1, 2, 1, 1)
    want = generator(ctx, 2, 2, 1) - generator(ctx, 1, 1, 1)
    assert got == want
    assert mode_commutator(ctx, 1, 2, 1, 1, 2, 1).is_zero()
    with pytest.raises(TruncationError):
        mode_commutator(ctx, 1, 1, 3, 1, 1, 3)


def test_mode_commutator_matches_product_commutator():
    rng = random.Random(7)
    for n in (2, 3):
        ctx = Context(n, 6)
        for _ in range(40):
            i, j, k, l = (rng.randint(1, n) for _ in range(4))
            r, s = rng.randint(1, 3), rng.randint(1, 3)
            a, b = generator(ctx, i, j, r), generator(ctx, k, l, s)
            assert mode_commutator(ctx, i, j, r, k, l, s) == commutator(a, b)


def test_mode_commutator_antisymmetry():
    # not a termwise symmetry of the table: holds only after rewriting
    ctx = Context(3, 6)
    idx = range(1, 4)
    for i, j, k, l in itertools.product(idx, repeat=4):
        for r, s in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            lhs = mode_commutator(ctx, i, j, r, k, l, s)
            rhs = mode_commutator(ctx, k, l, s, i, j, r)
            assert (lhs + rhs).is_zero()


def test_commutator_of_a_non_element_raises_type_error():
    x = generator(Context(2, 3, GL), 1, 2, 1)
    for a, b in ((x, 1.5), (1.5, x), (x, None), ("x", x)):
        with pytest.raises(TypeError):
            commutator(a, b)


@pytest.mark.parametrize("n", [2, 3])
def test_confluence_of_strategies(n):
    rng = random.Random(100 + n)
    for _ in range(220):
        word = random_word(rng, n, max_len=4, max_mode=2)
        while word_degree(encode_word(word)) > 4:
            word = word[:-1]
        left = normal_order_strategy(word, "left")
        right = normal_order_strategy(word, "right")
        ref = {decode_word(w): Fraction(c)
               for w, c in normal_form_word(encode_word(word))}
        assert left == ref
        assert right == ref


def test_associativity_with_truncation():
    # with factors of degree <= 2 under bound 4 both intermediate
    # products are exact, so the final projections agree
    ctx = Context(2, 4)
    rng = random.Random(11)
    for _ in range(120):
        a, b, c = (random_element(rng, ctx, max_len=2, max_mode=1)
                   for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_associativity_exact_regime():
    # far from the bound the product is plainly associative
    ctx = Context(2, 12)
    rng = random.Random(19)
    for _ in range(40):
        a, b, c = (random_element(rng, ctx, max_len=2, max_mode=2)
                   for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_truncation_is_projection_of_exact_product():
    small = Context(2, 3)
    big = Context(2, 12)
    rng = random.Random(12)
    for _ in range(60):
        a = random_element(rng, big, max_len=3, max_mode=2)
        b = random_element(rng, big, max_len=3, max_mode=2)
        exact = a * b
        assert project(a, small) * project(b, small) == project(exact, small) \
            or a.degree() + b.degree() > 3
    # when the factors fit the small bound the results agree on the nose
    for _ in range(60):
        a = random_element(rng, big, terms=2, max_len=1, max_mode=2)
        b = random_element(rng, big, terms=2, max_len=1, max_mode=1)
        assert project(a, small) * project(b, small) == project(a * b, small)


def test_jacobi_identity():
    rng = random.Random(13)
    for n in (2, 3):
        ctx = Context(n, 6)
        for _ in range(50):
            gens = [generator(ctx, rng.randint(1, n), rng.randint(1, n),
                              rng.randint(1, 2)) for _ in range(3)]
            x, y, z = gens
            total = (commutator(x, commutator(y, z))
                     + commutator(y, commutator(z, x))
                     + commutator(z, commutator(x, y)))
            assert total.is_zero()


def test_degree_bound_always_respected():
    rng = random.Random(14)
    ctx = Context(2, 3)
    for _ in range(80):
        a = random_element(rng, ctx)
        b = random_element(rng, ctx)
        assert (a * b).degree() <= 3


def test_sl_mode_stores_no_corner_generator():
    rng = random.Random(15)
    for n in (2, 3):
        ctx = Context(n, 4, SL)
        for _ in range(60):
            el = random_element(rng, ctx, max_len=3, max_mode=2)
            for w in el.terms:
                assert all((i, j) != (n, n) for (_, i, j) in decode_word(w))


def test_sl_reduce_examples_and_morphism():
    sl2 = Context(2, 4, SL)
    assert generator(sl2, 2, 2, 1) == -generator(sl2, 1, 1, 1)
    gl2 = Context(2, 4, GL)
    rng = random.Random(16)
    for _ in range(50):
        a = random_element(rng, gl2, max_len=2, max_mode=2)
        b = random_element(rng, gl2, max_len=2, max_mode=2)
        lhs = sl_reduce(a * b, sl2)
        rhs = sl_reduce(a, sl2) * sl_reduce(b, sl2)
        assert lhs == rhs or a.degree() + b.degree() > 4


def test_sl_reduce_rejects_gl_target():
    ctx = Context(2, 4, GL)
    with pytest.raises(ValueError):
        sl_reduce(unit(ctx), ctx)


def test_scalar_and_linear_structure():
    ctx = Context(2, 4)
    a = generator(ctx, 1, 2, 1)
    b = generator(ctx, 2, 1, 1)
    assert a + a == 2 * a == a * 2
    assert (a - a).is_zero()
    assert Fraction(1, 2) * (a + b) - Fraction(1, 2) * a == Fraction(1, 2) * b
    assert unit(ctx) * a == a * unit(ctx) == a
    assert zero(ctx) * a == zero(ctx)
    assert (a + 1) - 1 == a


def test_tensor_componentwise_product():
    ctx = Context(2, 4)
    rng = random.Random(17)
    for _ in range(40):
        a, b, c, d = (random_element(rng, ctx, terms=2, max_len=1,
                                     max_mode=1) for _ in range(4))
        lhs = Tensor.of_elements(a, b) * Tensor.of_elements(c, d)
        rhs = Tensor.of_elements(a * c, b * d)
        assert lhs == rhs


def test_tensor_of_elements_is_slotwise_product_sl():
    # SL terms are already T_nn-free, so the outer product needs no rewrite
    ctx = Context(3, 4, SL)
    rng = random.Random(23)
    for _ in range(20):
        a, b = (random_element(rng, ctx, terms=2, max_len=2, max_mode=2)
                for _ in range(2))
        one = unit(ctx)
        rhs = Tensor.of_elements(a, one) * Tensor.of_elements(one, b)
        assert Tensor.of_elements(a, b) == rhs


def test_tensor_truncates_total_degree():
    ctx = Context(2, 2)
    a = generator(ctx, 1, 2, 2)
    b = generator(ctx, 2, 1, 1)
    assert Tensor.of_elements(a, b).is_zero()
    assert not Tensor.of_elements(a, unit(ctx)).is_zero()


def test_tensor_unit_is_identity():
    ctx = Context(2, 4)
    a = generator(ctx, 1, 2, 1)
    b = generator(ctx, 2, 2, 2)
    t = Tensor.of_elements(a, b)
    assert Tensor.unit(ctx) * t == t


def test_triple_tensor_slots():
    ctx = Context(2, 4)
    a = generator(ctx, 1, 1, 1)
    t = Tensor.of_elements(a, unit(ctx), a)
    assert t.arity == 3
    assert t.degree() == 2
    assert (t * Tensor.unit(ctx, 3)) == t


def test_generator_rejects_overflow_and_bad_indices():
    ctx = Context(2, 3)
    with pytest.raises(TruncationError):
        generator(ctx, 1, 1, 4)
    with pytest.raises(ValueError):
        generator(ctx, 0, 1, 1)
    with pytest.raises(ValueError):
        normal_order(ctx, [(4, 1, 1)])


# ---------------------------------------------------------------------------
# word encoding and contexts


def test_symbols_encode_and_decode_for_every_rank_and_mode():
    for n in range(2, 7):
        for k in range(1, 9):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    word = encode_word([(k, i, j)])
                    assert len(word) == 1
                    assert decode_word(word) == ((k, i, j),)
    triples = ((3, 1, 2), (1, 6, 6), (8, 2, 5))
    assert decode_word(encode_word(triples)) == triples
    assert encode_word(()) == "" and decode_word("") == ()


def test_word_order_is_the_triple_order():
    rng = random.Random(31)
    for _ in range(2000):
        a = random_word(rng, 6, max_len=4, max_mode=8)
        if rng.random() < 0.3:
            b = a[:rng.randint(0, len(a) - 1)]  # a proper prefix
        else:
            b = random_word(rng, 6, max_len=4, max_mode=8)
        if rng.random() < 0.5:
            a, b = b, a
        assert (a < b) == (encode_word(a) < encode_word(b))
        assert (a == b) == (encode_word(a) == encode_word(b))


def test_context_is_one_instance_per_key():
    assert Context(3, 2, SL) is Context(3, 2, SL)
    assert Context(3, 2) is Context(3, 2, GL)
    assert Context(3, 2, SL) is not Context(3, 2, GL)
    ctx = Context(3, 2, SL)
    assert repr(ctx) == "Context(n=3, max_degree=2, mode=SL)"
    with pytest.raises(AttributeError):
        ctx.n = 4
    for args in ((1, 2), (3, 0), (3, 2, "XL")):
        with pytest.raises(ValueError):
            Context(*args)


def test_repr_spells_terms_as_render_text():
    ctx = Context(2, 3, GL)
    x = (generator(ctx, 1, 2, 1) * generator(ctx, 2, 1, 2) * 3
         - generator(ctx, 1, 1, 1) * Fraction(1, 2) + 2)
    square = Tensor.of_elements(x, x)
    for obj in (x, square, zero(ctx)):
        assert repr(obj) == render.plain(obj)[0]
    assert repr(zero(ctx)) == "0"


def test_a_scalar_before_a_unit_slot_is_an_explicit_product():
    # `-2 1 (x) a` would read as two scalars: a scalar other than +-1 joins
    # a tensor whose first slot is 1 by a product sign; the constant, a
    # coefficient of +-1 and a first slot that is a word keep their spelling
    ctx = Context(2, 2, GL)
    one, a, b = unit(ctx), generator(ctx, 1, 1, 1), generator(ctx, 1, 2, 1)
    t = (Tensor.of_elements(one, a) * -2 + Tensor.of_elements(a, one) * -2
         + Tensor.of_elements(one, b) * Fraction(1, 2)
         + Tensor.of_elements(one, one) * 3 + Tensor.of_elements(one, a * b)
         - Tensor.of_elements(b, a) * 3)
    assert render.terms(t, render.TEXT) == (
        "3 - 2 * 1 (x) T[1](1,1) + 1 (x) T[1](1,1) T[1](1,2)"
        " + 1/2 * 1 (x) T[1](1,2) - 2 T[1](1,1) (x) 1"
        " - 3 T[1](1,2) (x) T[1](1,1)")
    assert render.terms(t, render.LATEX) == (
        r"3 - 2 \cdot 1 \otimes T^{(1)}_{1,1}"
        r" + 1 \otimes T^{(1)}_{1,1} T^{(1)}_{1,2}"
        r" + \tfrac{1}{2} \cdot 1 \otimes T^{(1)}_{1,2}"
        r" - 2\, T^{(1)}_{1,1} \otimes 1"
        r" - 3\, T^{(1)}_{1,2} \otimes T^{(1)}_{1,1}")
    assert repr(a * 3) == "3 T[1](1,1)"


def assert_one_object_per_value(parts):
    """Equal parts are one object: as many ids as distinct values."""
    assert len({id(part) for part in parts}) == len(set(parts))


def _fill_slot_tables(rng):
    for mode in (GL, SL):
        ctx = Context(3, 4, mode)
        for _ in range(5):
            x = random_element(rng, ctx, terms=3, max_len=2, max_mode=2)
            y = random_element(rng, ctx, terms=3, max_len=2, max_mode=2)
            Tensor.of_elements(x, y) * Tensor.of_elements(y, x)


def test_memo_values_share_equal_pairs_and_triples():
    rng = random.Random(19)
    # slot tables filled before a suite starts, then more after it: the
    # suite's scope boundary must not split equal triples into two objects
    _fill_slot_tables(rng)
    run_suite("gauss", 2)
    words = [encode_word(random_word(rng, 3, max_len=4, max_mode=3))
             for _ in range(300)]
    pairs = [pair for word in words for pair in normal_form_word(word)]
    assert len(pairs) > len(set(pairs))
    assert_one_object_per_value(pairs)
    _fill_slot_tables(rng)
    triples = [triple for table in algebra._SLOT_TABLES.values()
               for terms in table.values() for triple in terms]
    assert len(triples) > len(set(triples))
    assert_one_object_per_value(triples)


def memo_keys(memo):
    """The keys a memo holds: a dict's own, or those of the cache dict of
    an lru_cache, which CPython's lru_cache lists among its referents."""
    if isinstance(memo, dict):
        return set(memo)
    (cache,) = [ref for ref in gc.get_referents(memo)
                if type(ref) is dict and ref is not memo.__dict__]
    return set(cache)


def word_layer_keys():
    return [memo_keys(memo) for memo in (
        normal_form_word, algebra._sl_word_nf, algebra._SLOT_TABLES,
        hopf._delta_word)]


@pytest.mark.parametrize("first, second, n, order", [
    ("drinfeld", "gauss", 3, None),
    ("sl3", "hopf-axioms", 2, 3),
])
def test_each_suite_starts_with_an_empty_word_layer(first, second, n,
                                                    order):
    # the first run fills the memos no suite clears, so that the two runs
    # compared below meet the same ones
    run_suite(second, n, order)
    algebra.clear_word_layer()
    run_suite(second, n, order)
    alone = word_layer_keys()
    assert alone[0]
    run_suite(first, n, order)
    run_suite(second, n, order)
    assert word_layer_keys() == alone


def test_context_rejects_what_symbols_cannot_encode():
    assert Context(MAX_N, MAX_DEGREE).max_degree == MAX_DEGREE
    with pytest.raises(ValueError):
        Context(MAX_N + 1, 2)
    with pytest.raises(ValueError):
        Context(2, MAX_DEGREE + 1)
    with pytest.raises(ValueError):
        encode_word([(MAX_DEGREE + 1, 1, 1)])


def test_cli_order_past_the_encodable_bound_is_a_usage_error(monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "sl2", "--order", str(cli.MAX_ORDER + 1)])
    assert err.value.code == 2
