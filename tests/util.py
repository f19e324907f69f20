"""Shared helpers for the test suite."""

from fractions import Fraction

from yangian.algebra import Element, commutator_words, from_words


def random_word(rng, n, max_len=4, max_mode=2):
    length = rng.randint(1, max_len)
    return tuple(
        (rng.randint(1, max_mode), rng.randint(1, n), rng.randint(1, n))
        for _ in range(length))


def random_element(rng, ctx, terms=3, max_len=3, max_mode=2,
                   allow_const=True):
    raw = {}
    for _ in range(rng.randint(1, terms)):
        w = random_word(rng, ctx.n, max_len, max_mode)
        raw[w] = raw.get(w, 0) + Fraction(rng.randint(-3, 3),
                                          rng.randint(1, 3))
    if allow_const and rng.random() < 0.4:
        raw[()] = Fraction(rng.randint(-2, 2))
    return from_words(ctx, raw)


def project(el, ctx):
    """Image of an element under a lower degree bound."""
    return Element(ctx, dict(el.terms))


def _bubble_pass(terms, reverse):
    """One directed sweep of adjacent-descent rewriting over every word."""
    out = {}
    changed = False
    for word, coeff in terms.items():
        positions = range(len(word) - 1)
        if reverse:
            positions = reversed(positions)
        hit = None
        for t in positions:
            if word[t] > word[t + 1]:
                hit = t
                break
        if hit is None:
            out[word] = out.get(word, 0) + coeff
            continue
        changed = True
        x, y = word[hit], word[hit + 1]
        prefix, suffix = word[:hit], word[hit + 2:]
        swapped = prefix + (y, x) + suffix
        out[swapped] = out.get(swapped, 0) + coeff
        for mid, c0 in commutator_words(x[1], x[2], x[0], y[1], y[2], y[0]):
            w = prefix + mid + suffix
            out[w] = out.get(w, 0) + coeff * c0
    return {w: c for w, c in out.items() if c}, changed


def normal_order_strategy(word, direction="left"):
    """Normal-order one word by repeated directed sweeps.

    An independent rewriting strategy ('left' or 'right' scan for the
    descent to fix) used by the confluence checks against
    normal_form_word.  Returns {word: coefficient}.
    """
    terms = {tuple(word): 1}
    changed = True
    while changed:
        terms, changed = _bubble_pass(terms, direction == "right")
    return terms
