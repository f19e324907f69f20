"""Independent oracles for the structure constants of the algebra.

The mode commutator table used by the rewriting engine is a closed form;
here it is re-derived from scratch by coefficient matching against the
defining relation of the generating matrix,
    -(u - v) [T_{ij}(u), T_{kl}(v)] = T_{kj}(u) T_{il}(v) - T_{kj}(v) T_{il}(u),
and cross-checked through an evaluation map onto U(gl_n) with its own
tiny normal orderer.  Expected values for specific brackets and for the
n=2 determinant elimination are frozen literals.
"""

import itertools
import random
from fractions import Fraction

import pytest

from yangian import algebra, hopf, rtt
from yangian.algebra import (
    Context, Element, GL, SL, commutator_words, decode_word, generator,
    mode_commutator, unit, zero,
)
from yangian.drinfeld import current

# ---------------------------------------------------------------------------
# free-algebra model: words are tuples of (mode, row, col), no relations


def decoded(terms):
    """{triple word: coefficient} of (engine word, coefficient) pairs."""
    return {decode_word(w): c for w, c in terms}


def free_add(acc, word, coeff):
    acc[word] = acc.get(word, 0) + coeff
    if not acc[word]:
        del acc[word]


def free_pair(a, b, m1, c, d, m2, sign):
    """sign * T_{ab}^{(m1)} T_{cd}^{(m2)} with mode 0 read as delta."""
    out = {}
    if m1 == 0 and a != b:
        return out
    if m2 == 0 and c != d:
        return out
    word = ()
    if m1 > 0:
        word += ((m1, a, b),)
    if m2 > 0:
        word += ((m2, c, d),)
    out[word] = sign
    return out


def solve_bracket_table(i, j, k, l, cutoff):
    """Solve the defining relation for every [T_{ij}^{(r)}, T_{kl}^{(s)}].

    Matching u^-a v^-b coefficients in the defining relation gives
        C[a, b+1] - C[a+1, b] = T_{kj}^{(a)} T_{il}^{(b)} - T_{kj}^{(b)} T_{il}^{(a)}
    with C[0, *] = C[*, 0] = 0, which determines C row by row.  The
    solution lives in the free algebra: no rewriting is assumed.
    """
    table = {}
    for b in range(0, 2 * cutoff + 2):
        table[(0, b)] = {}
    for a in range(0, cutoff + 1):
        for b in range(0, 2 * cutoff + 1 - a):
            rhs = {}
            for w, c in free_pair(k, j, a, i, l, b, 1).items():
                free_add(rhs, w, c)
            for w, c in free_pair(k, j, b, i, l, a, -1).items():
                free_add(rhs, w, c)
            nxt = dict(table[(a, b + 1)])
            for w, c in rhs.items():
                free_add(nxt, w, -c)
            table[(a + 1, b)] = nxt
    return table


@pytest.mark.parametrize("n", [2, 3])
def test_bracket_table_matches_solved_relation(n):
    cutoff = 5
    idx = range(1, n + 1)
    for i, j, k, l in itertools.product(idx, repeat=4):
        table = solve_bracket_table(i, j, k, l, cutoff)
        # brackets against the missing mode-0 row must close to zero,
        # otherwise the matching itself would be inconsistent
        for a in range(cutoff + 2):
            assert table.get((a, 0), {}) == {}
        for r in range(1, cutoff + 1):
            for s in range(1, cutoff + 1):
                got = decoded(commutator_words(i, j, r, k, l, s))
                assert got == table[(r, s)], (i, j, r, k, l, s)


def test_bracket_frozen_values():
    # [T_12^(1), T_21^(1)] = T_22^(1) - T_11^(1)
    assert decoded(commutator_words(1, 2, 1, 2, 1, 1)) == {
        ((1, 2, 2),): 1, ((1, 1, 1),): -1}
    # [T_12^(1), T_12^(1)] = 0
    assert commutator_words(1, 2, 1, 1, 2, 1) == ()
    # [T_12^(1), T_11^(1)] = T_12^(1)
    assert decoded(commutator_words(1, 2, 1, 1, 1, 1)) == {((1, 1, 2),): 1}
    # [T_11^(2), T_12^(1)] = -T_12^(2)
    assert decoded(commutator_words(1, 1, 2, 1, 2, 1)) == {((2, 1, 2),): -1}
    # [T_12^(2), T_21^(2)] = T_22^(3) - T_11^(3)
    #                        + T_22^(2) T_11^(1) - T_22^(1) T_11^(2)
    assert decoded(commutator_words(1, 2, 2, 2, 1, 2)) == {
        ((3, 2, 2),): 1, ((3, 1, 1),): -1,
        ((2, 2, 2), (1, 1, 1)): 1, ((1, 2, 2), (2, 1, 1)): -1}


# ---------------------------------------------------------------------------
# evaluation onto U(gl_n): T_{ij}^(1) -> -E_{ij}, higher modes -> 0

def u_normal(word, coeff, out):
    """Normal-order a word of E_{ij} symbols in U(gl_n).

    Uses [E_{ab}, E_{cd}] = delta_{bc} E_{ad} - delta_{da} E_{cb} and
    sorts symbols (row, col) lexicographically.
    """
    for t in range(len(word) - 1):
        if word[t] > word[t + 1]:
            (a, b), (c, d) = word[t], word[t + 1]
            pre, post = word[:t], word[t + 2:]
            u_normal(pre + (word[t + 1], word[t]) + post, coeff, out)
            if b == c:
                u_normal(pre + ((a, d),) + post, coeff, out)
            if d == a:
                u_normal(pre + ((c, b),) + post, -coeff, out)
            return
    out[word] = out.get(word, 0) + coeff
    if not out[word]:
        del out[word]


def evaluate_word(tword):
    """Image of a generator word, as (U word, sign) or None if it dies."""
    sign = 1
    uword = []
    for (k, i, j) in tword:
        if k >= 2:
            return None
        sign = -sign
        uword.append((i, j))
    return tuple(uword), sign


def evaluate_element(el):
    out = {}
    for word, coeff in el.terms.items():
        hit = evaluate_word(decode_word(word))
        if hit is None:
            continue
        u_normal(hit[0], coeff * hit[1], out)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_evaluation_respects_brackets(n):
    # the closed form must map onto the U(gl_n) bracket under evaluation
    idx = range(1, n + 1)
    for i, j, k, l in itertools.product(idx, repeat=4):
        for r, s in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            lhs = {}
            for word, c in commutator_words(i, j, r, k, l, s):
                hit = evaluate_word(decode_word(word))
                if hit is not None:
                    u_normal(hit[0], Fraction(c) * hit[1], lhs)
            rhs = {}
            if r == 1 and s == 1:
                u_normal(((i, j), (k, l)), Fraction(1), rhs)
                u_normal(((k, l), (i, j)), Fraction(-1), rhs)
            assert lhs == rhs, (i, j, r, k, l, s)


@pytest.mark.parametrize("n", [2, 3])
def test_evaluation_of_normal_forms(n):
    rng = random.Random(20260816 + n)
    ctx = Context(n, 8, GL)
    for _ in range(60):
        length = rng.randint(2, 4)
        word = tuple(
            (rng.randint(1, 2), rng.randint(1, n), rng.randint(1, n))
            for _ in range(length))
        nf = algebra.normal_order(ctx, word)
        direct = {}
        hit = evaluate_word(word)
        if hit is not None:
            u_normal(hit[0], Fraction(hit[1]), direct)
        assert evaluate_element(nf) == direct, word


# ---------------------------------------------------------------------------
# determinant elimination for the SL quotient

def test_sl_elimination_frozen_n2():
    # T_22^(1) -> -T_11^(1)
    assert decoded(algebra._sl_elimination(2, 1)) == {((1, 1, 1),): -1}
    # T_22^(2) -> -T_11^(2) + T_11^(1) + T_11^(1) T_11^(1)
    #             + T_12^(1) T_21^(1)
    assert decoded(algebra._sl_elimination(2, 2)) == {
        ((2, 1, 1),): -1,
        ((1, 1, 1),): 1,
        ((1, 1, 1), (1, 1, 1)): 1,
        ((1, 1, 2), (1, 2, 1)): 1,
    }


def determinant_coefficient(n, m):
    """u^-m coefficient of qdet T(u) from the defining permutation sum,
    independent of the minor engine the elimination is built on."""
    ctx = Context(n, m, GL)
    idx = tuple(range(1, n + 1))
    det = rtt.minor_by_permutations(rtt.t_matrix(ctx), idx, idx)
    return det.coefficient(m).terms


@pytest.mark.parametrize("n", [2, 3])
def test_sl_elimination_kills_determinant_coefficients(n):
    ctx = Context(n, 6, SL)
    for m in range(1, 5):
        raw = determinant_coefficient(n, m)
        assert Element(ctx, raw).is_zero(), m


def test_determinant_coefficient_n2_frozen():
    # u^-1 coefficient of the n=2 determinant: T_11^(1) + T_22^(1)
    assert decoded(determinant_coefficient(2, 1).items()) == {
        ((1, 1, 1),): 1, ((1, 2, 2),): 1}


# ---------------------------------------------------------------------------
# degree-one oracle of the hat chains
#
# At u^-1 a chain acts through the brackets of its root vectors alone:
# every spectral correction multiplies two series that start at u^-1, so
# it starts at u^-2.  The oracle reads the same spec as the engine and
# evaluates it with matrix units in gl_n, T^(1)_ab -> -E_ab, projected to
# sl_n through E_nn = -sum_{i<n} E_ii.

# (n, m, kind) whose printed chain misses the corner generator at degree
# one: the known hat defect, which a repaired chain must empty
HAT_DEGREE_ONE_DEFECTS = {(4, 2, "e"), (4, 2, "f"), (5, 2, "f"),
                          (6, 2, "e"), (6, 2, "f"), (6, 3, "e"), (6, 3, "f"),
                          (6, 4, "e"), (6, 4, "f")}


def unit_sum(*parts):
    out = {}
    for part in parts:
        for p, c in part.items():
            out[p] = out.get(p, 0) + c
            if not out[p]:
                del out[p]
    return out


def unit_bracket(x, y):
    """[x, y] of combinations {(a, b): coeff} of matrix units."""
    out = {}
    for p, c in x.items():
        for q, d in y.items():
            u_normal((p, q), c * d, out)
            u_normal((q, p), -c * d, out)
    assert all(len(word) == 1 for word in out)
    return {word[0]: c for word, c in out.items()}


def simple_root(kind, a):
    """Image of T^(1)_{a,a+1} (kind "e") or T^(1)_{a+1,a} (kind "f")."""
    return {(a, a + 1) if kind == "e" else (a + 1, a): -1}


def unit_step(kind, low, high, x):
    """Degree-one part of one chain step: the bracket with the root
    vector, sign-reversed when lowering; a diagonal step is x plus the
    raising step after the lowering one."""
    assert low <= high
    if low == high:
        return x
    if kind == "d":
        return unit_sum(x, unit_step("e", low, high,
                                     unit_step("f", low, high, x)))
    root = {(low, high) if kind == "e" else (high, low): -1}
    b = unit_bracket(root, x)
    return b if kind == "e" else {p: -c for p, c in b.items()}


def unit_chain(n, spec, x):
    """Degree-one part of a chain spec on x, projected to sl_n."""
    _, _, steps = spec
    for kind, low, high, _ in reversed(steps):
        x = unit_step(kind, low, high, x)
    nn = x.get((n, n), 0)
    return unit_sum({p: c for p, c in x.items() if p != (n, n)},
                    {(i, i): -nn for i in range(1, n)})


def engine_units(el):
    """An element of degree one as matrix units."""
    words = [decode_word(w) for w in el.terms]
    assert all(len(w) == 1 and w[0][0] == 1 for w in words), el
    return {w[0]: c for w, c in evaluate_element(el).items()}


def test_hat_chains_at_degree_one_match_matrix_units():
    order = 2
    missing = set()
    cases = 0
    for n in range(2, 7):
        ctx = Context(n, order, SL)
        frame = hopf.CurrentFrame(ctx)
        for i in range(1, n):
            m = n - i
            c = Fraction(m - 2, 2)
            for kind in ("e", "f"):
                spec = hopf.hat_spec(n, kind, m)
                leading = current(ctx, kind, m)
                assert engine_units(leading.coefficient(1)) == simple_root(
                    kind, m)
                model = unit_chain(n, spec, simple_root(kind, m))
                got = hopf.chain(frame, spec, c)(leading.shift(c + 1))
                assert engine_units(got.coefficient(1)) == model, (n, m, kind)
                # the ratio at i has the corner generator at degree one
                if model != simple_root(kind, i):
                    missing.add((n, m, kind))
                cases += 1
    assert cases == 30
    assert missing == HAT_DEGREE_ONE_DEFECTS
