"""Hopf structure maps and their expression on the current generators.

The ground truth lives on the matrix generators: the coproduct splits
T_{i,j}(u) along an intermediate index, the antipode inverts the
matrix series, and the counit keeps the constant term.  Everything
else here transports that structure to the currents: generalized
adjoint operators built from degree-one root vectors, their composites,
closed coproduct/antipode formulas for the currents, and checkers that
compare each formula against the transported (pullback) maps.

Each map is built one way.  The word images are memoised: `_delta_word`
splits one symbol as its base case, and `_antipode_word` reads the
memoised T(u)^{-1} of `rtt`.  A word is the str of `algebra`'s one-code-
point symbols, so both maps split it by slicing and decode only the one
symbol they map, and a memo lookup hashes the interned context by
identity and the word by its cached hash.  The (left, right) keys of
`_delta_word`'s values go through `algebra.shared`, one object per key
value in a scope of the word layer, which `clear_word_layer` empties
with the share table.  `_map_slot` applies a word image inside one slot,
also on an element's one-slot view {(w,): c}; `multiply_slots` maps one
slot by the antipode in its one product loop, joining words as strs.

Every sum of outer products a (x) b is one `series.outer_sum`: a
symbol's coproduct sum_a T_ia(u) (x) T_aj(u), a minor's split over
intermediate index sets, and the heads and geometric powers of the
closed current coproducts (1 (x) x is a term against the unit series).

The word maps accumulate on integer numerators.  The images of words
have int coefficients, while the current modes carry the denominators
of their recentring, so a map scales its input by the common
denominator D of its coefficients, sums products of ints, and divides
each surviving term by D once (`_numerators`, `_over`).

Each composite of root actions is data, a chain spec (side, alpha,
steps).  A step (kind, low, high, offset) is a root action "e" (raising)
or "f" (lowering) on the root (low, high), or a diagonal step "d", at the
chain's base shift plus offset; steps act right to left, as the printed
product reads.  `composite_spec` and `hat_spec` write the printed chains,
and `chain` applies a spec to a series.  The checks and formulas reach it
only through `CurrentFrame.apply_chain`, on a named argument (a current
or a pairing series at a shift), so each application is built once per
frame.  A root step on (low, high) carries the spectral correction of
the current at alpha exactly in the printed window low <= alpha < high.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
import random

from .algebra import (
    GL,
    SL,
    Context,
    Element,
    Tensor,
    ONE,
    ZERO,
    commutator,
    decode_symbol,
    from_words,
    generator,
    shared,
    symbol,
    unit,
    word_layer_memo,
    zero,
)
from .drinfeld import current, leading_block_inverse, root_element
from .report import Report
from .rtt import (
    inverse_matrix, quantum_minor, reflected_minor, t_entry, t_star_matrix,
)
from .series import Series, outer_sum, series_outer


# ---------------------------------------------------------------------------
# structural maps on elements


@word_layer_memo
@lru_cache(maxsize=None)
def _delta_word(ctx, word):
    """Coproduct of a word, as a tensor square: a symbol T_ij^(k) is the
    u^-k coefficient of Delta T_ij(u) = sum_a T_ia(u) (x) T_aj(u), and a
    longer word the product of its prefix's image and its last symbol's.
    """
    if not word:
        total = Tensor.unit(ctx, 2)
    elif len(word) > 1:
        total = _delta_word(ctx, word[:-1]) * _delta_word(ctx, word[-1:])
    else:
        k, i, j = decode_symbol(word)
        total = outer_sum(ctx, [(t_entry(ctx, i, a), t_entry(ctx, a, j), 1)
                                for a in range(1, ctx.n + 1)]).coefficient(k)
    return Tensor._trusted(ctx, 2, {shared(key): c
                                    for key, c in total.terms.items()})


@lru_cache(maxsize=None)
def _antipode_word(ctx, word):
    """Antipode of a word: the product, in reverse order, of the
    coefficients of T(u)^{-1} at its symbols."""
    if not word:
        return unit(ctx)
    k, i, j = decode_symbol(word[-1])
    image = inverse_matrix(ctx).entry(i, j).coefficient(k)
    return image * _antipode_word(ctx, word[:-1])


def _numerators(terms):
    """(D, scaled): the coefficients of terms times their common
    denominator D, the lcm of their Fraction denominators.

    Every scaled coefficient is an int.  When every coefficient already
    is one, D is 1 and terms comes back as it is.
    """
    d = 1
    integral = True
    for c in terms.values():
        if type(c) is not int:
            integral = False
            if d % c.denominator:
                d = lcm(d, c.denominator)
    if integral:
        return 1, terms
    return d, {k: c * d if type(c) is int
               else c.numerator * (d // c.denominator)
               for k, c in terms.items()}


def _over(s, d):
    """The exact coefficient s / d of an int numerator s over the common
    denominator d: an int when d divides s, else a reduced Fraction."""
    q, r = divmod(s, d)
    return Fraction(s, d) if r else q


def _delta_image(ctx):
    """A word to the (left, right) terms of its coproduct."""
    return lambda w: _delta_word(ctx, w).terms.items()


def _antipode_image(ctx):
    """A word to the (word, coefficient) terms of its antipode."""
    return lambda w: _antipode_word(ctx, w).terms.items()


def delta_element(x):
    """Coproduct of an element, as a tensor square: the word coproducts
    mapped over the element's one-slot view {(w,): c}."""
    view = {(w,): c for w, c in x.terms.items()}
    return Tensor._trusted(x.ctx, 2, _map_slot(view, 0, _delta_image(x.ctx)))


def antipode_element(x):
    """Antipode of an element (an anti-morphism on products): the word
    antipodes mapped over the element's one-slot view, where each
    antipode word is a result key as it stands."""
    view = {(w,): c for w, c in x.terms.items()}
    return Element._trusted(x.ctx, _map_slot(view, 0, _antipode_image(x.ctx)))


def counit_element(x):
    """Counit of an element: the coefficient of the empty word."""
    return x.constant()


def delta_series(s):
    """Coefficientwise coproduct of an element series."""
    return s.map_coeffs(delta_element, arity=2)


def antipode_series(s):
    """Coefficientwise antipode of an element series."""
    return s.map_coeffs(antipode_element)


# ---------------------------------------------------------------------------
# slot maps on tensor squares / cubes


def _map_slot(terms, slot, image):
    """The terms of a map applied inside one slot of every key of terms.

    image maps the slot's word to (parts, int coefficient) pairs, and a
    result key is the key with its slot replaced by parts: a tuple of
    slot words, none for the counit and two for the coproduct.  A key of
    one slot, an element's view {(w,): c}, has nothing around its slot,
    so parts is the result key as it stands: a word for the antipode of
    an element, a (left, right) key for its coproduct.  Terms
    that agree outside the mapped slot form one group, whose images add
    into one dict keyed by parts; each result key is then built once,
    from the group's head and tail and parts that kept a nonzero sum.
    The sums run on the int numerators of terms over their common
    denominator D, and each result key is divided by D once.  The
    coproduct, antipode and counit of a word never raise its degree, so
    no result key passes the bound and the callers trust the terms.
    """
    d, terms = _numerators(terms)
    groups = {}
    for key, c in terms.items():
        rest = key[:slot] + key[slot + 1:]
        sums = groups.get(rest)
        if sums is None:
            sums = groups[rest] = {}
        for parts, c2 in image(key[slot]):
            # most image coefficients are 1, and a first sum needs no add
            v = c if c2 == 1 else c * c2
            old = sums.get(parts)
            sums[parts] = v if old is None else old + v
    out = {}
    for rest, sums in groups.items():
        head, tail = rest[:slot], rest[slot:]
        for parts, c in sums.items():
            if c:
                key = head + parts + tail if rest else parts
                out[key] = c if d == 1 else _over(c, d)
    return out


def delta_on_slot(t, slot):
    """Apply the coproduct inside one slot, raising the arity by one."""
    return Tensor._trusted(t.ctx, t.arity + 1,
                           _map_slot(t.terms, slot, _delta_image(t.ctx)))


def counit_on_slot(t, slot):
    """Contract one slot with the counit, lowering the arity by one."""
    out = _map_slot(t.terms, slot, lambda w: () if w else (((), ONE),))
    if t.arity == 2:
        return Element._trusted(t.ctx, {k[0]: c for k, c in out.items()})
    return Tensor._trusted(t.ctx, t.arity - 1, out)


def antipode_on_slot(t, slot):
    """Apply the antipode inside one slot."""
    image = _antipode_image(t.ctx)
    return Tensor._trusted(t.ctx, t.arity, _map_slot(
        t.terms, slot, lambda w: (((v,), c) for v, c in image(w))))


def multiply_slots(t, antipode):
    """m(S x id) (antipode=0) or m(id x S) (antipode=1) of a tensor square.

    The antipode slot's word goes through its antipode, and the image
    words multiply straight into the product words: no tensor is built
    between the two maps.  The product words add on the int
    numerators of t, and the normal-ordered result is divided by their
    common denominator once.
    """
    if t.arity != 2:
        raise ValueError("tensor square expected")
    if antipode not in (0, 1):
        raise ValueError("antipode slot must be 0 or 1")
    ctx = t.ctx
    image = _antipode_image(ctx)
    d, terms = _numerators(t.terms)
    raw = {}
    for key, c in terms.items():
        # the product word is head + (image of the slot's word) + tail
        head = key[0] if antipode else ""
        tail = "" if antipode else key[1]
        for v, cv in image(key[antipode]):
            w = head + v + tail
            raw[w] = raw.get(w, ZERO) + c * cv
    el = from_words(ctx, raw)
    if d == 1:
        return el
    return Element._trusted(ctx, {w: _over(c, d) for w, c in el.terms.items()})


# ---------------------------------------------------------------------------
# axioms


def _axiom_targets(ctx, include_currents=True):
    order = ctx.max_degree
    targets = []
    for i in range(1, ctx.n + 1):
        for j in range(1, ctx.n + 1):
            for k in range(1, order + 1):
                targets.append(("T[%d](%d,%d)" % (k, i, j),
                                generator(ctx, i, j, k)))
    if include_currents:
        for i in range(1, ctx.n):
            for kind in ("e", "f", "h"):
                s = current(ctx, kind, i)
                for k in range(1, order + 1):
                    targets.append(("%s%d[%d]" % (kind, i, k - 1),
                                    s.coefficient(k)))
    return targets


def hopf_axioms_check(n, order, mode=SL, include_currents=True):
    """Coassociativity, the counit axiom and the antipode axiom on the
    generators and currents, from one coproduct per target:

    - (delta x id) delta == (id x delta) delta;
    - the counit contractions of the coproduct recover the element;
    - m(S x id) delta and m(id x S) delta collapse to the counit.
    """
    ctx = Context(n, order, mode)
    coassoc = Report("coassociativity", n=n, order=order, mode=mode)
    counit = Report("counit-axiom", n=n, order=order, mode=mode)
    antipode = Report("antipode-axiom", n=n, order=order, mode=mode)
    for label, x in _axiom_targets(ctx, include_currents):
        d = delta_element(x)
        coassoc.check(label, delta_on_slot(d, 0), delta_on_slot(d, 1))
        counit.check(label + ":left", counit_on_slot(d, 0), x)
        counit.check(label + ":right", counit_on_slot(d, 1), x)
        want = unit(ctx) * counit_element(x)
        antipode.check(label + ":left", multiply_slots(d, antipode=0), want)
        antipode.check(label + ":right", multiply_slots(d, antipode=1), want)
    return [coassoc, counit, antipode]


def _random_element(rng, ctx, terms, degree_cap):
    total = zero(ctx)
    for _ in range(terms):
        word = ""
        degree = 0
        for _ in range(rng.randint(1, max(1, degree_cap))):
            room = degree_cap - degree
            if room < 1:
                break
            k = rng.randint(1, room)
            degree += k
            word += symbol(k, rng.randint(1, ctx.n), rng.randint(1, ctx.n))
        total = total + from_words(ctx, {word: rng.randint(-3, 3)})
    return total


MORPHISM_SAMPLES = 12


def structure_morphism_check(n, order, seed=0):
    """Coproduct/counit are morphisms, the antipode an anti-morphism.

    Factors are drawn so the combined degree stays within the context
    bound, where the truncated product agrees with the exact one.
    """
    ctx = Context(n, order, SL)
    rng = random.Random(seed)
    rep = Report("structure-morphisms", n=n, order=order, mode=SL, seed=seed)
    if ctx.max_degree < 2:
        rep.note("degree bound %d leaves no room for two factors of "
                 "degree >= 1; sampling skipped" % ctx.max_degree)
        return rep
    for t in range(MORPHISM_SAMPLES):
        cap = rng.randint(1, ctx.max_degree - 1)
        x = _random_element(rng, ctx, 2, cap)
        y = _random_element(rng, ctx, 2, ctx.max_degree - cap)
        rep.check("delta:%d" % t, delta_element(x * y),
                  delta_element(x) * delta_element(y))
        rep.check("antipode:%d" % t, antipode_element(x * y),
                  antipode_element(y) * antipode_element(x))
        got = counit_element(x * y) - counit_element(x) * counit_element(y)
        rep.check("counit:%d" % t, unit(ctx) * got, zero(ctx))
    return rep


# ---------------------------------------------------------------------------
# images of quantum minors


def _index_subsets(n, m):
    return list(combinations(range(1, n + 1), m))


def minor_coproduct_check(n, order):
    """The coproduct splits a minor along an intermediate index set."""
    ctx = Context(n, order, GL)
    rep = Report("minor-coproduct", n=n, order=order, mode=GL)
    for m in range(1, n + 1):
        for rows in _index_subsets(n, m):
            for cols in _index_subsets(n, m):
                lhs = delta_series(quantum_minor(ctx, rows, cols))
                rhs = outer_sum(ctx, [(quantum_minor(ctx, rows, mid),
                                       quantum_minor(ctx, mid, cols), 1)
                                      for mid in _index_subsets(n, m)])
                for k in range(order + 1):
                    rep.check("m=%d,%s|%s,k=%d" % (m, rows, cols, k),
                              lhs.coefficient(k), rhs.coefficient(k))
    return rep


def minor_counit_check(n, order):
    """The counit of a minor is 1 on equal index sets, else 0."""
    ctx = Context(n, order, GL)
    rep = Report("minor-counit", n=n, order=order, mode=GL)
    for m in range(1, n + 1):
        for rows in _index_subsets(n, m):
            for cols in _index_subsets(n, m):
                s = quantum_minor(ctx, rows, cols)
                want = 1 if rows == cols else 0
                got = [counit_element(s.coefficient(k)) for k in range(order + 1)]
                ok = got[0] == want and all(c == 0 for c in got[1:])
                rep.tally()
                if not ok:
                    rep.record("m=%d,%s|%s" % (m, rows, cols),
                               unit(ctx) * (got[0] - want))
    return rep


def qdet_grouplike_check(n, order):
    """The quantum determinant splits as (itself) x (itself)."""
    ctx = Context(n, order, GL)
    full = tuple(range(1, n + 1))
    s = quantum_minor(ctx, full, full)
    lhs = delta_series(s)
    rhs = series_outer(s, s)
    rep = Report("qdet-grouplike", n=n, order=order)
    for k in range(order + 1):
        rep.check("k=%d" % k, lhs.coefficient(k), rhs.coefficient(k))
    return rep


def minor_antipode_sign_check(n, order):
    """Empirical sign relating S(minor) to the reflected-matrix minor.

    The antipode of an m x m minor agrees with the reflected minor up
    to an overall sign depending only on m; the report records the
    observed exponent pattern.
    """
    ctx = Context(n, order, GL)
    rep = Report("minor-antipode-sign", n=n, order=order, mode=GL)
    star = t_star_matrix(ctx)
    # one sub-minor memo for every reflected minor of this sweep
    memo = {}
    signs = {}
    for m in range(1, n + 1):
        seen = None
        for rows in _index_subsets(n, m):
            for cols in _index_subsets(n, m):
                pull = antipode_series(quantum_minor(ctx, rows, cols))
                cand = reflected_minor(star, rows, cols, m - 1, memo)
                match = None
                for sign in (1, -1):
                    if all((pull.coefficient(k) - cand.coefficient(k) * sign).is_zero()
                           for k in range(order + 1)):
                        match = sign
                        break
                rep.tally()
                if match is None or (seen is not None and match != seen):
                    diff = pull.coefficient(1) - cand.coefficient(1) * (seen or 1)
                    rep.record("m=%d,%s|%s" % (m, rows, cols), diff)
                else:
                    seen = match
        signs[m] = seen
    pattern = ",".join("%d:%+d" % (m, s) for m, s in signs.items() if s)
    rep.note("observed signs per size: %s" % pattern)
    halves = all(s == (-1) ** (m // 2) for m, s in signs.items() if s)
    rep.note("matches (-1)^(size//2): %s" % halves)
    return rep


# ---------------------------------------------------------------------------
# generalized adjoint operators on current series


class CurrentFrame:
    """The operator pieces of the current formulas over one context,
    whose degree bound is the order of every series the frame builds.

    A frame memoises, each under a key that names every input it reads:
    the pairing series g and g~, the shifted arguments of the chains and
    corrections, the spectral corrections of the root actions, applied
    chain specs, the inverted antipode denominators and the whole
    current formulas.  A declared deviation that moves one
    spectral slot therefore rebuilds only the pieces reading that slot.

    A frame lives for one check function and is dropped with it; nothing
    it holds outlives the check.  Sharing the stored results is safe
    because no Series, Element or Tensor is changed after it is built.
    Keys compare shifts by ==, and equal shifts give equal series.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self._memo = {}

    def memo(self, key, build):
        """The value stored under key, built by build() on first use."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def current(self, kind, i):
        return current(self.ctx, kind, i)

    def root(self, kind, low, high):
        return root_element(self.ctx, kind, low, high)

    def g(self, i):
        """Diagonal plus lowering*shifted-raising combination."""
        return self.memo(("g", i), lambda: (
            self.current("h", i)
            + self.current("f", i) * self.current("e", i).shift(1)))

    def g_tilde(self, i):
        """Diagonal plus shifted-lowering*raising combination."""
        return self.memo(("gt", i), lambda: (
            self.current("h", i)
            + self.current("f", i).shift(1) * self.current("e", i)))

    def argument(self, name, i, at):
        """The current "e", "f" or "h", or the pairing series "g" or
        "gt", of root i at u + at: shifted once per frame."""
        def build():
            series = (self.g(i) if name == "g" else self.g_tilde(i)
                      if name == "gt" else self.current(name, i))
            return series.shift(at)
        return self.memo(("arg", name, i, at), build)

    def apply_chain(self, spec, shift, arg):
        """A chain spec at a shift applied to arg = (name, index, shift),
        the series that `argument` names."""
        def build():
            return chain(self, spec, shift, self.argument(*arg))
        return self.memo(("chain", spec, shift, arg), build)


def _gate_fires(alpha, i, j):
    """Whether a root step on (i, j) carries the correction at alpha."""
    return i <= alpha < j


def _bracket_series(root, sign, x):
    """The series x with each coefficient c replaced by sign [root, c]."""
    def act(el):
        b = commutator(root, el)
        return b if sign > 0 else -b
    return x.map_coeffs(act)


def _root_correction(frame, kind, alpha, low, high, shift):
    """The shifted current at alpha, carried to the root (low, high)."""
    sign = 1 if kind == "e" else -1
    corr = frame.argument(kind, alpha, shift)
    if alpha + 1 != high:
        corr = _bracket_series(frame.root(kind, alpha + 1, high), sign, corr)
    if low != alpha:
        corr = _bracket_series(frame.root(kind, low, alpha), -sign, corr)
    return corr


def elementary_root(frame, kind, side, alpha, low, high, shift, x):
    """Adjoint action of the root vector (low, high), with spectral
    correction, on the series x.

    kind "e" raises and kind "f" lowers: the lowering action is the
    raising one with every bracket sign reversed.  side "L" multiplies
    the correction current from the left of the argument, side "R" from
    the right.  The correction switches on in the printed window
    low <= alpha < high; it does not depend on side, and the frame
    builds it once.
    """
    if low > high:
        raise ValueError("root operator needs low <= high")
    out = x if low == high else _bracket_series(
        frame.root(kind, low, high), 1 if kind == "e" else -1, x)
    if _gate_fires(alpha, low, high):
        corr = frame.memo(("corr", kind, alpha, low, high, shift),
                          lambda: _root_correction(frame, kind, alpha, low,
                                                   high, shift))
        out = out + (corr * x if side == "L" else x * corr)
    return out


def elementary_diagonal(frame, side, alpha, i, j, shift, x):
    """Unit plus raising-after-lowering step of the diagonal composites,
    on the series x; a step with i > j gives the constant series 1."""
    if i > j:
        return Series.constant(frame.ctx, arity=x.arity)
    if i == j:
        return x
    up, down = (shift, shift + 1) if side == "L" else (shift + 1, shift)
    lowered = elementary_root(frame, "f", side, alpha, i, j, down, x)
    return x + elementary_root(frame, "e", side, alpha, i, j, up, lowered)


def composite_spec(kind, side, alpha, ks):
    """Ordered product of elementary actions over an index set.

    kind "e" (raising) or "f" (lowering) takes root steps, kind "h"
    diagonal steps; step p pairs p with k_p, the last step m+1 with k_m.
    """
    lows = tuple(range(1, len(ks))) + (len(ks) + 1,)
    step = "d" if kind == "h" else kind
    return side, alpha, tuple((step, low, high, 0)
                              for low, high in zip(lows, ks))


def hat_spec(n, kind, m):
    """Hat composite of the antipode formulas: raising (kind "e") from the
    right, lowering (kind "f") from the left.  The single-step case puts
    the extra +1 on the factor of the hat's own kind, the composite case
    on the raising factors."""
    if not 1 <= m <= n - 1:
        raise ValueError("index out of range")
    diagonals = tuple(("d", p, n - m + p, 0) for p in range(2, m))
    if kind == "e":
        steps = ((("e", 2, n, 1), ("f", 1, n - 1, 0)) if m == 1 else
                 (("e", 1, n - m + 1, 1), ("f", 1, n - m, 0)) + diagonals
                 + (("e", m + 1, n, 1), ("f", m, n, 0)))
        return "R", m, steps
    steps = ((("e", 1, n - 1, 0), ("f", 2, n, 1)) if m == 1 else
             (("e", 1, n - m, 1), ("f", 1, n - m + 1, 0)) + diagonals
             + (("e", m, n, 1), ("f", m + 1, n, 0)))
    return "L", m, steps


def uniform_shifts(spec):
    """The single-step shift pattern at every size: +1 on the root steps
    of the chain's own kind (lowering on side "L", raising on side "R"),
    0 on the others.  The identity on both single-step hats."""
    side, alpha, steps = spec
    own = "f" if side == "L" else "e"
    return side, alpha, tuple(
        (kind, low, high, offset if kind == "d" else int(kind == own))
        for kind, low, high, offset in steps)


def chain(frame, spec, shift, x):
    """A chain spec at a base spectral shift applied to the series x; an
    empty chain gives the constant series 1."""
    side, alpha, steps = spec
    if not steps:
        return Series.constant(frame.ctx, arity=x.arity)
    for kind, low, high, offset in reversed(steps):
        x = (elementary_diagonal(frame, side, alpha, low, high,
                                 shift + offset, x) if kind == "d"
             else elementary_root(frame, kind, side, alpha, low, high,
                                  shift + offset, x))
    return x


# ---------------------------------------------------------------------------
# minor-ratio identities behind the current formulas


def _series_match(rep, label, lhs, rhs, *, documented=False):
    for k in range(lhs.order + 1):
        if documented:
            rep.tally()
            diff = lhs.coefficient(k) - rhs.coefficient(k)
            if not diff.is_zero():
                rep.document("%s,k=%d" % (label, k), diff)
        else:
            rep.check("%s,k=%d" % (label, k),
                      lhs.coefficient(k), rhs.coefficient(k))


RATIO_FAMILIES = ("raise-left", "raise-right", "lower-left", "lower-right",
                  "pair-raise-left", "pair-raise-right", "pair-lower-left",
                  "pair-lower-right")


def ratio_identities_check(n, order):
    """Minor ratios against composite raising/lowering images.

    Eight families: each pairs a one-sided minor ratio with a composite
    operator applied to a current or to one of the pairing series.
    """
    ctx = Context(n, order, SL)
    frame = CurrentFrame(ctx)
    reports = []
    for fam in RATIO_FAMILIES:
        sector, _, hand = fam.rpartition("-")
        kind = "e" if sector.endswith("raise") else "f"
        side = "L" if hand == "left" else "R"
        rep = Report("ratio-" + fam, n=n, order=order, gate="printed")
        for i in range(1, n):
            inv = leading_block_inverse(ctx, i)
            low = Fraction(i - 2, 2)
            high = Fraction(i, 2)
            # raising from the left and lowering from the right take the
            # lower shift, the two mirror families the higher one
            shift = low if (side == "L") == (kind == "e") else high
            if sector.startswith("pair-"):
                top = tuple(range(1, i)) + (i + 1,)
                arg = ("gt" if side == "L" else "g", i, low)
            else:
                top = tuple(range(1, i + 1))
                arg = (kind, i, shift)
            for a in _proper_subsets(n, i):
                minor = (quantum_minor(ctx, top, a) if kind == "e"
                         else quantum_minor(ctx, a, top))
                lhs = inv * minor if side == "L" else minor * inv
                rhs = frame.apply_chain(composite_spec(kind, side, i, a),
                                        shift, arg)
                _series_match(rep, "i=%d,a=%s" % (i, a), lhs, rhs)
        reports.append(rep)
    return reports


def diagonal_ratio_check(n, order):
    """Two-sided diagonal minor ratios against diagonal composites."""
    ctx = Context(n, order, SL)
    frame = CurrentFrame(ctx)
    rep = Report("ratio-diagonal", n=n, order=order, gate="printed")
    for i in range(1, n):
        m = n - i
        c = Fraction(m - 2, 2)
        inv = leading_block_inverse(ctx, m)
        for j in range(1, i + 2):
            ks = (j,) + tuple(range(i + 2, n + 1))
            block = quantum_minor(ctx, ks, ks)
            right = frame.apply_chain(composite_spec("h", "R", m, ks), c,
                                      ("g", m, c))
            _series_match(rep, "right,i=%d,j=%d" % (i, j), block * inv, right)
            left = frame.apply_chain(composite_spec("h", "L", m, ks), c,
                                     ("gt", m, c))
            _series_match(rep, "left,i=%d,j=%d" % (i, j), inv * block, left)
    return rep


def _first_mismatch(lhs, rhs):
    for k in range(lhs.order + 1):
        a, b = lhs.coefficient(k), rhs.coefficient(k)
        if a != b and not (a - b).is_zero():
            return k
    return None


def deviations(n):
    """The deviations from the printed formulas at rank n that a verdict
    may name, in the order it lists them: (report kind, name, shifts).

    The kind is "ratio-hat" or a formula family and current, as
    "antipode-f"; the shifts go to that check's formula in place of the
    printed ones.  The uniform shift pattern is the identity on a raising
    hat, so only a lowering hat can be repaired by it.  The recentered
    subtractions read the subtracted antipodes at u + n/2 rather than u.
    """
    half_n = Fraction(n, 2)
    recentered = {"e_shift": 1 + half_n, "f_shift": half_n}
    return (
        ("ratio-hat", "op-1", {"op": -1}),
        ("ratio-hat", "uniform-shift-pattern", {"hat_pattern": 1}),
        ("antipode-f", "op-1", {"op": -1}),
        ("antipode-f", "uniform-hat-shifts", {"hat_pattern": 1}),
        ("antipode-h", "recentered-subtraction", recentered),
        ("antipode-h", "own-index-recentered-subtraction",
         dict(recentered, sub_index=1)),
    )


def _verdict(rep, label, kind, build, target, miss, prefix=""):
    """Match the printed form build({}) against target through the
    order of its context.

    When it misses, rep notes miss at the earliest failing degree, then,
    after prefix, the declared deviations of kind at rank rep.params["n"]
    whose build(shifts) matches target exactly.  One that holds
    downgrades the mismatch to a documented deviation.
    """
    got = build({})
    bad = _first_mismatch(got, target)
    repaired = []
    if bad is not None:
        rep.note(miss % bad)
        repaired = [name for k, name, shifts in deviations(rep.params["n"])
                    if k == kind
                    and _first_mismatch(build(shifts), target) is None]
        rep.note(prefix + ("repaired by: " + ", ".join(repaired) if repaired
                           else "no declared repair holds"))
    _series_match(rep, label, got, target, documented=bool(repaired))


def hat_ratio_check(n, order):
    """One-sided corner minor ratios against the hat composites.

    A printed form that misses gets the verdict of the declared
    "ratio-hat" deviations: a deviation's op moves the hat's operator
    shift, and its hat_pattern puts the chain in the uniform shift
    pattern.
    """
    ctx = Context(n, order, SL)
    frame = CurrentFrame(ctx)
    rep = Report("ratio-hat", n=n, order=order, gate="printed")
    for i in range(1, n):
        m = n - i
        c = Fraction(m - 2, 2)
        inv = leading_block_inverse(ctx, m)
        tail = tuple(range(i + 2, n + 1))
        up = quantum_minor(ctx, (i,) + tail, (i + 1,) + tail)
        down = quantum_minor(ctx, (i + 1,) + tail, (i,) + tail)
        for kind, label, lhs in (("e", "raise,i=%d" % i, up * inv),
                                 ("f", "lower,i=%d" % i, inv * down)):
            def image(shifts):
                spec = hat_spec(n, kind, m)
                if shifts.get("hat_pattern"):
                    spec = uniform_shifts(spec)
                return frame.apply_chain(spec, c + shifts.get("op", 0),
                                         (kind, m, c + 1))
            _verdict(rep, label, "ratio-hat", image, lhs,
                     label + ": earliest failing degree %d", label + ": ")
    return rep


# ---------------------------------------------------------------------------
# current coproduct formulas


DELTA_SLOTS = {
    "e": {"op_e": 0, "op_f": 1, "arg_e": 0, "arg_f": 1, "arg_pair": 0,
          "head_arg": 0},
    "f": {"op_e": 1, "op_f": 0, "arg_e": 1, "arg_f": 0, "arg_pair": 0,
          "head_arg": 0},
    "h": {"op_e": 1, "op_f_head": 0, "op_f_pow": 1, "arg_e": 1, "arg_f": 0,
          "arg_pair": 0, "head_f": 0, "head_e": 1, "sub_shift": 1},
}


def _proper_subsets(n, i):
    return [a for a in combinations(range(1, n + 1), i)
            if a != tuple(range(1, i + 1))]


def formula_delta(frame, kind, i, shifts=None):
    """Coproduct of a current from the closed operator formula.

    The shifts mapping moves individual spectral parameters off their
    printed defaults in DELTA_SLOTS.  The frame keeps each result, so
    the diagonal formula looks the raising and lowering ones up.
    """
    if kind not in DELTA_SLOTS:
        raise ValueError("unknown current kind %r" % (kind,))
    s = dict(DELTA_SLOTS[kind])
    s.update(shifts or {})
    return frame.memo(("delta", kind, i, tuple(sorted(s.items()))),
                      lambda: _build_delta(frame, kind, i, s))


def _build_delta(frame, kind, i, s):
    ctx = frame.ctx
    e_arg, f_arg = ("e", i, s["arg_e"]), ("f", i, s["arg_f"])
    powers = []

    def apply(sector, a, slot, arg, side="R"):
        return frame.apply_chain(composite_spec(sector, side, i, a), s[slot],
                                 arg)

    if kind in ("e", "f"):
        # mirror pair: "e" acts from the left and puts the current in the
        # right slot, "f" acts from the right and fills the left slot
        side = "L" if kind == "e" else "R"
        pair = ("g" if kind == "f" else "gt", i, s["arg_pair"])
        own = frame.current(kind, i).shift(s["head_arg"])
        one = Series.constant(ctx)
        heads = [(one, own, 1) if kind == "e" else (own, one, 1)]
        for a in _proper_subsets(ctx.n, i):
            left = apply("e", a, "op_e", e_arg, side)
            right = apply("f", a, "op_f", f_arg, side)
            powers.append((left, right, 1))
            heads.append((left, apply("f", a, "op_f", pair, side), 1)
                         if kind == "e"
                         else (apply("e", a, "op_e", pair, side), right, 1))
        geometric = (1 + outer_sum(ctx, powers)).invert()
        head = outer_sum(ctx, heads)
        return geometric * head if kind == "e" else head * geometric

    # at the printed slots the raising factors are the f formula's, which
    # the frame memo hands over
    pair = ("g", i, s["arg_pair"])
    heads = [(frame.current("f", i).shift(s["head_f"]),
              frame.current("e", i).shift(s["head_e"]), 1)]
    for a in _proper_subsets(ctx.n, i):
        powers.append((apply("e", a, "op_e", e_arg),
                       apply("f", a, "op_f_pow", f_arg), 1))
        heads.append((apply("e", a, "op_e", pair),
                       apply("f", a, "op_f_head", pair), 1))
    base = outer_sum(ctx, heads) * (1 + outer_sum(ctx, powers)).invert()
    sub = (formula_delta(frame, "f", i)
           * formula_delta(frame, "e", i).shift(s["sub_shift"]))
    return base - sub


def _formula_check(n, order, family, formula, transport):
    """Closed current formulas against a transported structure map.

    One report per current; a mismatch checks the declared deviations of
    its family and kind.
    """
    ctx = Context(n, order, SL)
    frame = CurrentFrame(ctx)
    reports = []
    for i in range(1, n):
        for kind in ("e", "f", "h"):
            rep = Report("%s-formula-%s%d" % (family, kind, i),
                         n=n, order=order, gate="printed")
            _verdict(rep, "%s%d" % (kind, i), "%s-%s" % (family, kind),
                     lambda shifts: formula(frame, kind, i, shifts=shifts),
                     transport(frame.current(kind, i)),
                     "earliest failing tensor degree: %d")
            reports.append(rep)
    return reports


def coproduct_formula_check(n, order):
    """Closed coproduct formulas against the transported coproduct."""
    return _formula_check(n, order, "coproduct", formula_delta, delta_series)


# ---------------------------------------------------------------------------
# current antipode and counit formulas


ANTIPODE_SLOTS = {
    "e": {"op": 0, "arg": 1, "den_op": 0, "den_arg": 0},
    "f": {"op": 0, "arg": 1, "den_op": 0, "den_arg": 0},
    "h": {"den_op": 0, "den_arg": 0, "num_op": 0, "num_arg": 0,
          "e_shift": 1, "f_shift": 0},
}


def formula_antipode(frame, kind, i, shifts=None):
    """Antipode of a current, centered at u + n/2, from the hat formulas.

    The shifts mapping moves spectral slots off their printed defaults
    in ANTIPODE_SLOTS, and two flags of the declared deviations change
    the form: hat_pattern puts the hat in the uniform shift pattern, and
    sub_index takes the diagonal formula's subtracted antipodes at index
    i rather than n - i.  The frame keeps the result, and inside it the
    denominator and each applied chain under the slots they read, so a
    deviation rebuilds only the pieces it changes.
    """
    if kind not in ANTIPODE_SLOTS:
        raise ValueError("unknown current kind %r" % (kind,))
    s = dict(ANTIPODE_SLOTS[kind])
    s.update(shifts or {})
    return frame.memo(("antipode", kind, i, tuple(sorted(s.items()))),
                      lambda: _build_antipode(frame, kind, i, s))


def _build_antipode(frame, kind, i, s):
    n = frame.ctx.n
    m = n - i
    # the e formula divides on the right by the g series, the f and h
    # formulas on the left by the g~ series
    side, pairing = ("R", "g") if kind == "e" else ("L", "gt")
    den_spec = composite_spec("h", side, m, tuple(range(i + 1, n + 1)))
    den_arg = (pairing, m, s["den_arg"])
    den = frame.memo(
        ("den", den_spec, s["den_op"], den_arg),
        lambda: frame.apply_chain(den_spec, s["den_op"], den_arg).invert())
    if kind in ("e", "f"):
        spec = hat_spec(n, kind, m)
        if s.get("hat_pattern"):
            spec = uniform_shifts(spec)
        num = frame.apply_chain(spec, s["op"], (kind, m, s["arg"]))
        return -(num * den) if kind == "e" else -(den * num)
    num = frame.apply_chain(
        composite_spec("h", "L", m, (i,) + tuple(range(i + 2, n + 1))),
        s["num_op"], (pairing, m, s["num_arg"]))
    half_n = Fraction(n, 2)
    idx = i if s.get("sub_index") else m
    se = formula_antipode(frame, "e", idx).shift(s["e_shift"] - half_n)
    sf = formula_antipode(frame, "f", idx).shift(s["f_shift"] - half_n)
    return den * num - se * sf


def antipode_formula_check(n, order):
    """Closed antipode formulas against the transported antipode."""
    half_n = Fraction(n, 2)
    return _formula_check(n, order, "antipode", formula_antipode,
                          lambda s: antipode_series(s).shift(half_n))


def counit_formula_check(n, order):
    """Counit of currents: raising/lowering vanish, diagonal is 1."""
    ctx = Context(n, order, SL)
    rep = Report("counit-currents", n=n, order=order, mode=SL)
    for i in range(1, n):
        for kind in ("e", "f", "h"):
            s = current(ctx, kind, i)
            for k in range(order + 1):
                want = 1 if kind == "h" and k == 0 else 0
                got = counit_element(s.coefficient(k))
                rep.tally()
                if got != want:
                    rep.record("%s%d,k=%d" % (kind, i, k),
                               unit(ctx) * (got - want))
    return rep


# ---------------------------------------------------------------------------
# rank-one closed forms


SL2_DELTA_SLOTS = {
    "e": {"head_e": 0, "pow_e": 0, "pow_f": 1, "tail_h": 0},
    "f": {"head_f": 0, "pow_f": 0, "pow_e": 1, "head_h": 0},
    "h": {"head_h": 0, "pow_e": 1, "pow_f": 1, "tail_h": 0},
}


def sl2_closed_delta(frame, kind, shifts=None):
    """Rank-one coproducts through G = (1 + X)^{-1}, X = e (x) f.

    With G = sum_m (-X)^m: De = 1 (x) e + G (e (x) h),
    Df = f (x) 1 + (h (x) f) G and Dh = (h (x) 1) G^2 (1 (x) h), since
    the terms of G^2 are (k+1) (-X)^k; X has no u^0 term, so the inverse
    is exactly that sum through the context's order.  Each current is
    read at its spectral slot of SL2_DELTA_SLOTS, moved by shifts.
    """
    if kind not in SL2_DELTA_SLOTS:
        raise ValueError("unknown current kind %r" % (kind,))
    s = dict(SL2_DELTA_SLOTS[kind])
    s.update(shifts or {})

    def at(name, slot):
        return frame.current(name, 1).shift(s[slot])

    one = Series.constant(frame.ctx)
    e = at("e", "pow_e")
    geometric = (1 + series_outer(e, at("f", "pow_f"))).invert()
    if kind == "e":
        return (series_outer(one, at("e", "head_e"))
                + geometric * series_outer(e, at("h", "tail_h")))
    if kind == "f":
        return (series_outer(at("f", "head_f"), one)
                + series_outer(at("h", "head_h"), at("f", "pow_f"))
                * geometric)
    return (series_outer(at("h", "head_h"), one) * geometric * geometric
            * series_outer(one, at("h", "tail_h")))


def sl2_closed_antipode(frame, kind, subtraction="recentered"):
    """Rank-one antipodes, centered at u + 1.

    The diagonal case subtracts a product of raising/lowering antipode
    images; "recentered" evaluates them at the centered argument (the
    reading the engine verifies), "printed" at the raw one.
    """
    e1 = frame.current("e", 1)
    f1 = frame.current("f", 1)
    if kind == "e":
        return -(e1.shift(1) * frame.g(1).invert())
    if kind == "f":
        return -(frame.g_tilde(1).invert() * f1.shift(1))
    if kind == "h":
        se = sl2_closed_antipode(frame, "e")
        sf = sl2_closed_antipode(frame, "f")
        if subtraction == "recentered":
            pair = se.shift(1) * sf
        else:
            pair = se * sf.shift(-1)
        return frame.g_tilde(1).invert() - pair
    raise ValueError("unknown current kind %r" % (kind,))


def sl2_closed_check(order=4):
    """Rank-one closed coproducts and antipodes against the pullback.

    The diagonal antipode display is checked in both readings: the
    as-printed subtraction (documented when it fails) and the
    recentered one, which must match exactly.
    """
    ctx = Context(2, order, SL)
    frame = CurrentFrame(ctx)
    reports = []
    for kind in ("e", "f", "h"):
        rep = Report("sl2-closed-delta-" + kind, order=order)
        _series_match(rep, kind, sl2_closed_delta(frame, kind),
                      delta_series(frame.current(kind, 1)))
        reports.append(rep)
    for kind in ("e", "f", "h"):
        rep = Report("sl2-closed-antipode-" + kind, order=order)
        target = antipode_series(frame.current(kind, 1)).shift(1)
        if kind == "h":
            printed = sl2_closed_antipode(frame, kind, "printed")
            bad = _first_mismatch(printed, target)
            if bad is not None:
                rep.note("as-printed subtraction fails first at degree %d; "
                         "verified with both arguments recentered by +1" % bad)
                _series_match(rep, "h-printed", printed, target,
                              documented=True)
        _series_match(rep, kind, sl2_closed_antipode(frame, kind), target)
        reports.append(rep)
    return reports


def sl2_mutation_check(order=4):
    """Every single spectral-shift perturbation must break the match."""
    ctx = Context(2, order, SL)
    frame = CurrentFrame(ctx)
    target = delta_series(frame.current("e", 1))
    rep = Report("sl2-mutation-sensitivity", order=order)
    base = sl2_closed_delta(frame, "e")
    if _first_mismatch(base, target) is not None:
        rep.record("unperturbed", unit(ctx))
        return rep
    rep.tally()
    for name, val in SL2_DELTA_SLOTS["e"].items():
        for delta in (1, -1):
            mutated = sl2_closed_delta(frame, "e", {name: val + delta})
            bad = _first_mismatch(mutated, target)
            rep.tally()
            if bad is None:
                rep.record("%s%+d" % (name, delta), unit(ctx))
            else:
                rep.note("%s%+d fails first at degree %d" % (name, delta, bad))
    return rep


# ---------------------------------------------------------------------------
# rank-two closed forms


def sl3_closed_delta(frame, kind, i=1, head_e_shift=0):
    """Rank-two coproducts with a single nearest-neighbour correction:
    each pair a (x) b of a formula is corrected by -[e_j, a] (x) [f_j, b]
    at the other simple root j.

    head_e_shift moves the spectral argument of the raising current in
    the leading term of the diagonal formula (0 as written; 1 matches
    the general formula).
    """
    if kind not in ("e", "f", "h"):
        raise ValueError("unknown current kind %r" % (kind,))
    j = 3 - i
    ctx = frame.ctx
    one = Series.constant(ctx)
    e1 = frame.current("e", i)
    f1 = frame.current("f", i)

    def pair(a, b):  # the outer terms of a (x) b - [e_j, a] (x) [f_j, b]
        return [(a, b, 1),
                (_bracket_series(frame.root("e", j, j + 1), 1, a),
                 _bracket_series(frame.root("f", j, j + 1), 1, b), -1)]

    if kind == "e":
        head = outer_sum(ctx, [(one, e1, 1)] + pair(e1, frame.g_tilde(i)))
        return (1 + outer_sum(ctx, pair(e1, f1.shift(1)))).invert() * head
    geometric = (1 + outer_sum(ctx, pair(e1.shift(1), f1))).invert()
    if kind == "f":
        head = outer_sum(ctx, [(f1, one, 1)] + pair(frame.g(i), f1))
        return head * geometric
    head = outer_sum(ctx, [(f1, e1.shift(head_e_shift), 1)]
                     + pair(frame.g(i), frame.g(i)))
    sub = (sl3_closed_delta(frame, "f", i)
           * sl3_closed_delta(frame, "e", i).shift(1))
    return head * geometric - sub


def sl3_diagonal_status(order=3):
    """Adjudicate the rank-two diagonal head's spectral argument.

    The two readings of the leading raising argument agree through
    order 2 and separate at order 3; the report records the earliest
    failing degree of each reading against the pullback.
    """
    ctx = Context(3, order, SL)
    frame = CurrentFrame(ctx)
    rep = Report("sl3-diagonal-status", order=order)
    for i in (1, 2):
        target = delta_series(frame.current("h", i))
        outcomes = {}
        for shift in (0, 1):
            cand = sl3_closed_delta(frame, "h", i, head_e_shift=shift)
            outcomes[shift] = _first_mismatch(cand, target)
            rep.tally()
        def word(out):
            return "matches" if out is None else "fails first at degree %d" % out
        rep.note("i=%d: written head argument u %s; recentered u+1 %s"
                 % (i, word(outcomes[0]), word(outcomes[1])))
        if outcomes[0] is not None and outcomes[1] is not None:
            rep.record("i=%d" % i)
        elif outcomes[0] is not None:
            k = outcomes[0]
            written = sl3_closed_delta(frame, "h", i, head_e_shift=0)
            rep.document("i=%d,k=%d" % (i, k),
                         written.coefficient(k) - target.coefficient(k))
    return rep


def sl3_closed_check(order=2):
    """Rank-two closed coproducts against the pullback, both root choices.

    The raising and lowering formulas must match exactly.  The diagonal
    formula is compared as written and with the repaired spectral shift;
    the report documents the earliest failing degree of the written form.
    """
    ctx = Context(3, order, SL)
    frame = CurrentFrame(ctx)
    reports = []
    for i in (1, 2):
        for kind in ("e", "f"):
            rep = Report("sl3-closed-delta-%s%d" % (kind, i), order=order)
            _series_match(rep, kind, sl3_closed_delta(frame, kind, i),
                          delta_series(frame.current(kind, i)))
            reports.append(rep)
        rep = Report("sl3-closed-delta-h%d" % i, order=order)
        target = delta_series(frame.current("h", i))
        written = sl3_closed_delta(frame, "h", i, head_e_shift=0)
        bad = _first_mismatch(written, target)
        if bad is None:
            rep.note("written diagonal form matches through order %d" % order)
            _series_match(rep, "h-written", written, target)
        else:
            rep.note("written diagonal form fails first at degree %d" % bad)
            _series_match(rep, "h-written", written, target, documented=True)
            repaired = sl3_closed_delta(frame, "h", i, head_e_shift=1)
            _series_match(rep, "h-repaired", repaired, target)
            if rep.passed:
                rep.note("repaired by shifting the leading raising argument by +1")
        reports.append(rep)
    return reports
