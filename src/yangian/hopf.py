"""Hopf structure maps and their expression on the current generators.

The ground truth lives on the matrix generators: the coproduct splits
T_{i,j}(u) along an intermediate index, the antipode inverts the
matrix series, and the counit keeps the constant term.  Everything
else here transports that structure to the currents: generalized
adjoint operators built from degree-one root vectors, their composites,
closed coproduct/antipode formulas for the currents, and checkers that
compare each formula against the transported (pullback) maps.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
import random

from .algebra import (
    GL,
    SL,
    Context,
    Element,
    Tensor,
    ZERO,
    commutator,
    from_words,
    generator,
    unit,
    zero,
)
from .drinfeld import current, root_element
from .report import Report
from .rtt import quantum_minor, reflected_minor, t_matrix, t_star_matrix
from .series import Series, geometric_unit_sum, series_outer, slot_embed

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# structural maps on elements


@lru_cache(maxsize=None)
def _delta_symbol(ctx, sym):
    """Coproduct of one generator symbol as a tensor square."""
    k, i, j = sym
    total = Tensor.zero(ctx, 2)
    for a in range(1, ctx.n + 1):
        for p in range(k + 1):
            q = k - p
            if p == 0:
                if a != i:
                    continue
                left = unit(ctx)
            else:
                left = generator(ctx, i, a, p)
            if q == 0:
                if a != j:
                    continue
                right = unit(ctx)
            else:
                right = generator(ctx, a, j, q)
            total = total + Tensor.of_elements(left, right)
    return total


@lru_cache(maxsize=None)
def _delta_word(ctx, word):
    if not word:
        return Tensor.unit(ctx, 2)
    if len(word) == 1:
        return _delta_symbol(ctx, word[0])
    return _delta_word(ctx, word[:-1]) * _delta_symbol(ctx, word[-1])


def delta_element(x):
    """Coproduct of an element, as a tensor square."""
    total = Tensor.zero(x.ctx, 2)
    for w, c in x.terms.items():
        total = total + _delta_word(x.ctx, w) * c
    return total


@lru_cache(maxsize=None)
def _inverse_matrix(ctx):
    return t_matrix(ctx, ctx.max_degree).inverse()


@lru_cache(maxsize=None)
def _antipode_word(ctx, word):
    if not word:
        return unit(ctx)
    k, i, j = word[-1]
    image = _inverse_matrix(ctx).entry(i, j).coefficient(k)
    return image * _antipode_word(ctx, word[:-1])


def antipode_element(x):
    """Antipode of an element (an anti-morphism on products)."""
    total = zero(x.ctx)
    for w, c in x.terms.items():
        total = total + _antipode_word(x.ctx, w) * c
    return total


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


def delta_on_slot(t, slot):
    """Apply the coproduct inside one slot, raising the arity by one."""
    out = {}
    for key, c in t.terms.items():
        for pair, c2 in _delta_word(t.ctx, key[slot]).terms.items():
            new = key[:slot] + pair + key[slot + 1:]
            v = out.get(new, ZERO) + c * c2
            if v:
                out[new] = v
            elif new in out:
                del out[new]
    return Tensor(t.ctx, t.arity + 1, out)


def counit_on_slot(t, slot):
    """Contract one slot with the counit, lowering the arity by one."""
    out = {}
    for key, c in t.terms.items():
        if key[slot] != ():
            continue
        new = key[:slot] + key[slot + 1:]
        v = out.get(new, ZERO) + c
        if v:
            out[new] = v
        elif new in out:
            del out[new]
    if t.arity == 2:
        return Element._trusted(t.ctx, {k[0]: c for k, c in out.items()})
    return Tensor(t.ctx, t.arity - 1, out)


def antipode_on_slot(t, slot):
    """Apply the antipode inside one slot."""
    out = {}
    for key, c in t.terms.items():
        for w, c2 in _antipode_word(t.ctx, key[slot]).terms.items():
            new = key[:slot] + (w,) + key[slot + 1:]
            v = out.get(new, ZERO) + c * c2
            if v:
                out[new] = v
            elif new in out:
                del out[new]
    return Tensor(t.ctx, t.arity, out)


def multiply_slots(t):
    """Multiply the two slots of a tensor square into one element."""
    if t.arity != 2:
        raise ValueError("tensor square expected")
    raw = {}
    for (wl, wr), c in t.terms.items():
        raw[wl + wr] = raw.get(wl + wr, ZERO) + c
    return from_words(t.ctx, raw)


# ---------------------------------------------------------------------------
# axioms


def _axiom_targets(ctx, order, include_currents=True):
    targets = []
    for i in range(1, ctx.n + 1):
        for j in range(1, ctx.n + 1):
            for k in range(1, order + 1):
                targets.append(("T[%d](%d,%d)" % (k, i, j),
                                generator(ctx, i, j, k)))
    if include_currents:
        for i in range(1, ctx.n):
            for kind in ("e", "f", "h"):
                s = current(ctx, kind, i, order)
                for k in range(1, order + 1):
                    targets.append(("%s%d[%d]" % (kind, i, k - 1),
                                    s.coefficient(k)))
    return targets


def coassociativity_check(n, order, mode=SL, include_currents=True):
    """(delta x id) delta == (id x delta) delta on generators and currents."""
    ctx = Context(n, order, mode)
    rep = Report("coassociativity", n=n, order=order, mode=mode)
    for label, x in _axiom_targets(ctx, order, include_currents):
        d = delta_element(x)
        rep.check(label, delta_on_slot(d, 0), delta_on_slot(d, 1))
    return rep


def counit_axiom_check(n, order, mode=SL, include_currents=True):
    """Counit contractions of the coproduct recover the element."""
    ctx = Context(n, order, mode)
    rep = Report("counit-axiom", n=n, order=order, mode=mode)
    for label, x in _axiom_targets(ctx, order, include_currents):
        d = delta_element(x)
        rep.check(label + ":left", counit_on_slot(d, 0), x)
        rep.check(label + ":right", counit_on_slot(d, 1), x)
    return rep


def antipode_axiom_check(n, order, mode=SL, include_currents=True):
    """m(S x id)delta and m(id x S)delta collapse to the counit."""
    ctx = Context(n, order, mode)
    rep = Report("antipode-axiom", n=n, order=order, mode=mode)
    for label, x in _axiom_targets(ctx, order, include_currents):
        d = delta_element(x)
        want = unit(ctx) * counit_element(x)
        rep.check(label + ":left", multiply_slots(antipode_on_slot(d, 0)), want)
        rep.check(label + ":right", multiply_slots(antipode_on_slot(d, 1)), want)
    return rep


def hopf_axioms_check(n, order, mode=SL, include_currents=True):
    return [
        coassociativity_check(n, order, mode, include_currents),
        counit_axiom_check(n, order, mode, include_currents),
        antipode_axiom_check(n, order, mode, include_currents),
    ]


def _random_element(rng, ctx, terms, degree_cap):
    total = zero(ctx)
    for _ in range(terms):
        word = []
        degree = 0
        for _ in range(rng.randint(1, max(1, degree_cap))):
            room = degree_cap - degree
            if room < 1:
                break
            k = rng.randint(1, room)
            degree += k
            word.append((k, rng.randint(1, ctx.n), rng.randint(1, ctx.n)))
        total = total + from_words(ctx, {tuple(word): Fraction(rng.randint(-3, 3))})
    return total


def structure_morphism_check(n, order, mode=SL, seed=0, samples=12):
    """Coproduct/counit are morphisms, the antipode an anti-morphism.

    Factors are drawn so the combined degree stays within the context
    bound, where the truncated product agrees with the exact one.
    """
    ctx = Context(n, order, mode)
    rng = random.Random(seed)
    rep = Report("structure-morphisms", n=n, order=order, mode=mode, seed=seed)
    if ctx.max_degree < 2:
        rep.note("degree bound %d leaves no room for two factors of "
                 "degree >= 1; sampling skipped" % ctx.max_degree)
        return rep
    for t in range(samples):
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


def minor_coproduct_check(n, order, mode=GL, max_size=None):
    """The coproduct splits a minor along an intermediate index set."""
    ctx = Context(n, order, mode)
    rep = Report("minor-coproduct", n=n, order=order, mode=mode)
    top = max_size or n
    for m in range(1, top + 1):
        for rows in _index_subsets(n, m):
            for cols in _index_subsets(n, m):
                lhs = delta_series(quantum_minor(ctx, rows, cols, order))
                rhs = None
                for mid in _index_subsets(n, m):
                    term = series_outer(quantum_minor(ctx, rows, mid, order),
                                        quantum_minor(ctx, mid, cols, order))
                    rhs = term if rhs is None else rhs + term
                for k in range(order + 1):
                    rep.check("m=%d,%s|%s,k=%d" % (m, rows, cols, k),
                              lhs.coefficient(k), rhs.coefficient(k))
    return rep


def minor_counit_check(n, order, mode=GL):
    """The counit of a minor is 1 on equal index sets, else 0."""
    ctx = Context(n, order, mode)
    rep = Report("minor-counit", n=n, order=order, mode=mode)
    for m in range(1, n + 1):
        for rows in _index_subsets(n, m):
            for cols in _index_subsets(n, m):
                s = quantum_minor(ctx, rows, cols, order)
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
    s = quantum_minor(ctx, full, full, order)
    lhs = delta_series(s)
    rhs = series_outer(s, s)
    rep = Report("qdet-grouplike", n=n, order=order)
    for k in range(order + 1):
        rep.check("k=%d" % k, lhs.coefficient(k), rhs.coefficient(k))
    return rep


def minor_antipode_sign_check(n, order, mode=GL):
    """Empirical sign relating S(minor) to the reflected-matrix minor.

    The antipode of an m x m minor agrees with the reflected minor up
    to an overall sign depending only on m; the report records the
    observed exponent pattern.
    """
    ctx = Context(n, order, mode)
    rep = Report("minor-antipode-sign", n=n, order=order, mode=mode)
    star = t_star_matrix(ctx, order)
    signs = {}
    for m in range(1, n + 1):
        seen = None
        for rows in _index_subsets(n, m):
            for cols in _index_subsets(n, m):
                pull = antipode_series(quantum_minor(ctx, rows, cols, order))
                cand = reflected_minor(star, rows, cols, m - 1)
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
    """Shared cache of currents and pairing series over one context."""

    def __init__(self, ctx, order):
        self.ctx = ctx
        self.order = order
        self._pairings = {}

    def current(self, kind, i):
        return current(self.ctx, kind, i, self.order)

    def root(self, kind, low, high):
        return root_element(self.ctx, kind, low, high)

    def g(self, i):
        """Diagonal plus lowering*shifted-raising combination."""
        key = ("g", i)
        if key not in self._pairings:
            self._pairings[key] = (self.current("h", i)
                                   + self.current("f", i)
                                   * self.current("e", i).shift(1))
        return self._pairings[key]

    def g_tilde(self, i):
        """Diagonal plus shifted-lowering*raising combination."""
        key = ("gt", i)
        if key not in self._pairings:
            self._pairings[key] = (self.current("h", i)
                                   + self.current("f", i).shift(1)
                                   * self.current("e", i))
        return self._pairings[key]

    def constant_one(self, model):
        return Series.constant(self.ctx, model.order, arity=model.arity)


def _gate_fires(alpha, i, j, gate):
    if gate == "printed":
        return i <= alpha < j
    if gate == "narrow":
        return i <= alpha < j - 1
    raise ValueError("unknown gate variant %r" % (gate,))


def _bracket_map(root, sign):
    def act(el):
        b = commutator(root, el)
        return b if sign > 0 else -b
    return act


def elementary_raising(frame, side, alpha, i, j, shift, gate="printed"):
    """Adjoint action of the raising root (i, j), with spectral correction.

    side "L" multiplies the correction current from the left of the
    argument, side "R" from the right.  The correction switches on for
    i <= alpha < j ("printed") or i <= alpha < j-1 ("narrow").
    """
    if i > j:
        raise ValueError("raising operator needs i <= j")
    root = None if i == j else frame.root("e", i, j)
    corr = None
    if _gate_fires(alpha, i, j, gate):
        inner = frame.current("e", alpha).shift(shift)
        if alpha + 1 != j:
            inner = inner.map_coeffs(_bracket_map(frame.root("e", alpha + 1, j), 1))
        if i != alpha:
            inner = inner.map_coeffs(_bracket_map(frame.root("e", i, alpha), -1))
        corr = inner

    def act(x):
        out = x if root is None else x.map_coeffs(_bracket_map(root, 1))
        if corr is not None:
            out = out + (corr * x if side == "L" else x * corr)
        return out

    return act


def elementary_lowering(frame, side, alpha, j, i, shift, gate="printed"):
    """Adjoint action of the lowering root (j, i), with spectral correction."""
    if j < i:
        raise ValueError("lowering operator needs j >= i")
    root = None if i == j else frame.root("f", i, j)
    corr = None
    if _gate_fires(alpha, i, j, gate):
        inner = frame.current("f", alpha).shift(shift)
        if j != alpha + 1:
            inner = inner.map_coeffs(_bracket_map(frame.root("f", alpha + 1, j), -1))
        if alpha != i:
            inner = inner.map_coeffs(_bracket_map(frame.root("f", i, alpha), 1))
        corr = inner

    def act(x):
        out = x if root is None else x.map_coeffs(_bracket_map(root, -1))
        if corr is not None:
            out = out + (corr * x if side == "L" else x * corr)
        return out

    return act


def elementary_diagonal(frame, side, alpha, i, j, shift, gate="printed"):
    """Unit plus raising-after-lowering step used by diagonal composites."""
    if i > j:
        return frame.constant_one
    if i == j:
        return lambda x: x
    if side == "L":
        e_op = elementary_raising(frame, side, alpha, i, j, shift, gate)
        f_op = elementary_lowering(frame, side, alpha, j, i, shift + 1, gate)
    else:
        e_op = elementary_raising(frame, side, alpha, i, j, shift + 1, gate)
        f_op = elementary_lowering(frame, side, alpha, j, i, shift, gate)
    return lambda x: x + e_op(f_op(x))


def _chain(ops):
    def act(x):
        y = x
        for op in reversed(ops):
            y = op(y)
        return y
    return act


def composite_raising(frame, side, alpha, ks, shift, gate="printed"):
    """Ordered product of elementary raising actions over an index set."""
    ks = tuple(ks)
    if not ks:
        return frame.constant_one
    m = len(ks)
    ops = [elementary_raising(frame, side, alpha, p, ks[p - 1], shift, gate)
           for p in range(1, m)]
    ops.append(elementary_raising(frame, side, alpha, m + 1, ks[-1], shift, gate))
    return _chain(ops)


def composite_lowering(frame, side, alpha, ks, shift, gate="printed"):
    """Ordered product of elementary lowering actions over an index set."""
    ks = tuple(ks)
    if not ks:
        return frame.constant_one
    m = len(ks)
    ops = [elementary_lowering(frame, side, alpha, ks[p - 1], p, shift, gate)
           for p in range(1, m)]
    ops.append(elementary_lowering(frame, side, alpha, ks[-1], m + 1, shift, gate))
    return _chain(ops)


def composite_diagonal(frame, side, alpha, ks, shift, gate="printed"):
    """Ordered product of elementary diagonal actions over an index set."""
    ks = tuple(ks)
    if not ks:
        return frame.constant_one
    m = len(ks)
    ops = [elementary_diagonal(frame, side, alpha, p, ks[p - 1], shift, gate)
           for p in range(1, m)]
    ops.append(elementary_diagonal(frame, side, alpha, m + 1, ks[-1], shift, gate))
    return _chain(ops)


def hat_raising(frame, m, shift, gate="printed"):
    """Raising-sector composite used by the antipode formulas."""
    n = frame.ctx.n
    if not 1 <= m <= n - 1:
        raise ValueError("index out of range")
    if m == 1:
        ops = [elementary_raising(frame, "R", 1, 2, n, shift + 1, gate),
               elementary_lowering(frame, "R", 1, n - 1, 1, shift, gate)]
        return _chain(ops)
    ops = [elementary_raising(frame, "R", m, 1, n - m + 1, shift + 1, gate),
           elementary_lowering(frame, "R", m, n - m, 1, shift, gate)]
    ops.extend(elementary_diagonal(frame, "R", m, p, n - m + p, shift, gate)
               for p in range(2, m))
    ops.append(elementary_raising(frame, "R", m, m + 1, n, shift + 1, gate))
    ops.append(elementary_lowering(frame, "R", m, n, m, shift, gate))
    return _chain(ops)


def hat_lowering(frame, m, shift, gate="printed", pattern="printed"):
    """Lowering-sector composite used by the antipode formulas.

    pattern "printed" follows the text: the single-step case puts the
    extra +1 on the lowering factor, the composite case on the raising
    factors.  "uniform" extends the single-step pattern to every size.
    """
    n = frame.ctx.n
    if not 1 <= m <= n - 1:
        raise ValueError("index out of range")
    if m == 1:
        ops = [elementary_raising(frame, "L", 1, 1, n - 1, shift, gate),
               elementary_lowering(frame, "L", 1, n, 2, shift + 1, gate)]
        return _chain(ops)
    up, low = (shift + 1, shift) if pattern == "printed" else (shift, shift + 1)
    ops = [elementary_raising(frame, "L", m, 1, n - m, up, gate),
           elementary_lowering(frame, "L", m, n - m + 1, 1, low, gate)]
    ops.extend(elementary_diagonal(frame, "L", m, p, n - m + p, shift, gate)
               for p in range(2, m))
    ops.append(elementary_raising(frame, "L", m, m, n, up, gate))
    ops.append(elementary_lowering(frame, "L", m, n, m + 1, low, gate))
    return _chain(ops)


# ---------------------------------------------------------------------------
# minor-ratio identities behind the current formulas


def _leading(ctx, i, order):
    rows = tuple(range(1, i + 1))
    return quantum_minor(ctx, rows, rows, order)


def _series_match(rep, label, lhs, rhs, upto, documented=False):
    for k in range(upto + 1):
        if documented:
            rep.tally()
            diff = lhs.coefficient(k) - rhs.coefficient(k)
            if not diff.is_zero():
                rep.document("%s,k=%d" % (label, k), diff)
        else:
            rep.check("%s,k=%d" % (label, k),
                      lhs.coefficient(k), rhs.coefficient(k))


def ratio_identities_check(n, order, gate="printed", families=None):
    """Minor ratios against composite raising/lowering images.

    Eight families: each pairs a one-sided minor ratio with a composite
    operator applied to a current or to one of the pairing series.
    """
    ctx = Context(n, order, SL)
    frame = CurrentFrame(ctx, order)
    wanted = families or ("raise-left", "raise-right", "lower-left",
                          "lower-right", "pair-raise-left", "pair-raise-right",
                          "pair-lower-left", "pair-lower-right")
    reports = []
    for fam in wanted:
        rep = Report("ratio-" + fam, n=n, order=order, gate=gate)
        for i in range(1, n):
            inv = _leading(ctx, i, order).invert()
            ei = frame.current("e", i)
            fi = frame.current("f", i)
            low = Fraction(i - 2, 2)
            high = Fraction(i, 2)
            rows_mid = tuple(range(1, i)) + (i + 1,)
            for a in combinations(range(1, n + 1), i):
                if a == tuple(range(1, i + 1)):
                    continue
                label = "i=%d,a=%s" % (i, a)
                if fam == "raise-left":
                    lhs = inv * quantum_minor(ctx, tuple(range(1, i + 1)), a, order)
                    op = composite_raising(frame, "L", i, a, low, gate)
                    rhs = op(ei.shift(low))
                elif fam == "raise-right":
                    lhs = quantum_minor(ctx, tuple(range(1, i + 1)), a, order) * inv
                    op = composite_raising(frame, "R", i, a, high, gate)
                    rhs = op(ei.shift(high))
                elif fam == "lower-left":
                    lhs = inv * quantum_minor(ctx, a, tuple(range(1, i + 1)), order)
                    op = composite_lowering(frame, "L", i, a, high, gate)
                    rhs = op(fi.shift(high))
                elif fam == "lower-right":
                    lhs = quantum_minor(ctx, a, tuple(range(1, i + 1)), order) * inv
                    op = composite_lowering(frame, "R", i, a, low, gate)
                    rhs = op(fi.shift(low))
                elif fam == "pair-raise-left":
                    lhs = inv * quantum_minor(ctx, rows_mid, a, order)
                    op = composite_raising(frame, "L", i, a, low, gate)
                    rhs = op(frame.g_tilde(i).shift(low))
                elif fam == "pair-raise-right":
                    lhs = quantum_minor(ctx, rows_mid, a, order) * inv
                    op = composite_raising(frame, "R", i, a, high, gate)
                    rhs = op(frame.g(i).shift(low))
                elif fam == "pair-lower-left":
                    lhs = inv * quantum_minor(ctx, a, rows_mid, order)
                    op = composite_lowering(frame, "L", i, a, high, gate)
                    rhs = op(frame.g_tilde(i).shift(low))
                else:
                    lhs = quantum_minor(ctx, a, rows_mid, order) * inv
                    op = composite_lowering(frame, "R", i, a, low, gate)
                    rhs = op(frame.g(i).shift(low))
                _series_match(rep, label, lhs, rhs, order)
        reports.append(rep)
    return reports


def diagonal_ratio_check(n, order, gate="printed"):
    """Two-sided diagonal minor ratios against diagonal composites."""
    ctx = Context(n, order, SL)
    frame = CurrentFrame(ctx, order)
    rep = Report("ratio-diagonal", n=n, order=order, gate=gate)
    for i in range(1, n):
        m = n - i
        c = Fraction(m - 2, 2)
        inv = _leading(ctx, m, order).invert()
        for j in range(1, i + 2):
            ks = (j,) + tuple(range(i + 2, n + 1))
            block = quantum_minor(ctx, ks, ks, order)
            op_r = composite_diagonal(frame, "R", m, ks, c, gate)
            _series_match(rep, "right,i=%d,j=%d" % (i, j),
                          block * inv, op_r(frame.g(m).shift(c)), order)
            op_l = composite_diagonal(frame, "L", m, ks, c, gate)
            _series_match(rep, "left,i=%d,j=%d" % (i, j),
                          inv * block, op_l(frame.g_tilde(m).shift(c)), order)
    return rep


def hat_ratio_check(n, order, gate="printed", diagnose=True):
    """One-sided corner minor ratios against the hat composites.

    When a written form misses, spectral-shift and shift-pattern variants
    of the hat composite are probed; an exact repair downgrades the
    mismatch to a documented deviation.
    """
    ctx = Context(n, order, SL)
    frame = CurrentFrame(ctx, order)
    rep = Report("ratio-hat", n=n, order=order, gate=gate)
    for i in range(1, n):
        m = n - i
        c = Fraction(m - 2, 2)
        inv = _leading(ctx, m, order).invert()
        tail = tuple(range(i + 2, n + 1))
        up = quantum_minor(ctx, (i,) + tail, (i + 1,) + tail, order)
        down = quantum_minor(ctx, (i + 1,) + tail, (i,) + tail, order)
        arg_e = frame.current("e", m).shift(c + 1)
        arg_f = frame.current("f", m).shift(c + 1)
        for label, lhs, got in (
            ("raise,i=%d" % i, up * inv,
             hat_raising(frame, m, c, gate)(arg_e)),
            ("lower,i=%d" % i, inv * down,
             hat_lowering(frame, m, c, gate)(arg_f)),
        ):
            bad = _first_mismatch(got, lhs, order)
            repaired = []
            if bad is not None:
                rep.note("%s: earliest failing degree %d" % (label, bad))
                if diagnose:
                    for name, (d_op, d_arg, pattern) in {
                        "op-1": (-1, 0, "printed"),
                        "arg-1": (0, -1, "printed"),
                        "uniform-shift-pattern": (0, 0, "uniform"),
                    }.items():
                        if label.startswith("raise") and pattern != "printed":
                            continue
                        cand = (hat_raising(frame, m, c + d_op, gate)
                                if label.startswith("raise") else
                                hat_lowering(frame, m, c + d_op, gate,
                                             pattern))(
                            frame.current(
                                "e" if label.startswith("raise") else "f",
                                m).shift(c + 1 + d_arg))
                        if _first_mismatch(cand, lhs, order) is None:
                            repaired.append(name)
                    rep.note("%s: %s" % (
                        label, "repaired by: " + ", ".join(repaired)
                        if repaired else "no shift repair found"))
            _series_match(rep, label, got, lhs, order,
                          documented=bool(repaired))
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


def formula_delta(frame, kind, i, shifts=None, gate="printed",
                  f_head_pairing="g"):
    """Coproduct of a current from the closed operator formula.

    The shifts mapping perturbs individual spectral parameters around
    their written defaults, which the diagnosis helpers use to locate
    misprints.  f_head_pairing selects which pairing series feeds the
    head of the lowering-current formula.
    """
    if kind not in DELTA_SLOTS:
        raise ValueError("unknown current kind %r" % (kind,))
    s = dict(DELTA_SLOTS[kind])
    s.update(shifts or {})
    n = frame.ctx.n
    subsets = _proper_subsets(n, i)
    ei = frame.current("e", i)
    fi = frame.current("f", i)

    if kind == "e":
        def eop(a):
            return composite_raising(frame, "L", i, a, s["op_e"], gate)

        def fop(a):
            return composite_lowering(frame, "L", i, a, s["op_f"], gate)

        e_arg = ei.shift(s["arg_e"])
        f_arg = fi.shift(s["arg_f"])
        pair = frame.g_tilde(i).shift(s["arg_pair"])
        power = None
        head = slot_embed(ei.shift(s["head_arg"]), 2, 1)
        for a in subsets:
            left = eop(a)(e_arg)
            term = series_outer(left, fop(a)(f_arg))
            power = term if power is None else power + term
            head = head + series_outer(left, fop(a)(pair))
        return geometric_unit_sum(-power) * head

    if kind == "f":
        def eop(a):
            return composite_raising(frame, "R", i, a, s["op_e"], gate)

        def fop(a):
            return composite_lowering(frame, "R", i, a, s["op_f"], gate)

        pairing = frame.g(i) if f_head_pairing == "g" else frame.g_tilde(i)
        pair = pairing.shift(s["arg_pair"])
        e_arg = ei.shift(s["arg_e"])
        f_arg = fi.shift(s["arg_f"])
        power = None
        head = slot_embed(fi.shift(s["head_arg"]), 2, 0)
        for a in subsets:
            power_term = series_outer(eop(a)(e_arg), fop(a)(f_arg))
            power = power_term if power is None else power + power_term
            head = head + series_outer(eop(a)(pair), fop(a)(f_arg))
        return head * geometric_unit_sum(-power)

    if kind == "h":
        def eop(a):
            return composite_raising(frame, "R", i, a, s["op_e"], gate)

        def fop(a, shift):
            return composite_lowering(frame, "R", i, a, shift, gate)

        pair = frame.g(i).shift(s["arg_pair"])
        e_arg = ei.shift(s["arg_e"])
        f_arg = fi.shift(s["arg_f"])
        power = None
        head = series_outer(fi.shift(s["head_f"]), ei.shift(s["head_e"]))
        for a in subsets:
            term = series_outer(eop(a)(e_arg), fop(a, s["op_f_pow"])(f_arg))
            power = term if power is None else power + term
            head = head + series_outer(eop(a)(pair), fop(a, s["op_f_head"])(pair))
        base = head * geometric_unit_sum(-power)
        sub = (formula_delta(frame, "f", i, gate=gate)
               * formula_delta(frame, "e", i, gate=gate).shift(s["sub_shift"]))
        return base - sub

    raise ValueError("unknown current kind %r" % (kind,))


def _first_mismatch(lhs, rhs, upto):
    for k in range(upto + 1):
        if not (lhs.coefficient(k) - rhs.coefficient(k)).is_zero():
            return k
    return None


def _diagnose(rep, build, target, upto, slots, extra=None):
    """Try single spectral-shift perturbations and gate variants."""
    repaired = []
    for name in slots:
        for delta in (1, -1):
            cand = build({name: slots[name] + delta}, "printed")
            if _first_mismatch(cand, target, upto) is None:
                repaired.append("%s%+d" % (name, delta))
    for name, shifts in (extra or {}).items():
        if _first_mismatch(build(shifts, "printed"), target, upto) is None:
            repaired.append(name)
    cand = build({}, "narrow")
    if _first_mismatch(cand, target, upto) is None:
        repaired.append("narrow-gate")
    if repaired:
        rep.note("repaired by: " + ", ".join(repaired))
    else:
        rep.note("no single-shift repair found")
    return repaired


def coproduct_formula_check(n, order, gate="printed", diagnose=True):
    """Closed coproduct formulas against the transported coproduct."""
    ctx = Context(n, order, SL)
    frame = CurrentFrame(ctx, order)
    reports = []
    for i in range(1, n):
        for kind in ("e", "f", "h"):
            rep = Report("coproduct-formula-%s%d" % (kind, i),
                         n=n, order=order, gate=gate)
            target = delta_series(frame.current(kind, i))
            got = formula_delta(frame, kind, i, gate=gate)
            bad = _first_mismatch(got, target, order)
            repaired = []
            if bad is not None:
                rep.note("earliest failing tensor degree: %d" % bad)
                if diagnose:
                    def build(shifts, g, _kind=kind, _i=i):
                        return formula_delta(frame, _kind, _i,
                                             shifts=shifts, gate=g)
                    repaired = _diagnose(rep, build, target, order,
                                         DELTA_SLOTS[kind])
            _series_match(rep, "%s%d" % (kind, i), got, target, order,
                          documented=bool(repaired))
            reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# current antipode and counit formulas


ANTIPODE_SLOTS = {
    "e": {"op": 0, "arg": 1, "den_op": 0, "den_arg": 0},
    "f": {"op": 0, "arg": 1, "den_op": 0, "den_arg": 0},
    "h": {"den_op": 0, "den_arg": 0, "num_op": 0, "num_arg": 0,
          "e_shift": 1, "f_shift": 0},
}


def formula_antipode(frame, kind, i, shifts=None, gate="printed"):
    """Antipode of a current, centered at u + n/2, from the hat formulas."""
    if kind not in ANTIPODE_SLOTS:
        raise ValueError("unknown current kind %r" % (kind,))
    s = dict(ANTIPODE_SLOTS[kind])
    s.update(shifts or {})
    n = frame.ctx.n
    m = n - i
    if kind == "e":
        num = hat_raising(frame, m, s["op"], gate)(
            frame.current("e", m).shift(s["arg"]))
        den = composite_diagonal(frame, "R", m, tuple(range(i + 1, n + 1)),
                                 s["den_op"], gate)(
            frame.g(m).shift(s["den_arg"]))
        return -(num * den.invert())
    if kind == "f":
        den = composite_diagonal(frame, "L", m, tuple(range(i + 1, n + 1)),
                                 s["den_op"], gate)(
            frame.g_tilde(m).shift(s["den_arg"]))
        pattern = "uniform" if s.get("hat_pattern") else "printed"
        num = hat_lowering(frame, m, s["op"], gate, pattern)(
            frame.current("f", m).shift(s["arg"]))
        return -(den.invert() * num)
    if kind == "h":
        den = composite_diagonal(frame, "L", m, tuple(range(i + 1, n + 1)),
                                 s["den_op"], gate)(
            frame.g_tilde(m).shift(s["den_arg"]))
        num = composite_diagonal(frame, "L", m,
                                 (i,) + tuple(range(i + 2, n + 1)),
                                 s["num_op"], gate)(
            frame.g_tilde(m).shift(s["num_arg"]))
        half_n = Fraction(n, 2)
        idx = i if s.get("sub_index") else m
        se = formula_antipode(frame, "e", idx, gate=gate).shift(s["e_shift"] - half_n)
        sf = formula_antipode(frame, "f", idx, gate=gate).shift(s["f_shift"] - half_n)
        return den.invert() * num - se * sf
    raise ValueError("unknown current kind %r" % (kind,))


def antipode_formula_check(n, order, gate="printed", diagnose=True):
    """Closed antipode formulas against the transported antipode."""
    ctx = Context(n, order, SL)
    frame = CurrentFrame(ctx, order)
    half_n = Fraction(n, 2)
    reports = []
    for i in range(1, n):
        for kind in ("e", "f", "h"):
            rep = Report("antipode-formula-%s%d" % (kind, i),
                         n=n, order=order, gate=gate)
            target = antipode_series(frame.current(kind, i)).shift(half_n)
            got = formula_antipode(frame, kind, i, gate=gate)
            bad = _first_mismatch(got, target, order)
            repaired = []
            if bad is not None:
                rep.note("earliest failing tensor degree: %d" % bad)
                if diagnose:
                    def build(shifts, g, _kind=kind, _i=i):
                        return formula_antipode(frame, _kind, _i,
                                                shifts=shifts, gate=g)
                    extra = None
                    if kind == "h":
                        extra = {
                            "recentered-subtraction":
                                {"e_shift": 1 + half_n, "f_shift": half_n},
                            "own-index-recentered-subtraction":
                                {"sub_index": 1, "e_shift": 1 + half_n,
                                 "f_shift": half_n},
                        }
                    elif kind == "f":
                        extra = {"uniform-hat-shifts": {"hat_pattern": 1}}
                    repaired = _diagnose(rep, build, target, order,
                                         ANTIPODE_SLOTS[kind], extra)
            _series_match(rep, "%s%d" % (kind, i), got, target, order,
                          documented=bool(repaired))
            reports.append(rep)
    return reports


def counit_formula_check(n, order, mode=SL):
    """Counit of currents: raising/lowering vanish, diagonal is 1."""
    ctx = Context(n, order, mode)
    rep = Report("counit-currents", n=n, order=order, mode=mode)
    for i in range(1, n):
        for kind in ("e", "f", "h"):
            s = current(ctx, kind, i, order)
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
    """Rank-one coproducts in fully expanded geometric form."""
    s = dict(SL2_DELTA_SLOTS[kind])
    s.update(shifts or {})
    e1 = frame.current("e", 1)
    f1 = frame.current("f", 1)
    h1 = frame.current("h", 1)
    order = e1.order
    if kind == "e":
        total = slot_embed(e1.shift(s["head_e"]), 2, 1)
        left = e1.shift(s["pow_e"])
        right_step = f1.shift(s["pow_f"])
        lpow = left
        rpow = h1.shift(s["tail_h"])
        sign = 1
        for _ in range(order + 1):
            total = total + series_outer(lpow, rpow) * sign
            lpow = lpow * left
            rpow = right_step * rpow
            sign = -sign
            if lpow.is_zero():
                break
        return total
    if kind == "f":
        total = slot_embed(f1.shift(s["head_f"]), 2, 0)
        right = f1.shift(s["pow_f"])
        left_step = e1.shift(s["pow_e"])
        rpow = right
        lpow = h1.shift(s["head_h"])
        sign = 1
        for _ in range(order + 1):
            total = total + series_outer(lpow, rpow) * sign
            rpow = rpow * right
            lpow = lpow * left_step
            sign = -sign
            if rpow.is_zero():
                break
        return total
    if kind == "h":
        total = None
        he = h1.shift(s["head_h"])
        ht = h1.shift(s["tail_h"])
        le = e1.shift(s["pow_e"])
        rf = f1.shift(s["pow_f"])
        lpow = he
        rpow = ht
        k = 0
        while True:
            term = series_outer(lpow, rpow) * ((k + 1) * (-1) ** k)
            total = term if total is None else total + term
            k += 1
            lpow = lpow * le
            rpow = rf * rpow
            if lpow.is_zero() or rpow.is_zero() or k > order:
                break
        return total
    raise ValueError("unknown current kind %r" % (kind,))


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
    frame = CurrentFrame(ctx, order)
    reports = []
    for kind in ("e", "f", "h"):
        rep = Report("sl2-closed-delta-" + kind, order=order)
        _series_match(rep, kind, sl2_closed_delta(frame, kind),
                      delta_series(frame.current(kind, 1)), order)
        reports.append(rep)
    for kind in ("e", "f", "h"):
        rep = Report("sl2-closed-antipode-" + kind, order=order)
        target = antipode_series(frame.current(kind, 1)).shift(1)
        if kind == "h":
            printed = sl2_closed_antipode(frame, kind, "printed")
            bad = _first_mismatch(printed, target, order)
            if bad is not None:
                rep.note("as-printed subtraction fails first at degree %d; "
                         "verified with both arguments recentered by +1" % bad)
                _series_match(rep, "h-printed", printed, target, order,
                              documented=True)
        _series_match(rep, kind, sl2_closed_antipode(frame, kind), target,
                      order)
        reports.append(rep)
    return reports


def sl2_mutation_check(order=4):
    """Every single spectral-shift perturbation must break the match."""
    ctx = Context(2, order, SL)
    frame = CurrentFrame(ctx, order)
    target = delta_series(frame.current("e", 1))
    rep = Report("sl2-mutation-sensitivity", order=order)
    base = sl2_closed_delta(frame, "e")
    if _first_mismatch(base, target, order) is not None:
        rep.record("unperturbed", unit(ctx))
        return rep
    rep.tally()
    for name, val in SL2_DELTA_SLOTS["e"].items():
        for delta in (1, -1):
            mutated = sl2_closed_delta(frame, "e", {name: val + delta})
            bad = _first_mismatch(mutated, target, order)
            rep.tally()
            if bad is None:
                rep.record("%s%+d" % (name, delta), unit(ctx))
            else:
                rep.note("%s%+d fails first at degree %d" % (name, delta, bad))
    return rep


# ---------------------------------------------------------------------------
# rank-two closed forms


def _bracket_series(frame, kind, j, s):
    root = (frame.root("e", j, j + 1) if kind == "e"
            else frame.root("f", j, j + 1))
    return s.map_coeffs(_bracket_map(root, 1))


def sl3_closed_delta(frame, kind, i=1, head_e_shift=0):
    """Rank-two coproducts with a single nearest-neighbour correction.

    head_e_shift moves the spectral argument of the raising current in
    the leading term of the diagonal formula (0 as written; 1 matches
    the general formula).
    """
    j = 3 - i
    e1 = frame.current("e", i)
    f1 = frame.current("f", i)
    g1 = frame.g(i)
    gt1 = frame.g_tilde(i)

    def bre(s):
        return _bracket_series(frame, "e", j, s)

    def brf(s):
        return _bracket_series(frame, "f", j, s)

    if kind == "e":
        power = (series_outer(e1, f1.shift(1))
                 - series_outer(bre(e1), brf(f1.shift(1))))
        head = (slot_embed(e1, 2, 1) + series_outer(e1, gt1)
                - series_outer(bre(e1), brf(gt1)))
        return geometric_unit_sum(-power) * head
    if kind == "f":
        head = (slot_embed(f1, 2, 0) + series_outer(g1, f1)
                - series_outer(bre(g1), brf(f1)))
        power = (series_outer(e1.shift(1), f1)
                 - series_outer(bre(e1.shift(1)), brf(f1)))
        return head * geometric_unit_sum(-power)
    if kind == "h":
        head = (series_outer(f1, e1.shift(head_e_shift))
                + series_outer(g1, g1) - series_outer(bre(g1), brf(g1)))
        power = (series_outer(e1.shift(1), f1)
                 - series_outer(bre(e1.shift(1)), brf(f1)))
        sub = (sl3_closed_delta(frame, "f", i)
               * sl3_closed_delta(frame, "e", i).shift(1))
        return head * geometric_unit_sum(-power) - sub
    raise ValueError("unknown current kind %r" % (kind,))


def sl3_diagonal_status(order=3):
    """Adjudicate the rank-two diagonal head's spectral argument.

    The two readings of the leading raising argument agree through
    order 2 and separate at order 3; the report records the earliest
    failing degree of each reading against the pullback.
    """
    ctx = Context(3, order, SL)
    frame = CurrentFrame(ctx, order)
    rep = Report("sl3-diagonal-status", order=order)
    for i in (1, 2):
        target = delta_series(frame.current("h", i))
        outcomes = {}
        for shift in (0, 1):
            cand = sl3_closed_delta(frame, "h", i, head_e_shift=shift)
            outcomes[shift] = _first_mismatch(cand, target, order)
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
    frame = CurrentFrame(ctx, order)
    reports = []
    for i in (1, 2):
        for kind in ("e", "f"):
            rep = Report("sl3-closed-delta-%s%d" % (kind, i), order=order)
            _series_match(rep, kind, sl3_closed_delta(frame, kind, i),
                          delta_series(frame.current(kind, i)), order)
            reports.append(rep)
        rep = Report("sl3-closed-delta-h%d" % i, order=order)
        target = delta_series(frame.current("h", i))
        written = sl3_closed_delta(frame, "h", i, head_e_shift=0)
        bad = _first_mismatch(written, target, order)
        if bad is None:
            rep.note("written diagonal form matches through order %d" % order)
            _series_match(rep, "h-written", written, target, order)
        else:
            rep.note("written diagonal form fails first at degree %d" % bad)
            _series_match(rep, "h-written", written, target, order,
                          documented=True)
            repaired = sl3_closed_delta(frame, "h", i, head_e_shift=1)
            _series_match(rep, "h-repaired", repaired, target, order)
            if rep.passed:
                rep.note("repaired by shifting the leading raising argument by +1")
        reports.append(rep)
    return reports
