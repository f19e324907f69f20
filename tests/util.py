"""Shared helpers for the test suite."""

from fractions import Fraction
from unittest import mock

from yangian import drinfeld, hopf, rtt
from yangian.algebra import (
    SL, Context, Element, Tensor, commutator, commutator_words,
    decode_symbol, decode_word, from_words, zero,
)
from yangian.drinfeld import leading_block
from yangian.rtt import quantum_minor, t_entry
from yangian.report import Report
from yangian.series import Series, SeriesMatrix, series_outer


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
            w = prefix + decode_word(mid) + suffix
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


def geometric_unit_sum_reference(t):
    """sum_{m>=0} t^m for a series with no u^0 term, by full series
    products until a power vanishes: (1 - t)^{-1} without the inverse
    recursion of Series.invert."""
    assert 0 not in t.coeffs
    total = Series.constant(t.ctx, arity=t.arity)
    power = t
    while not power.is_zero():
        total = total + power
        power = power * t
    return total


def series_outer_reference(a, b):
    """Tensor-square series with coefficients sum_{p+q=k} a_p (x) b_q,
    each a_p (x) b_q one `Tensor.of_elements` added into a copied sum.
    An oracle for series.outer_sum, whose one-term case series_outer
    is."""
    if a.ctx != b.ctx or a.arity != 1 or b.arity != 1:
        raise ValueError("element series expected")
    order = a.order
    out = {}
    for p, x in a.coeffs.items():
        for q, y in b.coeffs.items():
            k = p + q
            if k > order:
                continue
            v = Tensor.of_elements(x, y)
            out[k] = out[k] + v if k in out else v
    return Series._trusted(a.ctx, out, 2)


def delta_symbol_reference(ctx, symbol):
    """Delta T_ij^(k): the u^-k coefficient of sum_a T_ia(u) (x) T_aj(u),
    one `Tensor.of_elements` per (a, p) added into a copied sum.  An
    oracle for the base case of hopf._delta_word."""
    k, i, j = decode_symbol(symbol)
    total = Tensor.zero(ctx, 2)
    for a in range(1, ctx.n + 1):
        left = t_entry(ctx, i, a)
        right = t_entry(ctx, a, j)
        for p in range(k + 1):
            total = total + Tensor.of_elements(left.coefficient(p),
                                               right.coefficient(k - p))
    return total


def geometric_inverse(mat):
    """sum_{m=0..order} (1 - mat)^m: the inverse of a series matrix whose
    u^0 part is the identity, as a truncated geometric sum of full matrix
    products.  An independent route to SeriesMatrix.inverse."""
    ident = SeriesMatrix.identity(mat.ctx, mat.size)
    a = ident - mat
    total = ident
    power = a
    for _ in range(mat.ctx.max_degree):
        total = total + power
        power = power * a
    return total


def map_slot_per_term(t, slot, image, arity):
    """One slot of every key replaced by the slot tuples of image(word),
    term by term: each (term, image term) pair builds its own result key.
    An oracle for the grouped hopf._map_slot behind hopf.delta_on_slot,
    hopf.antipode_on_slot and hopf.counit_on_slot."""
    out = {}
    for key, c in t.terms.items():
        head, tail = key[:slot], key[slot + 1:]
        for parts, c2 in image(key[slot]):
            new = head + parts + tail
            v = out.get(new, 0) + c * c2
            if v:
                out[new] = v
            elif new in out:
                del out[new]
    if arity == 1:
        return Element._trusted(t.ctx, {k[0]: c for k, c in out.items()})
    return Tensor._trusted(t.ctx, arity, out)


def linear_extension_fractions(x, image):
    """Terms of sum_w c_w image(w) over the terms c_w w of x, each product
    taken on the coefficients as stored, Fractions included.  An oracle
    for hopf.delta_element (image hopf._delta_word) and
    hopf.antipode_element (image hopf._antipode_word), the
    common-denominator slot map on the element's one-slot view."""
    out = {}
    for w, c in x.terms.items():
        for key, v in image(x.ctx, w).terms.items():
            s = out.get(key, 0) + c * v
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def multiply_slots_fractions(t):
    """The two slots of a tensor square multiplied into one element, the
    product words summed on the coefficients as stored: the slot product
    of antipode_product_two_pass."""
    raw = {}
    for (wl, wr), c in t.terms.items():
        raw[wl + wr] = raw.get(wl + wr, 0) + c
    return from_words(t.ctx, raw)


def antipode_product_two_pass(t, slot):
    """m(S x id) (slot 0) or m(id x S) (slot 1) of a tensor square in two
    passes: the antipode of one slot as a whole tensor, term by term, then
    the slot product.  An oracle for hopf.multiply_slots(t, antipode=slot).
    """
    def image(w):
        return (((v,), c)
                for v, c in hopf._antipode_word(t.ctx, w).terms.items())
    return multiply_slots_fractions(map_slot_per_term(t, slot, image, 2))


def reflected_inverse(ctx):
    """(T(-u))^{-1} as the inverse of the entrywise-reflected generating
    matrix.  An oracle for rtt.t_star_matrix, which reads the memoised
    T(u)^{-1} at -u instead of inverting a second matrix."""
    n = ctx.n
    neg = SeriesMatrix([[t_entry(ctx, i, j).negate_variable()
                         for j in range(1, n + 1)] for i in range(1, n + 1)])
    return neg.inverse()


def sl2_closed_delta_expanded(frame, kind, shifts=None):
    """Rank-one coproducts in fully expanded form: each power (-X)^m of
    G = (1 + X)^{-1}, X = e (x) f, multiplied out term by term, (-1)^k e^(k+1) (x) f^k h
    for e, (-1)^k h e^k (x) f^(k+1) for f and (k+1) (-1)^k h e^k (x) f^k h
    for h, each current at its hopf.SL2_DELTA_SLOTS spectral slot moved
    by shifts.  An oracle for hopf.sl2_closed_delta, with the same
    arguments."""
    s = dict(hopf.SL2_DELTA_SLOTS[kind])
    s.update(shifts or {})
    e1 = frame.current("e", 1)
    f1 = frame.current("f", 1)
    h1 = frame.current("h", 1)
    order = e1.order
    one = Series.constant(frame.ctx)
    if kind == "e":
        total = series_outer(one, e1.shift(s["head_e"]))
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
        total = series_outer(f1.shift(s["head_f"]), one)
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
    total = None
    lpow = h1.shift(s["head_h"])
    rpow = h1.shift(s["tail_h"])
    le = e1.shift(s["pow_e"])
    rf = f1.shift(s["pow_f"])
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


# ---------------------------------------------------------------------------
# the repair search behind hopf.deviations


def narrow_gate(alpha, i, j):
    """The narrow correction window i <= alpha < j - 1, a reading of the
    printed one that fails.  Patched over hopf._gate_fires as a negative
    control; the patched maps must be built on a fresh hopf.CurrentFrame,
    since no frame memo key names the window."""
    return i <= alpha < j - 1


def formula_probes(family, kind, n):
    """(name, keywords) of every variant the repair search builds for a
    current formula of family "coproduct" or "antipode" on its shared
    frame: each spectral slot of the printed formula moved by +1 and by
    -1, and the named antipode variants.  The named variants are written
    out here rather than read from hopf.deviations, so that the search
    stays a reference for the table."""
    slots = (hopf.DELTA_SLOTS if family == "coproduct"
             else hopf.ANTIPODE_SLOTS)[kind]
    probes = [("%s%+d" % (name, delta), {"shifts": {name: value + delta}})
              for name, value in slots.items() for delta in (1, -1)]
    if family == "antipode":
        half_n = Fraction(n, 2)
        named = {
            "f": {"uniform-hat-shifts": {"hat_pattern": 1}},
            "h": {"recentered-subtraction":
                      {"e_shift": 1 + half_n, "f_shift": half_n},
                  "own-index-recentered-subtraction":
                      {"sub_index": 1, "e_shift": 1 + half_n,
                       "f_shift": half_n}},
        }
        probes += [(name, {"shifts": shifts})
                   for name, shifts in named.get(kind, {}).items()]
    return probes


# variants of a hat composite: name, operator shift, argument shift and
# spec transform (None keeps the printed chain)
HAT_PROBES = (("op-1", -1, 0, None), ("arg-1", 0, -1, None),
              ("uniform-shift-pattern", 0, 0, hopf.uniform_shifts))


def repair_search(n, order):
    """{where: names} of every printed hat composite and current formula
    that misses its target at (n, order), with the names of the search's
    variants that match the target exactly, in probe order.  where is
    "ratio-hat:<label>" or a formula report's identity.  A formula's last
    probe, "narrow-gate", builds the printed formula under narrow_gate on
    a frame of its own.

    The search that proposed hopf.deviations: the checks now try only
    the declared deviations, and a test holds the two to the same
    verdicts.
    """
    ctx = Context(n, order, SL)
    frame = hopf.CurrentFrame(ctx)
    found = {}

    def holds(got, target):
        return hopf._first_mismatch(got, target) is None

    for i in range(1, n):
        m = n - i
        c = Fraction(m - 2, 2)
        inv = leading_block(ctx, m).invert()
        tail = tuple(range(i + 2, n + 1))
        up = quantum_minor(ctx, (i,) + tail, (i + 1,) + tail)
        down = quantum_minor(ctx, (i + 1,) + tail, (i,) + tail)
        for kind, label, lhs in (("e", "raise,i=%d" % i, up * inv),
                                 ("f", "lower,i=%d" % i, inv * down)):
            spec = hopf.hat_spec(n, kind, m)
            if holds(frame.apply_chain(spec, c, (kind, m, c + 1)), lhs):
                continue
            found["ratio-hat:" + label] = [
                name for name, d_op, d_arg, transform in HAT_PROBES
                if holds(frame.apply_chain(
                    transform(spec) if transform else spec, c + d_op,
                    (kind, m, c + 1 + d_arg)), lhs)]
    half_n = Fraction(n, 2)
    for family, formula, transport in (
            ("coproduct", hopf.formula_delta, hopf.delta_series),
            ("antipode", hopf.formula_antipode,
             lambda s: hopf.antipode_series(s).shift(half_n))):
        for i in range(1, n):
            for kind in ("e", "f", "h"):
                target = transport(frame.current(kind, i))
                if holds(formula(frame, kind, i), target):
                    continue
                names = [
                    name for name, keywords in formula_probes(family, kind, n)
                    if holds(formula(frame, kind, i, **keywords), target)]
                with mock.patch.object(hopf, "_gate_fires", narrow_gate):
                    narrow = formula(hopf.CurrentFrame(ctx), kind, i)
                if holds(narrow, target):
                    names.append("narrow-gate")
                found["%s-formula-%s%d" % (family, kind, i)] = names
    return found


def minor_bracket_sweep_reference(ctx, rows, cols, comm, cent, label):
    """The minor sweep as each case was checked before the residual sums:
    every case builds its left side and its right side as elements and
    compares them with `Report.check`; an absent minor coefficient is an
    empty element.  It reads the minors through `rtt`, so a patch of
    `rtt.quantum_minor` reaches it."""
    rows, cols = tuple(rows), tuple(cols)
    idx = range(1, ctx.n + 1)
    order = ctx.max_degree
    nil = zero(ctx)
    minor = rtt.quantum_minor(ctx, rows, cols)
    c = [minor.coefficient(b) for b in range(order + 1)]
    scalar = [all(not w for w in x.terms) for x in c]
    gen = {(i, j): rtt.t_entry(ctx, i, j).coeffs for i in idx for j in idx}
    col_c = {j: [[s.coefficient(b) for b in range(order)]
                 for s in rtt.column_replaced_minors(ctx, rows, cols, j)]
             for j in idx}
    row_c = {i: [[s.coefficient(b) for b in range(order)]
                 for s in rtt.row_replaced_minors(ctx, rows, cols, i)]
             for i in idx}

    def add(raw, x, sign):
        for w, v in x.terms.items():
            raw[w] = raw.get(w, 0) + sign * v

    inside = {}
    for i in idx:
        row_i = row_c[i]
        for j in idx:
            col_j = col_c[j]
            x = gen[i, j]
            bracket = {(r, b): nil if scalar[b] else commutator(x[r], c[b])
                       for r in range(1, order + 1)
                       for b in range(order + 1 - r)}
            for a in range(order):
                for b in range(order - a):
                    lhs = bracket[a + 1, b]
                    if a >= 1:
                        lhs = lhs - bracket[a, b + 1]
                    raw = {}
                    for k, (a_k, b_k) in enumerate(zip(rows, cols)):
                        if a == 0:
                            if i == b_k:
                                add(raw, col_j[k][b], 1)
                            if a_k == j:
                                add(raw, row_i[k][b], -1)
                        else:
                            col_j[k][b]._mul_into(gen[i, b_k][a], raw)
                            gen[a_k, j][a]._mul_into(row_i[k][b], raw, -1)
                    comm.check("T%d%d %s:u^-%d v^-%d" % (i, j, label, a, b),
                               lhs, Element(ctx, raw))
            if i in rows and j in cols:
                inside[i, j] = bracket
    for i in rows:
        for j in cols:
            for (r, b), value in inside[i, j].items():
                cent.check("%s:T_%d%d^(%d) vs u^-%d" % (label, i, j, r, b),
                           value, nil)


def relations_check_reference(n, degree, mode=SL):
    """The current-relation sweep as each case was checked before the
    scaled modes and the bracket table: every bracket is formed fresh
    from the modes x^(k) read through `drinfeld._mode` (so a patch of it
    reaches this body), with the recursion factor +-a_ij/2, and each
    case compares two elements with `Report.check`."""
    ctx = drinfeld._relation_context(n, degree, mode)
    roots = range(1, n)
    d = degree
    cartan = drinfeld.cartan_pairing

    def e(i, k):
        return drinfeld._mode(ctx, "e", i, k)

    def f(i, k):
        return drinfeld._mode(ctx, "f", i, k)

    def h(i, k):
        return drinfeld._mode(ctx, "h", i, k)

    reports = []

    rep = Report("diagonal-modes-commute", n=n, degree=degree, mode=mode)
    for i in roots:
        for j in roots:
            if j < i:
                continue
            for k in range(d + 1):
                for l in range(d + 1 - k):
                    rep.check("h%d(%d),h%d(%d)" % (i, k, j, l),
                              commutator(h(i, k), h(j, l)), zero(ctx))
    reports.append(rep)

    rep = Report("raising-lowering-pairing", n=n, degree=degree, mode=mode)
    for i in roots:
        for j in roots:
            for k in range(d + 1):
                for l in range(d + 1 - k):
                    want = h(i, k + l) if i == j else zero(ctx)
                    rep.check("e%d(%d),f%d(%d)" % (i, k, j, l),
                              commutator(e(i, k), f(j, l)), want)
    reports.append(rep)

    rep = Report("diagonal-zero-mode-weights", n=n, degree=degree, mode=mode)
    for i in roots:
        for j in roots:
            a = cartan(i, j)
            for l in range(d + 1):
                rep.check("h%d(0),e%d(%d)" % (i, j, l),
                          commutator(h(i, 0), e(j, l)), a * e(j, l))
                rep.check("h%d(0),f%d(%d)" % (i, j, l),
                          commutator(h(i, 0), f(j, l)), -a * f(j, l))
    reports.append(rep)

    half = Fraction(1, 2)

    def recursion_family(name, left, right, sign):
        rep = Report(name, n=n, degree=degree, mode=mode)
        for i in roots:
            for j in roots:
                a = sign * half * cartan(i, j)
                for k in range(d):
                    for l in range(d - k):
                        lhs = (commutator(left(i, k + 1), right(j, l))
                               - commutator(left(i, k), right(j, l + 1)))
                        rhs = a * (left(i, k) * right(j, l)
                                   + right(j, l) * left(i, k))
                        rep.check("%s:i=%d,j=%d,k=%d,l=%d"
                                  % (name, i, j, k, l), lhs, rhs)
        reports.append(rep)

    recursion_family("diagonal-raising-recursion", h, e, 1)
    recursion_family("diagonal-lowering-recursion", h, f, -1)
    recursion_family("raising-raising-recursion", e, e, 1)
    recursion_family("lowering-lowering-recursion", f, f, -1)

    rep = Report("distant-roots-commute", n=n, degree=degree, mode=mode)
    for i in roots:
        for j in roots:
            if abs(i - j) < 2:
                continue
            for k in range(d + 1):
                for l in range(d + 1 - k):
                    rep.check("e%d(%d),e%d(%d)" % (i, k, j, l),
                              commutator(e(i, k), e(j, l)), zero(ctx))
                    rep.check("f%d(%d),f%d(%d)" % (i, k, j, l),
                              commutator(f(i, k), f(j, l)), zero(ctx))
    reports.append(rep)

    rep = Report("adjacent-serre", n=n, degree=degree, mode=mode)
    for i in roots:
        for j in roots:
            if abs(i - j) != 1:
                continue
            for k1 in range(d + 1):
                for k2 in range(k1, d + 1 - k1):
                    for l in range(d + 1 - k1 - k2):
                        for gen in (e, f):
                            name = "e" if gen is e else "f"
                            lhs = (commutator(gen(i, k1),
                                              commutator(gen(i, k2), gen(j, l)))
                                   + commutator(gen(i, k2),
                                                commutator(gen(i, k1), gen(j, l))))
                            rep.check("%s:i=%d,j=%d,%d,%d,%d"
                                      % (name, i, j, k1, k2, l), lhs, zero(ctx))
    reports.append(rep)

    return reports
