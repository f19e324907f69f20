"""Drinfel'd current realisation built from quantum minor ratios.

The currents e_i(u), f_i(u), h_i(u) are defined through ratios of
quantum minors of the generating matrix, re-centered so that each
current is a series in its own spectral variable:

    e_i(u - (i-2)/2) = t(1..i)(u)^-1 * t(rows 1..i, cols 1..i-1,i+1)(u)
    f_i(u - (i-2)/2) = t(rows 1..i-1,i+1, cols 1..i)(u) * t(1..i)(u)^-1

with three equivalent expressions for h_i(u).  Modes are the series
coefficients, e_i(u) = sum_k e_i^(k) u^(-k-1), and satisfy the usual
current-algebra relations, which relations_check sweeps in full at a
given truncation depth.
"""

from fractions import Fraction
from functools import lru_cache

from .algebra import SL, Context, commutator, generator, unit, zero
from .rtt import quantum_minor
from .report import Report

CURRENT_KINDS = ("e", "f", "h")


def cartan_pairing(i, j):
    """Pairing of simple roots i, j on the type-A weight lattice."""
    if i == j:
        return 2
    if abs(i - j) == 1:
        return -1
    return 0


def leading_block(ctx, i, order):
    rows = tuple(range(1, i + 1))
    return quantum_minor(ctx, rows, rows, order)


def _raised_block(ctx, i, order):
    rows = tuple(range(1, i + 1))
    cols = tuple(range(1, i)) + (i + 1,)
    return quantum_minor(ctx, rows, cols, order)


def _lowered_block(ctx, i, order):
    rows = tuple(range(1, i)) + (i + 1,)
    cols = tuple(range(1, i + 1))
    return quantum_minor(ctx, rows, cols, order)


@lru_cache(maxsize=None)
def current(ctx, kind, i, order):
    """Current series of the given kind for the i-th simple root.

    kind is "e" (raising), "f" (lowering) or "h" (diagonal, first
    variant).  The result is a Series in the current's own variable.
    """
    if kind not in CURRENT_KINDS:
        raise ValueError("unknown current kind %r" % (kind,))
    if not 1 <= i <= ctx.n - 1:
        raise ValueError("simple root index out of range")
    recenter = Fraction(2 - i, 2)
    if kind == "e":
        raw = leading_block(ctx, i, order).invert() * _raised_block(ctx, i, order)
    elif kind == "f":
        raw = _lowered_block(ctx, i, order) * leading_block(ctx, i, order).invert()
    else:
        return h_current(ctx, i, order, variant=1)
    return raw.shift(recenter)


def _corner_block(ctx, i, order):
    idx = tuple(range(1, i)) + (i + 1,)
    return quantum_minor(ctx, idx, idx, order)


def h_current(ctx, i, order, variant=1):
    """Diagonal current for root i, computed by one of three routes.

    Variant 1 is a product of four shifted minor blocks; variants 2
    and 3 subtract a lowering*raising correction from a single minor
    ratio taken on either side.  All three agree in the algebra.
    Variant 1 is cached as current(ctx, "h", i, order).
    """
    if not 1 <= i <= ctx.n - 1:
        raise ValueError("simple root index out of range")
    recenter = Fraction(2 - i, 2)
    lead = leading_block(ctx, i, order)
    if variant == 1:
        prev = leading_block(ctx, i - 1, order)
        nxt = leading_block(ctx, i + 1, order)
        raw = lead.invert() * prev * nxt.shift(-1) * lead.shift(-1).invert()
        return raw.shift(recenter)
    if variant == 2:
        base = (lead.invert() * _corner_block(ctx, i, order)).shift(recenter)
        fi = current(ctx, "f", i, order)
        ei = current(ctx, "e", i, order)
        return base - fi.shift(1) * ei
    if variant == 3:
        base = (_corner_block(ctx, i, order) * lead.invert()).shift(recenter)
        fi = current(ctx, "f", i, order)
        ei = current(ctx, "e", i, order)
        return base - fi * ei.shift(1)
    raise ValueError("unknown diagonal-current variant %r" % (variant,))


def current_mode(series, kind, k):
    """k-th mode of a current series (the coefficient of u^(-k-1))."""
    if kind not in CURRENT_KINDS:
        raise ValueError("unknown current kind %r" % (kind,))
    if k < 0:
        raise ValueError("mode index must be nonnegative")
    return series.coefficient(k + 1)


def _mode(ctx, kind, i, k, order):
    return current_mode(current(ctx, kind, i, order), kind, k)


def root_element(ctx, kind, low, high):
    """Mode-0 root vector for the positive root pair low < high.

    For kind "e" this is the degree-one generator in row low, column
    high; for kind "f" the transposed one.  Both match the nested
    commutators of simple-root modes (see nested_root_element).
    """
    if not 1 <= low < high <= ctx.n:
        raise ValueError("need 1 <= low < high <= n")
    if kind == "e":
        return generator(ctx, low, high, 1)
    if kind == "f":
        return generator(ctx, high, low, 1)
    raise ValueError("root elements exist for kinds 'e' and 'f' only")


def nested_root_element(ctx, kind, low, high):
    """Root vector for low < high as nested brackets of simple modes,
    read off the order-one currents.

    Raising vectors nest to the left starting from the top index,
    lowering vectors nest to the right starting from the bottom one.
    """
    if not 1 <= low < high <= ctx.n:
        raise ValueError("need 1 <= low < high <= n")
    modes = {a: _mode(ctx, kind, a, 0, 1) for a in range(low, high)}
    if kind == "e":
        acc = modes[high - 1]
        for a in range(high - 2, low - 1, -1):
            acc = commutator(acc, modes[a])
        return acc
    if kind == "f":
        acc = modes[high - 1]
        for a in range(high - 2, low - 1, -1):
            acc = commutator(modes[a], acc)
        return acc
    raise ValueError("root elements exist for kinds 'e' and 'f' only")


def _relation_context(n, degree, mode):
    # modes up to k = degree carry words of algebra degree k+1
    return Context(n, degree + 1, mode)


def relations_check(n, degree, mode=SL):
    """Sweep the defining current-algebra relations up to mode depth.

    Returns one report per relation family.  All brackets with total
    mode weight at most `degree` are checked, plus the degree-shifted
    recursion and Serre families on their natural index ranges.
    """
    ctx = _relation_context(n, degree, mode)
    order = degree + 1
    roots = range(1, n)
    d = degree

    def e(i, k):
        return _mode(ctx, "e", i, k, order)

    def f(i, k):
        return _mode(ctx, "f", i, k, order)

    def h(i, k):
        return _mode(ctx, "h", i, k, order)

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
            a = cartan_pairing(i, j)
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
                a = sign * half * cartan_pairing(i, j)
                for k in range(d):
                    for l in range(d - k):
                        lhs = (commutator(left(i, k + 1), right(j, l))
                               - commutator(left(i, k), right(j, l + 1)))
                        rhs = a * (left(i, k) * right(j, l)
                                   + right(j, l) * left(i, k))
                        rep.check("%s:i=%d,j=%d,k=%d,l=%d" % (name, i, j, k, l),
                                  lhs, rhs)
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
                            lhs = (commutator(gen(i, k1), commutator(gen(i, k2), gen(j, l)))
                                   + commutator(gen(i, k2), commutator(gen(i, k1), gen(j, l))))
                            rep.check("%s:i=%d,j=%d,%d,%d,%d" % (name, i, j, k1, k2, l),
                                      lhs, zero(ctx))
    reports.append(rep)

    return reports


def h_variants_check(n, degree):
    """All three diagonal-current routes must give the same series."""
    ctx = _relation_context(n, degree, SL)
    order = degree + 1
    rep = Report("diagonal-current-variants", n=n, degree=degree, mode=SL)
    for i in range(1, n):
        first = current(ctx, "h", i, order)
        for variant in (2, 3):
            other = h_current(ctx, i, order, variant=variant)
            for k in range(order + 1):
                rep.check("i=%d,variant=%d,coeff=%d" % (i, variant, k),
                          first.coefficient(k), other.coefficient(k))
    return rep


def root_vectors_check(n):
    """Nested-bracket root vectors equal the degree-one generators."""
    ctx = Context(n, 2, SL)
    rep = Report("root-vectors", n=n, mode=SL)
    for low in range(1, n):
        for high in range(low + 1, n + 1):
            for kind in ("e", "f"):
                rep.check("%s:%d,%d" % (kind, low, high),
                          nested_root_element(ctx, kind, low, high),
                          root_element(ctx, kind, low, high))
    return rep


def currents_constant_check(n, degree):
    """Raising/lowering currents vanish at infinity, diagonal tends to 1."""
    ctx = _relation_context(n, degree, SL)
    order = degree + 1
    rep = Report("current-constants", n=n, degree=degree, mode=SL)
    for i in range(1, n):
        for kind in ("e", "f"):
            rep.check("%s%d" % (kind, i),
                      current(ctx, kind, i, order).coefficient(0), zero(ctx))
        rep.check("h%d" % i,
                  current(ctx, "h", i, order).coefficient(0), unit(ctx))
    return rep
