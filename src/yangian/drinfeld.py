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

The minors and their inverses are integral; the (2-i)/2 recentring is
the only source of denominators in the modes.  So the sweep reads the
scaled modes 2^(k+1) x^(k), the currents in the doubled variable v = 2u,
whose coefficients are ints, and each relation, homogeneous in that
scaling, keeps integer factors.  It forms every bracket of two modes
once per call, in a table that answers [y, x] as -[x, y], and checks
each case as one residual sum reduced once; a failing case records its
residual scaled back to the modes themselves.  Each leading block is
inverted once per context, for every current built from it.
"""

from fractions import Fraction
from functools import lru_cache

from .algebra import (
    SL, Context, Element, _exact, _reduce_raw, add_into, commutator,
    generator, unit, zero,
)
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


def leading_block(ctx, i):
    rows = tuple(range(1, i + 1))
    return quantum_minor(ctx, rows, rows)


@lru_cache(maxsize=None)
def leading_block_inverse(ctx, i):
    """The inverse of the leading block t(1..i; 1..i)(u), inverted once
    per (ctx, i); series are never mutated, so every caller shares it."""
    return leading_block(ctx, i).invert()


def _raised_block(ctx, i):
    rows = tuple(range(1, i + 1))
    cols = tuple(range(1, i)) + (i + 1,)
    return quantum_minor(ctx, rows, cols)


def _lowered_block(ctx, i):
    rows = tuple(range(1, i)) + (i + 1,)
    cols = tuple(range(1, i + 1))
    return quantum_minor(ctx, rows, cols)


@lru_cache(maxsize=None)
def current(ctx, kind, i):
    """Current series of the given kind for the i-th simple root.

    kind is "e" (raising), "f" (lowering) or "h" (diagonal, first
    variant).  The result is a Series in the current's own variable,
    exact through the degree bound of ctx, and built once per
    (ctx, kind, i).
    """
    if kind not in CURRENT_KINDS:
        raise ValueError("unknown current kind %r" % (kind,))
    if not 1 <= i <= ctx.n - 1:
        raise ValueError("simple root index out of range")
    recenter = Fraction(2 - i, 2)
    if kind == "e":
        raw = leading_block_inverse(ctx, i) * _raised_block(ctx, i)
    elif kind == "f":
        raw = _lowered_block(ctx, i) * leading_block_inverse(ctx, i)
    else:
        return h_current(ctx, i, variant=1)
    return raw.shift(recenter)


def _corner_block(ctx, i):
    idx = tuple(range(1, i)) + (i + 1,)
    return quantum_minor(ctx, idx, idx)


def h_current(ctx, i, *, variant=1):
    """Diagonal current for root i, computed by one of three routes.

    Variant 1 is a product of four shifted minor blocks; variants 2
    and 3 subtract a lowering*raising correction from a single minor
    ratio taken on either side.  All three agree in the algebra, and
    each is exact through the degree bound of ctx.  Variant 1 is
    cached as current(ctx, "h", i).
    """
    if not 1 <= i <= ctx.n - 1:
        raise ValueError("simple root index out of range")
    recenter = Fraction(2 - i, 2)
    inv = leading_block_inverse(ctx, i)
    if variant == 1:
        # the shift is a ring map of truncated series, so the inverse of
        # the shifted block is the shifted inverse
        prev = leading_block(ctx, i - 1)
        nxt = leading_block(ctx, i + 1)
        raw = inv * prev * nxt.shift(-1) * inv.shift(-1)
        return raw.shift(recenter)
    if variant == 2:
        base = (inv * _corner_block(ctx, i)).shift(recenter)
        fi = current(ctx, "f", i)
        ei = current(ctx, "e", i)
        return base - fi.shift(1) * ei
    if variant == 3:
        base = (_corner_block(ctx, i) * inv).shift(recenter)
        fi = current(ctx, "f", i)
        ei = current(ctx, "e", i)
        return base - fi * ei.shift(1)
    raise ValueError("unknown diagonal-current variant %r" % (variant,))


def current_mode(series, k):
    """k-th mode of a current series (the coefficient of u^(-k-1))."""
    if k < 0:
        raise ValueError("mode index must be nonnegative")
    return series.coefficient(k + 1)


def _mode(ctx, kind, i, k):
    return current_mode(current(ctx, kind, i), k)


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
    read off the mode-0 (u^-1) coefficients of the currents of ctx.

    Raising vectors nest to the left starting from the top index,
    lowering vectors nest to the right starting from the bottom one.
    """
    if not 1 <= low < high <= ctx.n:
        raise ValueError("need 1 <= low < high <= n")
    modes = {a: _mode(ctx, kind, a, 0) for a in range(low, high)}
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


def scaled_mode(ctx, kind, i, k):
    """The scaled mode 2^(k+1) x^(k) of the current x = e, f or h of
    root i: the u^-(k+1) coefficient of the current read in v = 2u.

    The (2 - i)/2 recentring of the currents is the only source of
    denominators in their modes, and it puts at most 2^k under x^(k), so
    every coefficient of a scaled mode is an int.
    """
    scale = 2 ** (k + 1)
    return Element._trusted(ctx, {w: _exact(c * scale) for w, c
                                  in _mode(ctx, kind, i, k).terms.items()})


class BracketTable:
    """The brackets of scaled modes that one relations sweep reads.

    Modes are named by (kind, i, k).  [x, y] is formed with `commutator`
    on first use and stored under (x, y); asked for [y, x] later, the
    table returns the stored bracket with the sign -1, so every bracket
    of two modes is formed at most once, up to sign.
    """

    __slots__ = ("modes", "_store")

    def __init__(self, modes):
        self.modes = modes
        self._store = {}

    def get(self, x, y):
        """[x, y] as (bracket, sign), its value sign * bracket."""
        out = self._store.get((x, y))
        if out is not None:
            return out, 1
        out = self._store.get((y, x))
        if out is not None:
            return out, -1
        out = self._store[x, y] = commutator(self.modes[x], self.modes[y])
        return out, 1

    def forget(self, kinds):
        """Drop the stored brackets of two modes whose kinds are the
        pair `kinds`, in either order: a sweep calls it after the last
        family that reads them."""
        pair = sorted(kinds)
        self._store = {key: value for key, value in self._store.items()
                       if sorted((key[0][0], key[1][0])) != pair}


def relations_check(n, degree, mode=SL):
    """Sweep the defining current-algebra relations up to mode depth.

    Returns one report per relation family.  All brackets with total
    mode weight at most `degree` are checked, plus the degree-shifted
    recursion and Serre families on their natural index ranges.

    The sweep reads the scaled modes (see `scaled_mode`) through one
    `BracketTable`.  Each relation is homogeneous in the scaling once its
    scalars are rescaled too: the pairing is compared with 2 h~, the
    zero-mode weight is 2 a_ij and the recursion factor +-a_ij, all
    integers.  Each case is one residual sum, lhs - rhs of the scaled
    relation added into one raw dict and reduced once, and it equals
    2^K times the residual of the relation itself, with K the case's
    scaling exponent; a nonzero one is recorded divided by 2^K.
    """
    ctx = _relation_context(n, degree, mode)
    roots = range(1, n)
    d = degree
    modes = {(kind, i, k): scaled_mode(ctx, kind, i, k)
             for kind in CURRENT_KINDS for i in roots for k in range(d + 1)}
    table = BracketTable(modes)

    def add(raw, x, y, factor=1):
        bracket, sign = table.get(x, y)
        add_into(raw, bracket, sign * factor)

    def settle(rep, terms, scaling, label, *args):
        """Count a case whose scaled residual has the reduced terms;
        record a nonzero one, scaled back by 2^-scaling."""
        rep.tally()
        if terms:
            div = 2 ** scaling
            rep.record(label % args, Element._trusted(
                ctx, {w: _exact(Fraction(c, div)) for w, c in terms.items()}))

    def nonzero(raw):
        # a sum of reduced terms needs no elimination and no cut
        return {w: c for w, c in raw.items() if c}

    reports = []

    rep = Report("diagonal-modes-commute", n=n, degree=degree, mode=mode)
    for i in roots:
        for j in roots:
            if j < i:
                continue
            for k in range(d + 1):
                for l in range(d + 1 - k):
                    raw = {}
                    add(raw, ("h", i, k), ("h", j, l))
                    settle(rep, nonzero(raw), k + l + 2,
                           "h%d(%d),h%d(%d)", i, k, j, l)
    reports.append(rep)
    table.forget("hh")

    rep = Report("raising-lowering-pairing", n=n, degree=degree, mode=mode)
    for i in roots:
        for j in roots:
            for k in range(d + 1):
                for l in range(d + 1 - k):
                    raw = {}
                    add(raw, ("e", i, k), ("f", j, l))
                    if i == j:
                        add_into(raw, modes["h", i, k + l], -2)
                    settle(rep, nonzero(raw), k + l + 2,
                           "e%d(%d),f%d(%d)", i, k, j, l)
    reports.append(rep)
    table.forget("ef")

    rep = Report("diagonal-zero-mode-weights", n=n, degree=degree, mode=mode)
    for i in roots:
        for j in roots:
            a = cartan_pairing(i, j)
            for l in range(d + 1):
                for kind, weight in (("e", 2 * a), ("f", -2 * a)):
                    raw = {}
                    add(raw, ("h", i, 0), (kind, j, l))
                    add_into(raw, modes[kind, j, l], -weight)
                    settle(rep, nonzero(raw), l + 2,
                           "h%d(0),%s%d(%d)", i, kind, j, l)
    reports.append(rep)

    def recursion_family(name, left, right, sign):
        rep = Report(name, n=n, degree=degree, mode=mode)
        for i in roots:
            for j in roots:
                a = sign * cartan_pairing(i, j)
                for k in range(d):
                    for l in range(d - k):
                        raw = {}
                        add(raw, (left, i, k + 1), (right, j, l))
                        add(raw, (left, i, k), (right, j, l + 1), -1)
                        if a:
                            x, y = modes[left, i, k], modes[right, j, l]
                            x._mul_into(y, raw, -a)
                            y._mul_into(x, raw, -a)
                        settle(rep, _reduce_raw(ctx, raw), k + l + 3,
                               "%s:i=%d,j=%d,k=%d,l=%d", name, i, j, k, l)
        reports.append(rep)
        if left != right:
            table.forget(left + right)

    recursion_family("diagonal-raising-recursion", "h", "e", 1)
    recursion_family("diagonal-lowering-recursion", "h", "f", -1)
    recursion_family("raising-raising-recursion", "e", "e", 1)
    recursion_family("lowering-lowering-recursion", "f", "f", -1)

    rep = Report("distant-roots-commute", n=n, degree=degree, mode=mode)
    for i in roots:
        for j in roots:
            if abs(i - j) < 2:
                continue
            for k in range(d + 1):
                for l in range(d + 1 - k):
                    for kind in ("e", "f"):
                        raw = {}
                        add(raw, (kind, i, k), (kind, j, l))
                        settle(rep, nonzero(raw), k + l + 2,
                               "%s%d(%d),%s%d(%d)", kind, i, k, kind, j, l)
    reports.append(rep)

    rep = Report("adjacent-serre", n=n, degree=degree, mode=mode)
    for i in roots:
        for j in roots:
            if abs(i - j) != 1:
                continue
            for k1 in range(d + 1):
                for k2 in range(k1, d + 1 - k1):
                    for l in range(d + 1 - k1 - k2):
                        for kind in ("e", "f"):
                            # [x1, [x2, y]] + [x2, [x1, y]] in one raw sum
                            raw = {}
                            for outer, inner in ((k1, k2), (k2, k1)):
                                x = modes[kind, i, outer]
                                z, s = table.get((kind, i, inner),
                                                 (kind, j, l))
                                if z.terms:
                                    x._mul_into(z, raw, s)
                                    z._mul_into(x, raw, -s)
                            settle(rep, _reduce_raw(ctx, raw),
                                   k1 + k2 + l + 3, "%s:i=%d,j=%d,%d,%d,%d",
                                   kind, i, j, k1, k2, l)
    reports.append(rep)

    return reports


def h_variants_check(n, degree):
    """All three diagonal-current routes must give the same series."""
    ctx = _relation_context(n, degree, SL)
    rep = Report("diagonal-current-variants", n=n, degree=degree, mode=SL)
    for i in range(1, n):
        first = current(ctx, "h", i)
        for variant in (2, 3):
            other = h_current(ctx, i, variant=variant)
            for k in range(ctx.max_degree + 1):
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
    rep = Report("current-constants", n=n, degree=degree, mode=SL)
    for i in range(1, n):
        for kind in ("e", "f"):
            rep.check("%s%d" % (kind, i),
                      current(ctx, kind, i).coefficient(0), zero(ctx))
        rep.check("h%d" % i, current(ctx, "h", i).coefficient(0), unit(ctx))
    return rep
