"""Truncated formal series in u^{-1} with algebra-valued coefficients.

A series stores coefficients of u^0 .. u^-d, with d the degree bound
of its context, and is exact through u^-d; everything beyond u^-d is
unknown.  So every series of one context has one order, and any two
series that meet in an operation are cut at the same power.
Coefficients are elements, tensor squares, or tensor cubes over a
shared context; the coefficient of u^-k always has filtration degree at
most k, which keeps every series operation exact under the context
degree bound.

The public constructor `Series(...)` checks that invariant for every
coefficient, and so does `map_coeffs`, which applies an arbitrary
function.  The arithmetic builds its results through `Series._trusted`,
which only drops zero coefficients, because there the invariant holds
by construction:

- `+`, `-` and unary `-` combine coefficients of the same power, and a
  sum or difference never has a larger degree than its terms;
- a scalar multiple and `negate_variable` scale each coefficient;
- `product_sum` puts every a_p b_q of its signed products at u^-(p+q),
  and a product's degree is at most the sum of its factors' degrees
  (deg <= p + q); the Cauchy product, the matrix product and the minor
  expansions of `rtt` are its sums of one, n and m products;
- `outer_sum` puts every a_p (x) b_q at u^-(p+q) likewise, and needs no
  cut: a key (w1, w2) has degree at most p + q <= d;
- `shift` moves a_j, scaled, to u^-(j+t) with t >= 0, a higher power;
- `_inverse`, the one inverse recursion behind `Series.invert` and
  `SeriesMatrix.inverse`, builds u^-k from products T^(p) S^(k-p), with
  S the inverse coefficients already built (deg <= p + (k - p)).

The two sums share one loop, `_pair_sums`, that adds every pair of one
power into one raw dict; `_inverse` adds its products the same way.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .algebra import (
    Element, Tensor, ZERO, ONE, _SCALARS, _exact, _from_products, unit,
)

__all__ = [
    "Series", "SeriesMatrix", "outer_sum", "product_sum", "series_outer",
    "scalar_of",
]


def _coeff_unit(ctx, arity):
    return unit(ctx) if arity == 1 else Tensor.unit(ctx, arity)


def scalar_of(coeff):
    """The exact scalar c with coeff == c * 1, or None if not scalar."""
    if not coeff.terms:
        return ZERO
    if len(coeff.terms) == 1 and coeff.degree() == 0:
        return next(iter(coeff.terms.values()))
    return None


class Series:
    """Algebra-valued polynomial in u^{-1}, exact up to u^{-order}, where
    order is the degree bound of the context."""

    __slots__ = ("ctx", "order", "arity", "coeffs")

    def __init__(self, ctx, coeffs=None, arity=1):
        self.ctx = ctx
        self.order = order = ctx.max_degree
        self.arity = arity
        out = {}
        if coeffs:
            for k, c in coeffs.items():
                if k < 0 or k > order or c.is_zero():
                    continue
                if c.ctx != ctx or c.arity != arity:
                    raise ValueError("context mismatch")
                deg = c.degree()
                if deg > k:
                    raise ValueError("coefficient of u^-%d has degree %d"
                                     % (k, deg))
                out[k] = c
        self.coeffs = out

    @classmethod
    def _trusted(cls, ctx, coeffs, arity):
        """A series whose coefficients already keep the invariant.

        Only zero coefficients are dropped; the keys, the contexts and
        the degrees are the caller's to guarantee.
        """
        s = object.__new__(cls)
        s.ctx = ctx
        s.order = ctx.max_degree
        s.arity = arity
        s.coeffs = {k: c for k, c in coeffs.items() if c.terms}
        return s

    @classmethod
    def constant(cls, ctx, *, value=ONE, arity=1):
        return cls(ctx, {0: _coeff_unit(ctx, arity) * value}, arity)

    def coefficient(self, k):
        c = self.coeffs.get(k)
        return _from_products(self.ctx, self.arity, {}) if c is None else c

    def is_zero(self):
        return not self.coeffs

    def map_coeffs(self, fn, arity=None):
        """Apply fn to every stored coefficient (possibly changing arity)."""
        new = {k: fn(c) for k, c in self.coeffs.items()}
        return Series(self.ctx, new, arity or self.arity)

    def __eq__(self, other):
        return (isinstance(other, Series) and self.ctx == other.ctx
                and self.arity == other.arity
                and self.coeffs == other.coeffs)

    __hash__ = None

    def __add__(self, other):
        if type(other) in _SCALARS:
            other = Series.constant(self.ctx, value=other, arity=self.arity)
        elif type(other) is not Series:
            return NotImplemented
        if self.ctx != other.ctx or self.arity != other.arity:
            raise ValueError("context mismatch")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return Series._trusted(self.ctx, out, self.arity)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Series._trusted(self.ctx,
                               {k: -c for k, c in self.coeffs.items()},
                               self.arity)

    def __sub__(self, other):
        if type(other) in _SCALARS:
            other = Series.constant(self.ctx, value=other, arity=self.arity)
        elif type(other) is not Series:
            return NotImplemented
        if self.ctx != other.ctx or self.arity != other.arity:
            raise ValueError("context mismatch")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] - c if k in out else -c
        return Series._trusted(self.ctx, out, self.arity)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        """Cauchy product, truncated at the context's order: the one-term
        case of `product_sum`."""
        if type(other) in _SCALARS:
            return Series._trusted(
                self.ctx, {k: v * other for k, v in self.coeffs.items()},
                self.arity)
        if type(other) is not Series:
            return NotImplemented
        return product_sum(self.ctx, self.arity, ((self, other, 1),))

    def __rmul__(self, other):
        if type(other) in _SCALARS:
            return self.__mul__(other)
        return NotImplemented

    def shift(self, c):
        """The series at argument u + c, re-expanded around u.

        u^{-j} = sum_{t>=0} binom(-j, t) c^t u^{-j-t} once shifted, so the
        new u^{-k} coefficient collects every j <= k.
        """
        c = _exact(c)
        if not c:
            return self
        out = {}
        for j, a in self.coeffs.items():
            out[j] = out[j] + a if j in out else a
            if j == 0:
                continue
            power = ONE
            for t in range(1, self.order - j + 1):
                power *= c
                w = comb(j + t - 1, t) * power
                if t % 2:
                    w = -w
                k = j + t
                v = a * w
                out[k] = out[k] + v if k in out else v
        return Series._trusted(self.ctx, out, self.arity)

    def negate_variable(self):
        """The series at argument -u."""
        return Series._trusted(
            self.ctx, {k: -c if k % 2 else c for k, c in self.coeffs.items()},
            self.arity)

    def invert(self):
        """Two-sided multiplicative inverse; needs a scalar leading term."""
        c0 = scalar_of(self.coefficient(0))
        if not c0:
            raise ValueError("leading coefficient must be a nonzero scalar")
        return _inverse([[self]], c0)[0][0]

    def __repr__(self):
        bits = ["u^-%d: %r" % (k, c) for k, c in sorted(self.coeffs.items())]
        return "Series(order=%d; %s)" % (self.order, "; ".join(bits) or "0")


def _pair_sums(ctx, arity, terms, step):
    """{k: raw}: step(a_p, b_q, raw, sign) run on every pair p + q = k <= d
    of every (a, b, sign) term, a and b series of ctx and arity."""
    order = ctx.max_degree
    sums = {}
    for a, b, sign in terms:
        if (a.ctx != ctx or b.ctx != ctx
                or a.arity != arity or b.arity != arity):
            raise ValueError("context mismatch")
        for p, x in a.coeffs.items():
            for q, y in b.coeffs.items():
                if p + q <= order:
                    step(x, y, sums.setdefault(p + q, {}), sign)
    return sums


def product_sum(ctx, arity, terms):
    """sum sign * a * b over the (a, b, sign) terms, as one series.

    Every product a_p b_q with p + q = k adds into one raw dict for u^-k,
    reduced once: no intermediate product or partial sum is built.  A
    sign is 1 or -1; an empty sum is the zero series of ctx and arity.
    """
    step = Element._mul_into if arity == 1 else Tensor._mul_into
    sums = _pair_sums(ctx, arity, terms, step)
    return Series._trusted(
        ctx, {k: _from_products(ctx, arity, raw) for k, raw in sums.items()},
        arity)


def _outer_into(x, y, raw, sign):
    """Add sign * x (x) y into raw; a key whose sum is zero is dropped."""
    for w1, c1 in x.terms.items():
        if sign < 0:
            c1 = -c1
        for w2, c2 in y.terms.items():
            key = w1, w2
            v = raw.get(key, ZERO) + c1 * c2
            if v:
                raw[key] = v
            elif key in raw:
                del raw[key]


def outer_sum(ctx, terms):
    """sum sign * a (x) b over (a, b, sign) terms of element series, as
    one tensor-square series: `product_sum` with each a_p (x) b_q added
    key by key, no zero stored and nothing cut.  1 (x) x is the term
    (Series.constant(ctx), x, 1)."""
    sums = _pair_sums(ctx, 1, terms, _outer_into)
    return Series._trusted(
        ctx, {k: Tensor._trusted(ctx, 2, raw) for k, raw in sums.items()}, 2)


def series_outer(a, b):
    """sum_{p+q=k} a_p (x) b_q at u^-k: the one-term `outer_sum`."""
    return outer_sum(a.ctx, ((a, b, 1),))


def _inverse(rows, c0):
    """The inverse of a square matrix of series whose u^0 part is c0
    times the identity, c0 a nonzero scalar.

    Write T = sum_p T^(p) u^-p with T^(0) = c0.  Reading T S = 1 at u^-k
    gives the coefficients of the inverse S by recursion: S^(0) = 1/c0
    and S^(k) = -(1/c0) sum_{p=1..k} T^(p) S^(k-p).  Each entry
    coefficient S^(k)_ij sums T^(p)_il S^(k-p)_lj over p and l into one
    raw dict, reduced once.  A right inverse of a series whose leading
    term is invertible is also its left inverse, so S is the unique
    inverse.  A series is the 1 x 1 case.
    """
    n = len(rows)
    ctx, arity = rows[0][0].ctx, rows[0][0].arity
    inv0 = _exact(Fraction(1, c0))
    lead = _coeff_unit(ctx, arity) * inv0
    t = [[s.coeffs for s in row] for row in rows]
    inv = [[{0: lead} if i == j else {} for j in range(n)]
           for i in range(n)]
    for k in range(1, ctx.max_degree + 1):
        for i in range(n):
            for j in range(n):
                raw = {}
                for p in range(1, k + 1):
                    for l in range(n):
                        a = t[i][l].get(p)
                        b = inv[l][j].get(k - p)
                        if a is not None and b is not None:
                            a._mul_into(b, raw, -1)
                c = _from_products(ctx, arity, raw)
                if c.terms:
                    inv[i][j][k] = c if inv0 == 1 else c * inv0
    return [[Series._trusted(ctx, c, arity) for c in row] for row in inv]


class SeriesMatrix:
    """Matrix with series entries sharing one context."""

    __slots__ = ("ctx", "size", "rows")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.size = len(self.rows)
        first = self.rows[0][0]
        self.ctx = first.ctx
        for r in self.rows:
            if len(r) != self.size:
                raise ValueError("matrix must be square")
            for s in r:
                if s.ctx != self.ctx:
                    raise ValueError("mismatched entries")

    @classmethod
    def identity(cls, ctx, size):
        one = Series.constant(ctx)
        nil = Series(ctx)
        return cls([[one if i == j else nil for j in range(size)]
                    for i in range(size)])

    def entry(self, i, j):
        """1-based access."""
        return self.rows[i - 1][j - 1]

    def __add__(self, other):
        return SeriesMatrix([[a + b for a, b in zip(r1, r2)]
                             for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return SeriesMatrix([[a - b for a, b in zip(r1, r2)]
                             for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        """Entry (i, j) is the sum over l of a_il b_lj: one `product_sum`."""
        ctx, arity = self.ctx, self.rows[0][0].arity
        cols = list(zip(*other.rows))
        return SeriesMatrix([
            [product_sum(ctx, arity, ((a, b, 1) for a, b in zip(row, col)))
             for col in cols]
            for row in self.rows])

    def inverse(self):
        """Inverse of a matrix whose u^0 part is the identity matrix: the
        recursion of `_inverse` with c0 = 1."""
        n = self.size
        for i in range(n):
            for j in range(n):
                c0 = scalar_of(self.rows[i][j].coefficient(0))
                want = ONE if i == j else ZERO
                if c0 != want:
                    raise ValueError("u^0 part is not the identity")
        return SeriesMatrix(_inverse(self.rows, ONE))

    def __eq__(self, other):
        return isinstance(other, SeriesMatrix) and self.rows == other.rows

    __hash__ = None
