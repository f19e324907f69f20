"""Truncated formal series in u^{-1} with algebra-valued coefficients.

A series of order d stores coefficients of u^0 .. u^-d; everything
beyond u^-d is unknown.  Coefficients are elements, tensor squares, or
tensor cubes over a shared context; the coefficient of u^-k always has
filtration degree at most k, which keeps every series operation exact
under the context degree bound.

The public constructor `Series(...)` checks that invariant for every
coefficient, and so does `map_coeffs`, which applies an arbitrary
function.  The arithmetic builds its results through `Series._trusted`,
which only drops zero coefficients, because there the invariant holds
by construction:

- `+`, `-` and unary `-` combine coefficients of the same power, and a
  sum or difference never has a larger degree than its terms;
- a scalar multiple and `negate_variable` scale each coefficient;
- the Cauchy product puts a_p b_q at u^-(p+q), and a product's degree
  is at most the sum of its factors' degrees (deg <= p + q);
- `shift` moves a_j, scaled, to u^-(j+t) with t >= 0, a higher power;
- `invert` builds u^-k from products a_j b_{k-j}, with b the inverse
  coefficients already built (deg <= j + (k - j));
- `series_outer` puts a_p (x) b_q at u^-(p+q), of degree at most p + q.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .algebra import (
    Tensor, ZERO, ONE, _SCALARS, _exact, _from_products, unit, zero,
)

__all__ = [
    "Series", "SeriesMatrix", "series_outer", "slot_embed",
    "geometric_unit_sum", "scalar_of",
]


def _coeff_zero(ctx, arity):
    return zero(ctx) if arity == 1 else Tensor.zero(ctx, arity)


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
    """Algebra-valued polynomial in u^{-1}, exact up to u^{-order}."""

    __slots__ = ("ctx", "order", "arity", "coeffs")

    def __init__(self, ctx, order, coeffs=None, arity=1):
        if not 1 <= order <= ctx.max_degree:
            raise ValueError("series order must lie in 1..max_degree")
        self.ctx = ctx
        self.order = order
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
    def _trusted(cls, ctx, order, coeffs, arity):
        """A series whose coefficients already keep the invariant.

        Only zero coefficients are dropped; the order, the keys, the
        contexts and the degrees are the caller's to guarantee.
        """
        s = object.__new__(cls)
        s.ctx = ctx
        s.order = order
        s.arity = arity
        s.coeffs = {k: c for k, c in coeffs.items() if c.terms}
        return s

    @classmethod
    def constant(cls, ctx, order, value=ONE, arity=1):
        return cls(ctx, order, {0: _coeff_unit(ctx, arity) * value}, arity)

    def coefficient(self, k):
        c = self.coeffs.get(k)
        return _coeff_zero(self.ctx, self.arity) if c is None else c

    def is_zero(self):
        return not self.coeffs

    def lowest_order(self):
        return min(self.coeffs) if self.coeffs else None

    def map_coeffs(self, fn, arity=None):
        """Apply fn to every stored coefficient (possibly changing arity)."""
        new = {k: fn(c) for k, c in self.coeffs.items()}
        return Series(self.ctx, self.order, new, arity or self.arity)

    def __eq__(self, other):
        return (isinstance(other, Series) and self.ctx == other.ctx
                and self.order == other.order and self.arity == other.arity
                and self.coeffs == other.coeffs)

    __hash__ = None

    def __add__(self, other):
        if type(other) in _SCALARS:
            other = Series.constant(self.ctx, self.order, other, self.arity)
        elif type(other) is not Series:
            return NotImplemented
        if self.ctx != other.ctx or self.arity != other.arity:
            raise ValueError("context mismatch")
        order = min(self.order, other.order)
        out = {k: c for k, c in self.coeffs.items() if k <= order}
        for k, c in other.coeffs.items():
            if k <= order:
                out[k] = out[k] + c if k in out else c
        return Series._trusted(self.ctx, order, out, self.arity)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Series._trusted(self.ctx, self.order,
                               {k: -c for k, c in self.coeffs.items()},
                               self.arity)

    def __sub__(self, other):
        if type(other) in _SCALARS:
            other = Series.constant(self.ctx, self.order, other, self.arity)
        elif type(other) is not Series:
            return NotImplemented
        if self.ctx != other.ctx or self.arity != other.arity:
            raise ValueError("context mismatch")
        order = min(self.order, other.order)
        out = {k: c for k, c in self.coeffs.items() if k <= order}
        for k, c in other.coeffs.items():
            if k <= order:
                out[k] = out[k] - c if k in out else -c
        return Series._trusted(self.ctx, order, out, self.arity)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        """Cauchy product, truncated at the smaller order.

        Every product a_p b_q with p + q = k adds into one raw dict for
        u^-k, and that coefficient is reduced once from the whole sum:
        no intermediate coefficient is built, reduced or copied.
        """
        if type(other) in _SCALARS:
            return Series._trusted(
                self.ctx, self.order,
                {k: v * other for k, v in self.coeffs.items()}, self.arity)
        if type(other) is not Series:
            return NotImplemented
        if self.ctx != other.ctx or self.arity != other.arity:
            raise ValueError("context mismatch")
        order = min(self.order, other.order)
        sums = {}
        for p, a in self.coeffs.items():
            if p > order:
                continue
            for q, b in other.coeffs.items():
                k = p + q
                if k > order:
                    continue
                raw = sums.get(k)
                if raw is None:
                    raw = sums[k] = {}
                a._mul_into(b, raw)
        out = {k: _from_products(self.ctx, self.arity, raw)
               for k, raw in sums.items()}
        return Series._trusted(self.ctx, order, out, self.arity)

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
        return Series._trusted(self.ctx, self.order, out, self.arity)

    def negate_variable(self):
        """The series at argument -u."""
        return Series._trusted(
            self.ctx, self.order,
            {k: -c if k % 2 else c for k, c in self.coeffs.items()},
            self.arity)

    def invert(self):
        """Two-sided multiplicative inverse; needs a scalar leading term."""
        c0 = scalar_of(self.coefficient(0))
        if not c0:
            raise ValueError("leading coefficient must be a nonzero scalar")
        inv0 = _exact(Fraction(1, c0))
        out = {0: _coeff_unit(self.ctx, self.arity) * inv0}
        for k in range(1, self.order + 1):
            acc = None
            for j in range(1, k + 1):
                a = self.coeffs.get(j)
                b = out.get(k - j)
                if a is None or b is None:
                    continue
                v = a * b
                acc = v if acc is None else acc + v
            if acc is not None and not acc.is_zero():
                out[k] = acc * (-inv0)
        return Series._trusted(self.ctx, self.order, out, self.arity)

    def __repr__(self):
        bits = ["u^-%d: %r" % (k, c) for k, c in sorted(self.coeffs.items())]
        return "Series(order=%d; %s)" % (self.order, "; ".join(bits) or "0")


def series_outer(a, b):
    """Tensor-square series with coefficients sum_{p+q=k} a_p (x) b_q."""
    if a.ctx != b.ctx or a.arity != 1 or b.arity != 1:
        raise ValueError("element series expected")
    order = min(a.order, b.order)
    out = {}
    for p, x in a.coeffs.items():
        if p > order:
            continue
        for q, y in b.coeffs.items():
            k = p + q
            if k > order:
                continue
            v = Tensor.of_elements(x, y)
            out[k] = out[k] + v if k in out else v
    return Series._trusted(a.ctx, order, out, 2)


def slot_embed(s, arity, slot):
    """Element series into slot `slot` of an arity-fold tensor series."""
    def embed(el):
        parts = [unit(s.ctx)] * arity
        parts[slot] = el
        return Tensor.of_elements(*parts)
    return s.map_coeffs(embed, arity=arity)


def geometric_unit_sum(t):
    """sum_{m>=0} t^m for a series with no u^0 term."""
    if t.lowest_order() == 0:
        raise ValueError("geometric sum needs a series vanishing at u^0")
    total = Series.constant(t.ctx, t.order, ONE, t.arity)
    power = t
    while not power.is_zero():
        total = total + power
        power = power * t
    return total


class SeriesMatrix:
    """Matrix with series entries sharing one context and order."""

    __slots__ = ("ctx", "order", "size", "rows")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.size = len(self.rows)
        first = self.rows[0][0]
        self.ctx = first.ctx
        self.order = first.order
        for r in self.rows:
            if len(r) != self.size:
                raise ValueError("matrix must be square")
            for s in r:
                if s.ctx != self.ctx or s.order != self.order:
                    raise ValueError("mismatched entries")

    @classmethod
    def identity(cls, ctx, size, order):
        one = Series.constant(ctx, order)
        nil = Series(ctx, order)
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
        n = self.size
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.rows[i][0] * other.rows[0][j]
                for k in range(1, n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return SeriesMatrix(out)

    def inverse(self):
        """Inverse of a matrix whose u^0 part is the identity matrix.

        Write T = sum_p T^(p) u^-p with T^(0) = 1.  Reading T S = 1 at
        u^-k gives the coefficients of the inverse S by recursion:
        S^(0) = 1 and S^(k) = -sum_{p=1..k} T^(p) S^(k-p).  Each entry
        coefficient S^(k)_ij sums T^(p)_il S^(k-p)_lj over p and l into
        one raw dict, reduced once.  A right inverse of a series whose
        leading term is invertible is also its left inverse, so S is
        the unique inverse.
        """
        n, ctx, order = self.size, self.ctx, self.order
        for i in range(n):
            for j in range(n):
                c0 = scalar_of(self.rows[i][j].coefficient(0))
                want = ONE if i == j else ZERO
                if c0 != want:
                    raise ValueError("u^0 part is not the identity")
        arity = self.rows[0][0].arity
        t = [[s.coeffs for s in row] for row in self.rows]
        unit_coeff = _coeff_unit(ctx, arity)
        inv = [[{0: unit_coeff} if i == j else {} for j in range(n)]
               for i in range(n)]
        for k in range(1, order + 1):
            for i in range(n):
                for j in range(n):
                    raw = {}
                    for p in range(1, k + 1):
                        for l in range(n):
                            a = t[i][l].get(p)
                            b = inv[l][j].get(k - p)
                            if a is not None and b is not None:
                                a._mul_into(b, raw, -1)
                    if raw:
                        inv[i][j][k] = _from_products(ctx, arity, raw)
        return SeriesMatrix([[Series._trusted(ctx, order, c, arity)
                              for c in row] for row in inv])

    def __eq__(self, other):
        return isinstance(other, SeriesMatrix) and self.rows == other.rows

    __hash__ = None
