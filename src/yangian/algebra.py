"""Exact noncommutative algebra of truncated Yangian generators.

Generators are symbols T_{i,j}^{(k)} (matrix slot i,j and mode k >= 1).
A symbol is the one code point (k << 8) | (i << 4) | j, and a word is the
str of its symbols, "" the empty word.  Code-point order is then the
monomial order used for normal words, (k, i, j) lexicographic ascending,
and str order extends it to words as tuple order would.  A str caches its
hash, so a word is hashed once however many memos look it up, and a
tensor key, a tuple of words, hashes from those cached hashes.  Four bits
for i and j and eight for k bound n by 15 and the degree by 255
(`Context` checks both), which keeps every symbol below U+10000.
`encode_word` and `decode_word` convert from and to (k, i, j) triples, the
spelling of words at the input (`from_words`, `normal_order`) and output
(`render`) edges.  Mode 0 is never stored; it is the scalar delta_{ij}.

Elements are linear combinations of normal words, truncated by total
filtration degree (the sum of the modes in a word).  Multiplication
normal-orders the exact product first and only then discards words whose
degree exceeds the context bound, so the result is the image of the exact
product under the degree projection.

Products accumulate, then reduce once: `_mul_into` adds every term of a
product into one raw dict, so a sum of products (a series coefficient,
or a bracket [a, b], which adds a b and -b a) is SL-eliminated and cut
once, not once per product.  `add_into` adds an already reduced element
into such a sum, so a residual lhs - rhs of brackets and products is one
raw dict, reduced once.  Sums and differences work in one copied
terms dict.  Tensor products look each slot product up in a graded
table of (word, coefficient, degree) triples and drop a partial key as
soon as its slot degrees pass the bound; slot degrees are nonnegative,
so that is the same cut, made earlier.

Memo values share their parts.  `shared` maps a tuple to the one stored
object equal to it, from one table for every kind of part: the (word,
coefficient) pairs of `normal_form_word` and `_sl_word_nf`, the (word,
coefficient, degree) triples of the slot tables and the (left, right)
keys of `hopf._delta_word`.  Parts of different shapes never compare
equal, so the kinds do not mix.  Only memo misses fill the table, and a
value keeps its parts' values and order: sharing changes object
identity, never a result.  Sharing holds within one scope:
`clear_word_layer` empties the table together with the four memos that
hold its parts, the word layer.  `suites.run_suite` calls it at the
start of each suite and `drinfeld.relations_check` after each relation
family, so a run peaks at its largest suite and the sweep at its largest
family.

Coefficients are exact rationals: an int while integral, a Fraction only
once a denominator appears.  The structure constants are integers, and
2 == Fraction(2) with equal hashes, so the choice changes speed only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

GL = "GL"
SL = "SL"

ZERO = 0
ONE = 1

# Exact scalar operand types, tested by the operand's own type first:
# isinstance against Fraction goes through ABCMeta on every element or
# tensor operand, which is the common case.
_SCALARS = frozenset((int, bool, Fraction))


def _exact(c):
    """The exact coefficient c: an int when integral, else a Fraction."""
    if type(c) is not int:
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
    return c


class TruncationError(ValueError):
    """A requested object does not fit under the context degree bound."""


# the largest matrix size and degree bound whose symbols encode: i and j
# take four bits, k eight
MAX_N = 15
MAX_DEGREE = 255


def symbol(k, i, j):
    """The one-symbol word T_{i,j}^{(k)}."""
    return chr(k << 8 | i << 4 | j)


def decode_symbol(sym):
    """The (k, i, j) triple of a one-symbol word."""
    c = ord(sym)
    return c >> 8, c >> 4 & 15, c & 15


def encode_word(triples):
    """The word of a sequence of (k, i, j) triples."""
    out = []
    for k, i, j in triples:
        if not (1 <= k <= MAX_DEGREE and 1 <= i <= MAX_N
                and 1 <= j <= MAX_N):
            raise ValueError("symbol (%r, %r, %r) out of range" % (k, i, j))
        out.append(symbol(k, i, j))
    return "".join(out)


def decode_word(word):
    """The (k, i, j) triples of a word, in order."""
    return tuple(decode_symbol(sym) for sym in word)


class Context:
    """Ambient algebra: matrix size n, degree bound, GL or SL quotient.

    One instance per (n, max_degree, mode): the arguments are validated
    when a key is first built, and contexts compare and hash by identity.
    """

    __slots__ = ("n", "max_degree", "mode")

    _instances = {}

    def __new__(cls, n, max_degree, mode=GL):
        key = (n, max_degree, mode)
        ctx = cls._instances.get(key)
        if ctx is not None:
            return ctx
        if not 2 <= n <= MAX_N:
            raise ValueError("matrix size must lie in 2..%d" % MAX_N)
        if not 1 <= max_degree <= MAX_DEGREE:
            raise ValueError("degree bound must lie in 1..%d" % MAX_DEGREE)
        if mode not in (GL, SL):
            raise ValueError("mode must be GL or SL")
        ctx = object.__new__(cls)
        object.__setattr__(ctx, "n", n)
        object.__setattr__(ctx, "max_degree", max_degree)
        object.__setattr__(ctx, "mode", mode)
        cls._instances[key] = ctx
        return ctx

    def __setattr__(self, name, value):
        raise AttributeError("contexts are immutable")

    def __repr__(self):
        return "Context(n=%d, max_degree=%d, mode=%s)" % (
            self.n, self.max_degree, self.mode)


@lru_cache(maxsize=None)
def word_degree(word):
    """Total degree of a word: the sum of its modes, memoised per word."""
    d = 0
    for sym in word:
        d += ord(sym) >> 8
    return d


# each part of a memo value, mapped to the one object that stands for it
_SHARED = {}


def shared(part):
    """The one stored tuple equal to part, stored on first sight."""
    return _SHARED.setdefault(part, part)


def _key_degree(key):
    """Total degree of a tensor key: the sum of its slot degrees."""
    d = 0
    for word in key:
        d += word_degree(word)
    return d


# ---------------------------------------------------------------------------
# structure constants and rewriting (context-free: valid for every n)

def _two_symbol_terms(a, b, m1, c, d, m2, sign, out):
    """Accumulate sign * T_{a,b}^{(m1)} T_{c,d}^{(m2)}, collapsing mode 0."""
    if m1 == 0:
        if a != b:
            return
        word = "" if m2 == 0 and c == d else symbol(m2, c, d)
        if m2 == 0 and c != d:
            return
    elif m2 == 0:
        if c != d:
            return
        word = symbol(m1, a, b)
    else:
        word = symbol(m1, a, b) + symbol(m2, c, d)
    out[word] = out.get(word, 0) + sign


@lru_cache(maxsize=None)
def commutator_words(i, j, r, k, l, s):
    """[T_{ij}^{(r)}, T_{kl}^{(s)}] as ((word, int_coeff), ...).

    Closed form derived once from the generating commutation relation
    -(u-v)[T_{ij}(u), T_{kl}(v)] = T_{kj}(u)T_{il}(v) - T_{kj}(v)T_{il}(u)
    by bivariate coefficient matching:
        sum over p = 1..min(r,s) of
            T_{kj}^{(r+s-p)} T_{il}^{(p-1)} - T_{kj}^{(p-1)} T_{il}^{(r+s-p)}
    Every term has degree r+s-1, one lower than the left side.
    """
    out = {}
    for p in range(1, min(r, s) + 1):
        _two_symbol_terms(k, j, r + s - p, i, l, p - 1, 1, out)
        _two_symbol_terms(k, j, p - 1, i, l, r + s - p, -1, out)
    return tuple(sorted((w, c) for w, c in out.items() if c))


@lru_cache(maxsize=None)
def normal_form_word(word):
    """Normal form of an arbitrary word: ((normal_word, int_coeff), ...).

    First-descent rewriting: x y -> y x + [x, y] on the leftmost adjacent
    out-of-order pair.  Terminates because a swap lowers the inversion
    count and a commutator correction lowers the total degree.
    """
    for t in range(len(word) - 1):
        if word[t] > word[t + 1]:
            break
    else:
        return (shared((word, 1)),)
    x, y = word[t], word[t + 1]
    prefix, suffix = word[:t], word[t + 2:]
    out = {}
    for w, c in normal_form_word(prefix + y + x + suffix):
        out[w] = out.get(w, 0) + c
    (rx, ix, jx), (ry, ky, ly) = decode_symbol(x), decode_symbol(y)
    for mid, c0 in commutator_words(ix, jx, rx, ky, ly, ry):
        for w, c in normal_form_word(prefix + mid + suffix):
            out[w] = out.get(w, 0) + c0 * c
    return tuple(sorted(shared((w, c)) for w, c in out.items() if c))


# ---------------------------------------------------------------------------
# SL quotient: eliminate T_{n,n}^{(k)} using the quantum determinant

@lru_cache(maxsize=None)
def _sl_elimination(n, k):
    """Replacement of T_{n,n}^{(k)}: T_{nn}-free normal terms as a tuple.

    Solves coefficient_k(qdet) = 0 for T_{n,n}^{(k)}; the lower modes of
    T_{n,n} left in that coefficient are eliminated through _sl_word_nf.
    """
    # imported here because rtt imports this module
    from .rtt import qdet

    coeffs = qdet(Context(n, k, GL)).coefficient(k).terms
    raw = {w: int(c) for w, c in coeffs.items()}
    assert raw == coeffs, "qdet coefficient is not integral"
    lead = raw.pop(symbol(k, n, n), 0)
    assert lead == 1, "qdet coefficient is not monic in T_nn"
    out = {}
    for word, coeff in raw.items():
        for w, c in _sl_word_nf(n, word):
            out[w] = out.get(w, 0) - coeff * c
    return tuple(sorted((w, c) for w, c in out.items() if c))


@lru_cache(maxsize=None)
def _sl_word_nf(n, word):
    """Rewrite a GL normal word into T_{nn}-free normal words.

    Substitutes the first T_{n,n}^{(m)} symbol and renormalizes; any
    reintroduced T_{n,n} has strictly lower degree, so this terminates.
    """
    nn = n << 4 | n
    for t, sym in enumerate(word):
        if ord(sym) & 255 == nn:
            break
    else:
        return (shared((word, 1)),)
    m = ord(sym) >> 8
    prefix, suffix = word[:t], word[t + 1:]
    out = {}
    for w_sub, c_sub in _sl_elimination(n, m):
        for w_nf, c_nf in normal_form_word(prefix + w_sub + suffix):
            for w_fin, c_fin in _sl_word_nf(n, w_nf):
                out[w_fin] = out.get(w_fin, 0) + c_sub * c_nf * c_fin
    return tuple(sorted(shared((w, c)) for w, c in out.items() if c))


# ---------------------------------------------------------------------------
# elements

def _mentions_tnn(raw, n):
    """Whether some word of raw holds a T_nn symbol."""
    nn = n << 4 | n
    for w in raw:
        for sym in w:
            if ord(sym) & 255 == nn:
                return True
    return False


def _reduce_raw(ctx, raw):
    """Canonical terms for a raw {GL normal word: coefficient} map.

    Applies the SL elimination when required, then drops zero
    coefficients and words over the degree bound (the projection).
    """
    if ctx.mode == SL and _mentions_tnn(raw, ctx.n):
        n = ctx.n
        redone = {}
        for word, coeff in raw.items():
            if coeff == 0:
                continue
            for w, c in _sl_word_nf(n, word):
                redone[w] = redone.get(w, ZERO) + coeff * c
        raw = redone
    return {w: c for w, c in raw.items()
            if c and word_degree(w) <= ctx.max_degree}


def _foreign(other):
    """The result of a sum, difference or product with an operand of
    another type: the context mismatch for an element or tensor (their
    arities differ), else NotImplemented, so that Python tries the
    reflected operator and then raises TypeError."""
    if isinstance(other, LinearCombination):
        raise ValueError("context mismatch")
    return NotImplemented


class LinearCombination:
    """Linear combination of keys with exact coefficients over a context.

    Holds the vector-space operations shared by elements (keys are normal
    words) and tensors (keys are tuples of normal words, one per slot).
    A subclass supplies its product, its unit, `_like` (a result of the
    same kind built from trusted terms) and its degree.
    """

    __slots__ = ("ctx", "terms")

    def is_zero(self):
        return not self.terms

    def items_sorted(self):
        return sorted(self.terms.items())

    def __repr__(self):
        """The terms as render's text style spells them."""
        # imported here because render imports this module
        from . import render
        return render.terms(self, render.TEXT)

    def __eq__(self, other):
        if type(other) in _SCALARS:
            other = self._unit() * other
        return (isinstance(other, type(self)) and self.ctx == other.ctx
                and self.arity == other.arity and self.terms == other.terms)

    __hash__ = None

    def __add__(self, other):
        if type(other) in _SCALARS:
            other = self._unit() * other
        elif type(other) is not type(self):
            return _foreign(other)
        if self.ctx != other.ctx or self.arity != other.arity:
            raise ValueError("context mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, ZERO) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return self._like(out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) in _SCALARS:
            other = self._unit() * other
        elif type(other) is not type(self):
            return _foreign(other)
        if self.ctx != other.ctx or self.arity != other.arity:
            raise ValueError("context mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, ZERO) - c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return self._like(out)

    def __rsub__(self, other):
        if type(other) not in _SCALARS:
            return NotImplemented
        return (self._unit() * other).__sub__(self)

    def _scale(self, c):
        c = _exact(c)
        if not c:
            return self._like({})
        return self._like({k: c * v for k, v in self.terms.items()})

    def __rmul__(self, other):
        if type(other) in _SCALARS:
            return self._scale(other)
        return NotImplemented


class Element(LinearCombination):
    """Exact linear combination of normal words under a context."""

    __slots__ = ()
    arity = 1

    def __init__(self, ctx, raw=None):
        self.ctx = ctx
        self.terms = _reduce_raw(ctx, raw) if raw else {}

    @classmethod
    def _trusted(cls, ctx, terms):
        el = cls.__new__(cls)
        el.ctx = ctx
        el.terms = terms
        return el

    def _like(self, terms):
        # _trusted written out: sums of elements are the hottest call
        el = object.__new__(Element)
        el.ctx = self.ctx
        el.terms = terms
        return el

    def _unit(self):
        return unit(self.ctx)

    def degree(self):
        return max((word_degree(w) for w in self.terms), default=0)

    def constant(self):
        """Coefficient of the empty word."""
        return self.terms.get("", ZERO)

    def _mul_into(self, other, raw, factor=1):
        """Add factor * (the GL normal form of self * other) into raw,
        uncut; the factor is an integer, a sign in a signed sum."""
        for w1, c1 in self.terms.items():
            if factor != 1:
                c1 = c1 * factor
            for w2, c2 in other.terms.items():
                c = c1 * c2
                for w, k in normal_form_word(w1 + w2):
                    raw[w] = raw.get(w, ZERO) + c * k

    def __mul__(self, other):
        if type(other) in _SCALARS:
            return self._scale(other)
        if type(other) is not Element:
            return _foreign(other)
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")
        raw = {}
        self._mul_into(other, raw)
        return Element(self.ctx, raw)


def zero(ctx):
    return Element._trusted(ctx, {})


def unit(ctx):
    return Element._trusted(ctx, {"": ONE})


def generator(ctx, i, j, k):
    """The element T_{i,j}^{(k)}; eliminated form in SL mode when i=j=n."""
    if not (1 <= i <= ctx.n and 1 <= j <= ctx.n):
        raise ValueError("matrix indices out of range")
    if k < 1:
        raise ValueError("mode must be at least 1")
    if k > ctx.max_degree:
        raise TruncationError("mode %d exceeds degree bound %d"
                              % (k, ctx.max_degree))
    if ctx.mode == SL and i == j == ctx.n:
        return Element(ctx, {symbol(k, i, j): ONE})
    # one symbol is a normal word within the bound: nothing to reduce
    return Element._trusted(ctx, {symbol(k, i, j): ONE})


def from_words(ctx, raw):
    """Element from a {word: coefficient} map (words need not be normal).

    A word is a str or a sequence of (k, i, j) triples, which is encoded.
    """
    exact = {}
    for word, coeff in raw.items():
        coeff = _exact(coeff)
        if not coeff:
            continue
        if type(word) is not str:
            word = encode_word(word)
        for w, c in normal_form_word(word):
            exact[w] = exact.get(w, ZERO) + coeff * c
    return Element(ctx, exact)


def normal_order(ctx, word):
    """Normal form of one word as an element.

    The input word, a str or a sequence of (k, i, j) triples, may be
    arbitrary but must respect the degree bound.
    """
    if type(word) is not str:
        word = encode_word(word)
    if word_degree(word) > ctx.max_degree:
        raise TruncationError("word degree exceeds the context bound")
    return from_words(ctx, {word: ONE})


def mode_commutator(ctx, i, j, r, k, l, s):
    """[T_{ij}^{(r)}, T_{kl}^{(s)}] as an element of the context."""
    for idx in (i, j, k, l):
        if not 1 <= idx <= ctx.n:
            raise ValueError("matrix indices out of range")
    if r < 1 or s < 1:
        raise ValueError("modes must be at least 1")
    if r + s - 1 > ctx.max_degree:
        raise TruncationError("commutator degree %d exceeds bound %d"
                              % (r + s - 1, ctx.max_degree))
    return from_words(ctx, dict(commutator_words(i, j, r, k, l, s)))


def add_into(raw, x, factor=1):
    """Add factor * x, an already reduced element or tensor, into a raw
    sum; a sum that reduces once is then exact term by term."""
    for w, c in x.terms.items():
        raw[w] = raw.get(w, ZERO) + factor * c


def _from_products(ctx, arity, raw):
    """The element or tensor of a raw sum that `_mul_into` calls added into.

    Element products add uncut GL normal words, reduced here once; tensor
    products add keys already reduced and cut, with no zero stored.
    """
    if arity == 1:
        return Element(ctx, raw)
    return Tensor._trusted(ctx, arity, raw)


def commutator(a, b):
    """[a, b] = a b - b a, both products added into one raw dict.

    The SL elimination and the degree cut run once on the sum, not once
    per product; both are linear, so the result is the same.  Operands
    other than elements and tensors raise TypeError.
    """
    if not (isinstance(a, LinearCombination)
            and isinstance(b, LinearCombination)):
        raise TypeError("commutator of %s and %s"
                        % (type(a).__name__, type(b).__name__))
    if a.ctx != b.ctx or a.arity != b.arity:
        raise ValueError("context mismatch")
    raw = {}
    a._mul_into(b, raw)
    b._mul_into(a, raw, -1)
    return _from_products(a.ctx, a.arity, raw)


def sl_reduce(el, ctx=None):
    """Image of an element in the SL quotient (T_{n,n} modes eliminated).

    The element may live in the GL twin of the target context.
    """
    target = ctx or el.ctx
    if target.mode != SL:
        raise ValueError("target context must be SL")
    if el.ctx.n != target.n:
        raise ValueError("context mismatch")
    return Element(target, dict(el.terms))


# ---------------------------------------------------------------------------
# tensor squares and cubes (componentwise products, slot-wise normal order)

# per (n, mode): {(w1, w2): ((word, coeff, degree), ...)} for one slot
_SLOT_TABLES = {}

# The word layer: the share table and every memo whose values hold its
# parts, as their clear methods.  `hopf`, which imports this module,
# adds `_delta_word` through `word_layer_memo`.
_WORD_LAYER = [_SHARED.clear, normal_form_word.cache_clear,
               _sl_word_nf.cache_clear, _SLOT_TABLES.clear]


def word_layer_memo(memo):
    """Add an lru_cache memo whose values hold shared parts to the word
    layer, so that `clear_word_layer` empties it; returns memo itself."""
    _WORD_LAYER.append(memo.cache_clear)
    return memo


def clear_word_layer():
    """Empty the share table together with every memo holding its parts.

    Emptying the table alone would leave memo values holding parts that
    later misses store again as new objects; emptied together, equal
    parts stay one object.  The other memos hold no shared parts and
    are left as they are.  The memos are of pure functions, so a clear
    changes which equal objects are shared, never a value.  Callers:
    `suites.run_suite` before each suite, and `drinfeld.relations_check`
    after each relation family; the families share so few words that
    this adds only 8% normal-form misses (14,691 -> 15,889 at n = 5,
    degree 2; 262,377 -> 277,335 at n = 6, degree 3).
    """
    for clear in _WORD_LAYER:
        clear()


def _slot_product(n, mode, w1, w2):
    """Graded terms of one slot product w1 * w2 in the quotient, uncut."""
    out = {}
    for w, c in normal_form_word(w1 + w2):
        if mode == SL:
            for v, cv in _sl_word_nf(n, w):
                out[v] = out.get(v, 0) + c * cv
        else:
            out[w] = out.get(w, 0) + c
    return tuple(shared((w, c, word_degree(w))) for w, c in out.items() if c)


class Tensor(LinearCombination):
    """Linear combination of slot tuples (word, word, ...) over a context.

    The product is componentwise; the total degree (sum over slots) is
    truncated by the context bound.  Each slot product is read from a
    graded table (see _slot_product), and a partial key is dropped as
    soon as the degrees of its slots so far pass the bound.
    """

    __slots__ = ("arity",)

    def __init__(self, ctx, arity, raw=None):
        self.ctx = ctx
        self.arity = arity
        terms = {}
        if raw:
            bound = ctx.max_degree
            for key, coeff in raw.items():
                if not coeff:
                    continue
                if _key_degree(key) <= bound:
                    terms[key] = coeff
        self.terms = terms

    @classmethod
    def _trusted(cls, ctx, arity, terms):
        t = cls.__new__(cls)
        t.ctx = ctx
        t.arity = arity
        t.terms = terms
        return t

    def _like(self, terms):
        return Tensor._trusted(self.ctx, self.arity, terms)

    def _unit(self):
        return Tensor.unit(self.ctx, self.arity)

    @classmethod
    def unit(cls, ctx, arity=2):
        return cls._trusted(ctx, arity, {("",) * arity: ONE})

    @classmethod
    def zero(cls, ctx, arity=2):
        return cls._trusted(ctx, arity, {})

    @classmethod
    def of_elements(cls, *parts):
        """Outer product e_1 (x) e_2 (x) ... of elements.

        Element terms are already normal (and T_{nn}-free in SL mode), so
        the product needs only the cut at the context's degree bound.
        """
        ctx = parts[0].ctx
        terms = {(): ONE}
        for el in parts:
            if el.ctx != ctx:
                raise ValueError("context mismatch")
            terms = {key + (w,): c * c2 for key, c in terms.items()
                     for w, c2 in el.terms.items()}
        return cls(ctx, len(parts), terms)

    def degree(self):
        """Total degree: the largest sum of slot degrees over the keys."""
        return max((_key_degree(key) for key in self.terms), default=0)

    def _mul_into(self, other, out, sign=1):
        """Add sign times the slotwise product self * other into out, cut.

        The last two slots run as one nested loop that builds each result
        key once; a cube first extends partial keys (head, coefficient,
        degree sum) over its leading slot.
        """
        n, mode, bound = self.ctx.n, self.ctx.mode, self.ctx.max_degree
        table = _SLOT_TABLES.setdefault((n, mode), {})
        lead = self.arity - 2
        for k1, c1 in self.terms.items():
            if sign < 0:
                c1 = -c1
            for k2, c2 in other.terms.items():
                heads = (((), c1 * c2, 0),)
                for s in range(lead):
                    pair = k1[s], k2[s]
                    terms = table.get(pair)
                    if terms is None:
                        terms = table[pair] = _slot_product(n, mode, *pair)
                    heads = [(head + (w,), c * cw, d + dw)
                             for head, c, d in heads
                             for w, cw, dw in terms
                             if d + dw <= bound]
                pair = k1[lead], k2[lead]
                left = table.get(pair)
                if left is None:
                    left = table[pair] = _slot_product(n, mode, *pair)
                pair = k1[lead + 1], k2[lead + 1]
                right = table.get(pair)
                if right is None:
                    right = table[pair] = _slot_product(n, mode, *pair)
                for head, c, d in heads:
                    for wa, ca, da in left:
                        room = bound - d - da
                        if room < 0:
                            continue
                        ca *= c
                        for wb, cb, db in right:
                            if db > room:
                                continue
                            key = head + (wa, wb)
                            v = out.get(key, ZERO) + ca * cb
                            if v:
                                out[key] = v
                            elif key in out:
                                del out[key]

    def __mul__(self, other):
        if type(other) in _SCALARS:
            return self._scale(other)
        if type(other) is not Tensor:
            return _foreign(other)
        if self.ctx != other.ctx or self.arity != other.arity:
            raise ValueError("context mismatch")
        out = {}
        self._mul_into(other, out)
        return self._like(out)
