"""JSON payloads; text and LaTeX through one term formatter."""

from collections import namedtuple

from .algebra import decode_word
from .series import Series, scalar_of

_SLOT_NAMES = {1: ("word",), 2: ("left", "right"),
               3: ("left", "middle", "right")}


def _frac_text(c):
    return "%d/%d" % (c.numerator, c.denominator) if c.denominator != 1 \
        else str(c.numerator)


def _frac_latex(c):
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c.numerator < 0 else ""
    return r"%s\tfrac{%d}{%d}" % (sign, abs(c.numerator), c.denominator)


def params_payload(params):
    """Parameters as JSON values: ints, strings and bools as they are."""
    return {k: (v if isinstance(v, (int, str)) else str(v))
            for k, v in params.items()}


def _slotted(coeff):
    """(slot words, scalar) pairs; an element is the one-slot case."""
    if coeff.arity == 1:
        return (((w,), c) for w, c in coeff.items_sorted())
    return coeff.items_sorted()


# ---------------------------------------------------------------------------
# JSON

def _terms_payload(coeff):
    names = _SLOT_NAMES[coeff.arity]
    out = []
    for slots, c in _slotted(coeff):
        item = {"coeff": _frac_text(c)}
        for name, w in zip(names, slots):
            item[name] = [[i, j, k] for (k, i, j) in decode_word(w)]
        out.append(item)
    return out


def payload(obj):
    """JSON value of an element, a tensor or a series."""
    if not isinstance(obj, Series):
        return _terms_payload(obj)
    out = {"order": obj.order, "coeffs": {}}
    c0 = obj.coefficient(0)
    scalar = scalar_of(c0)
    if scalar is not None:
        out["constant"] = _frac_text(scalar)
    else:
        out["coeffs"]["0"] = _terms_payload(c0)
    for k in sorted(obj.coeffs):
        if k > 0:
            out["coeffs"][str(k)] = _terms_payload(obj.coeffs[k])
    return out


# ---------------------------------------------------------------------------
# text and LaTeX

# spellings of a scalar, a generator T_ij^(k), the tensor sign, the gap
# between a scalar and the word it multiplies, and the explicit product
# that joins a scalar to a tensor whose first slot is the unit 1
Style = namedtuple("Style", "frac symbol tensor gap product")

TEXT = Style(_frac_text, "T[%d](%d,%d)", " (x) ", " ", " * ")
LATEX = Style(_frac_latex, r"T^{(%d)}_{%d,%d}", r" \otimes ", r"\, ",
              r" \cdot ")


def terms(coeff, style):
    """An element or tensor as a signed sum of terms, e.g. `a - 2 b`;
    a scalar before a unit slot is joined by the product, `-2 * 1 (x) a`,
    so that the 1 does not read as a second scalar."""
    out = ""
    for slots, c in _slotted(coeff):
        if not any(slots):
            term = style.frac(c)
        else:
            body = style.tensor.join(
                " ".join(style.symbol % sym for sym in decode_word(w)) or "1"
                for w in slots)
            if c == 1:
                term = body
            elif c == -1:
                term = "-" + body
            else:
                term = style.frac(c) + (style.gap if slots[0]
                                        else style.product) + body
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out or "0"


def plain(obj):
    """Text lines: one per power u^-k of a series."""
    if not isinstance(obj, Series):
        return [terms(obj, TEXT)]
    lines = ["u^%-3s %s" % ("-%d:" % k if k else "0:",
                            terms(obj.coeffs[k], TEXT))
             for k in sorted(obj.coeffs)]
    return lines or ["0"]


def latex(obj):
    """One LaTeX line: a series as a sum of bracketed u^{-k} terms."""
    if not isinstance(obj, Series):
        return terms(obj, LATEX)
    bits = []
    for k in sorted(obj.coeffs):
        body = terms(obj.coeffs[k], LATEX)
        bits.append(body if k == 0 else r"\left(%s\right) u^{-%d}" % (body, k))
    return " + ".join(bits) or "0"
