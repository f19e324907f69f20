"""Generating matrix of the truncated Yangian and its quantum minors.

The rational R-matrix checks run over exact rational spectral points.
R = I + P/u has at most two nonzeros per row, and its lifts to the
tensor cube keep that, so `embed_pair` writes only the nonzeros and
`mat_mul` runs each nonzero of x over the listed nonzeros of a row of
y; both still take and return dense lists of rows, and the checks
compare full exact matrices.  The Yang-Baxter check multiplies the
integer matrices q u R(u) = p I + q P at u = p/q: the equation is
homogeneous in each R factor, so scaling every factor by a nonzero
integer keeps it exactly and leaves no fraction to reduce.

Everything else works with the matrix T(u) of generator series: quantum
determinant, quantum minors with their expansions and commutation
relations, Gauss decompositions in both triangular orders, and the
reflected matrix (T(-u))^{-1} whose minors mirror ordinary ones.  One
pass per index set checks the commutation of every entry with the minor
and the centrality of the minor in its own indices: it looks the minor
and its row- and column-replaced minors up once and forms each bracket
of an entry coefficient with a minor coefficient once, for both reports.
Each commutation case is one residual sum: its brackets and the products
of its right side, read from the stored coefficients with absent ones
skipped, add into one raw dict that is reduced once.  Reduction is
linear and the brackets are already reduced, so the residual is exactly
lhs - rhs; an element and a label are built only when it is nonzero.
Every series is cut at the degree bound of its context, so entries
T_ij(u), each shifted entry T_ij(u+c), quantum minors and the inverse
T(u)^{-1} are memoised per context, keyed by nothing but the context
and indices; the reflected matrix is that inverse read at -u.  The
minor cache answers a key exactly as given before it checks and sorts
the rows.  A sweep over the minors of one reflected matrix shares one
sub-minor memo.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import compress, permutations

from .algebra import (
    Context, Element, GL, SL, ZERO, ONE, _reduce_raw, add_into, commutator,
    generator, unit, zero,
)
from .series import Series, SeriesMatrix, product_sum
from .report import Report


# ---------------------------------------------------------------------------
# rational R-matrix over exact spectral points

def perm_sign(perm):
    inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
              if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def _spectral_point(u):
    u = Fraction(u)
    if u == 0:
        raise ValueError("spectral point must be nonzero")
    return u


def _identity_plus_swap(n, x, y):
    """x I + y P on the tensor square, as an n^2 x n^2 matrix."""
    size = n * n
    out = [[ZERO] * size for _ in range(size)]
    for a in range(n):
        for b in range(n):
            row = a * n + b
            out[row][row] += x
            out[row][b * n + a] += y
    return out


def rmatrix(n, u):
    """R(u) = I + P/u on the tensor square, as an n^2 x n^2 matrix."""
    return _identity_plus_swap(n, 1, 1 / _spectral_point(u))


def scaled_rmatrix(n, u):
    """q u R(u) = p I + q P at u = p/q in lowest terms: an integer matrix
    with the nonzeros of R(u), proportional to it by the nonzero q u."""
    u = _spectral_point(u)
    return _identity_plus_swap(n, u.numerator, u.denominator)


def transposed_rmatrix(n, u):
    """R with its two tensor slots swapped, built by explicit reindexing."""
    r = rmatrix(n, u)
    size = n * n
    out = [[ZERO] * size for _ in range(size)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    out[a * n + b][c * n + d] = r[b * n + a][d * n + c]
    return out


def mat_mul(x, y):
    """Product of two dense square matrices (lists of rows).

    The R-matrix lifts have a few nonzeros per row, so the nonzeros of
    each row of y are listed once and every nonzero of x runs over that
    list only; `compress` picks the nonzeros of a row.  Products are
    summed in the same order as the dense loop.
    """
    size = len(x)
    span = range(size)
    y_rows = [[(j, row[j]) for j in compress(span, row)] for row in y]
    out = []
    for x_row in x:
        row = [ZERO] * size
        for k in compress(span, x_row):
            xv = x_row[k]
            for j, yv in y_rows[k]:
                row[j] += xv * yv
        out.append(row)
    return out


def mat_identity(size, scale=ONE):
    return [[scale if i == j else ZERO for j in range(size)]
            for i in range(size)]


def embed_pair(n, r, slot_a, slot_b):
    """Lift an n^2 x n^2 matrix to the tensor cube acting on two slots.

    Entry (row, col) of the lift is zero unless row and col agree on the
    third slot, so each nonzero r[p][q] is written once per value of
    that slot, at flat offsets computed from the slot weights; the
    other entries keep the zero they start with.
    """
    size = n ** 3
    weight = (n * n, n, 1)
    wa, wb = weight[slot_a], weight[slot_b]
    (wc,) = [weight[s] for s in range(3) if s not in (slot_a, slot_b)]
    offset = [a * wa + b * wb for a in range(n) for b in range(n)]
    out = [[ZERO] * size for _ in range(size)]
    for p, r_row in enumerate(r):
        entries = [(offset[q], v) for q, v in enumerate(r_row) if v]
        for c in range(0, n * wc, wc):
            row = out[offset[p] + c]
            for col, v in entries:
                row[col + c] = v
    return out


def yang_baxter_check(n, u, v):
    """R12(u) R13(u+v) R23(v) = R23(v) R13(u+v) R12(u) at exact points.

    Each side is a product of one R factor at each of u, u+v and v, so
    both sides scale by the same nonzero integer when every factor is
    replaced by its integer multiple `scaled_rmatrix`; the products then
    run over integers and the check is exactly equivalent.
    """
    rep = Report("yang-baxter", n=n, u=str(u), v=str(v))
    u, v = Fraction(u), Fraction(v)
    r12 = embed_pair(n, scaled_rmatrix(n, u), 0, 1)
    r13 = embed_pair(n, scaled_rmatrix(n, u + v), 0, 2)
    r23 = embed_pair(n, scaled_rmatrix(n, v), 1, 2)
    lhs = mat_mul(mat_mul(r12, r13), r23)
    rhs = mat_mul(mat_mul(r23, r13), r12)
    rep.tally()
    if lhs != rhs:
        rep.record("matrix mismatch")
    return rep


def unitarity_check(n, u):
    """R12(u) R21(-u) = (u^2 - 1)/u^2 at exact points."""
    rep = Report("r-unitarity", n=n, u=str(u))
    u = Fraction(u)
    prod = mat_mul(rmatrix(n, u), transposed_rmatrix(n, -u))
    want = mat_identity(n * n, (u * u - 1) / (u * u))
    rep.tally()
    if prod != want:
        rep.record("matrix mismatch")
    return rep


def transposition_symmetry_check(n, u):
    """For this R-matrix the slot swap acts trivially; check it anyway."""
    rep = Report("r-swap-symmetry", n=n, u=str(u))
    rep.tally()
    if rmatrix(n, u) != transposed_rmatrix(n, u):
        rep.record("matrix mismatch")
    return rep


# ---------------------------------------------------------------------------
# generating matrix and quantum minors

@lru_cache(maxsize=None)
def t_entry(ctx, i, j, *, shift=None):
    """The series T_{i,j}(u) = delta_{ij} + sum_k T_{i,j}^{(k)} u^{-k},
    built once per (ctx, i, j); series are never mutated, so every
    caller shares it.  With a `shift` c it is T_{i,j}(u + c), shifted
    once per c (a zero shift is the entry itself)."""
    if shift is not None:
        return t_entry(ctx, i, j).shift(shift)
    coeffs = {k: generator(ctx, i, j, k)
              for k in range(1, ctx.max_degree + 1)}
    if i == j:
        coeffs[0] = unit(ctx)
    # T^(k) has degree k, and in SL mode T_nn^(k) eliminates to words of
    # degree <= k: the invariant holds by construction
    return Series._trusted(ctx, coeffs, 1)


def t_matrix(ctx):
    n = ctx.n
    return SeriesMatrix([[t_entry(ctx, i, j) for j in range(1, n + 1)]
                         for i in range(1, n + 1)])


_MINOR_CACHE = {}


def _minor_rows_normalized(rows):
    """Sorted rows with the reindexing sign; None for a repeated row."""
    order = sorted(range(len(rows)), key=lambda p: rows[p])
    sorted_rows = tuple(rows[p] for p in order)
    for a, b in zip(sorted_rows, sorted_rows[1:]):
        if a == b:
            return None, 0
    return sorted_rows, perm_sign(tuple(order))


def quantum_minor(ctx, rows, cols):
    """Quantum minor t(rows; cols)(u) of the generating matrix.

    Defined as the signed sum over row permutations of
        T_{a_{s(1)},b_1}(u) T_{a_{s(2)},b_2}(u+1) ... (shift +1 per column),
    and computed by expanding along the last column over memoised
    sub-minors.  Rows are normalized by sorting (a relabelling of the
    defining sum); columns are taken exactly as given.

    The key is looked up exactly as given first, so a hit skips the
    range check and the sort.  Only keys that pass the checks are
    stored: the sorted key with its computed minor, and the given key,
    if different, with the signed result.
    """
    rows, cols = tuple(rows), tuple(cols)
    key = (ctx, rows, cols)
    hit = _MINOR_CACHE.get(key)
    if hit is not None:
        return hit
    if len(rows) != len(cols):
        raise ValueError("rows and columns must have equal length")
    if not all(1 <= r <= ctx.n for r in rows + cols):
        raise ValueError("minor indices out of range")
    if not rows:
        out = Series.constant(ctx)
    else:
        sorted_rows, sign = _minor_rows_normalized(rows)
        if sign == 0:
            out = Series(ctx)
        else:
            sorted_key = (ctx, sorted_rows, cols)
            out = _MINOR_CACHE.get(sorted_key)
            if out is None:
                out = _MINOR_CACHE[sorted_key] = _minor_sum(
                    ctx, sorted_rows, cols)
            if sign == -1:
                out = -out
    _MINOR_CACHE[key] = out
    return out


# A function of its own, not inlined into quantum_minor: the benchmark
# tracer counts its calls as rtt.quantum_minor.computed, one per cache
# miss.  It can go once the tracer reads the caches through a registry.
def _minor_sum(ctx, rows, cols):
    """A minor missing from the cache: one last-column expansion."""
    return minor_expand_last_column(ctx, rows, cols)


def _expand_last_column(ctx, entry, minor, rows, cols):
    """The column-form minor of `entry` expanded along its final column,
    one `product_sum` of
        sum_k (-1)^(k+m) minor(rows without a_k; cols[:-1])(u)
                         * entry(a_k, b_m)(u+m-1),
    where entry(i, j, c) is the entry (i, j) at u + c.
    """
    m = len(rows)
    return product_sum(ctx, 1, (
        (minor(rows[:k - 1] + rows[k:], cols[:-1]),
         entry(rows[k - 1], cols[-1], m - 1), -1 if (k + m) % 2 else 1)
        for k in range(1, m + 1)))


def minor_by_permutations(mat, rows, cols):
    """Reference column-form minor of a series matrix: the defining
    signed sum over row permutations (m! products; a test oracle)."""
    m = len(rows)
    if m == 0:
        return Series.constant(mat.ctx)
    # entry (r, cols[p]) at u + p, shifted once per call
    shifted = {}

    def entry(r, p):
        out = shifted.get((r, p))
        if out is None:
            out = shifted[r, p] = mat.entry(r, cols[p]).shift(p)
        return out

    total = Series(mat.ctx)
    for perm in permutations(range(m)):
        prod = mat.entry(rows[perm[0]], cols[0])
        for p in range(1, m):
            prod = prod * entry(rows[perm[p]], p)
        total = total + prod * perm_sign(perm)
    return total


def quantum_minor_row_form(ctx, rows, cols):
    """The row-ordered variant: signed sum over column permutations of
    T_{a_1,b_{s(1)}}(u+m-1) ... T_{a_m,b_{s(m)}}(u)."""
    rows, cols = tuple(rows), tuple(cols)
    m = len(rows)
    if m == 0:
        return Series.constant(ctx)
    total = Series(ctx)
    for perm in permutations(range(m)):
        prod = t_entry(ctx, rows[0], cols[perm[0]], shift=m - 1)
        for p in range(1, m):
            prod = prod * t_entry(ctx, rows[p], cols[perm[p]],
                                  shift=m - 1 - p)
        total = total + prod * perm_sign(perm)
    return total


def qdet(ctx):
    """Quantum determinant: the full-size quantum minor."""
    idx = tuple(range(1, ctx.n + 1))
    return quantum_minor(ctx, idx, idx)


def minor_expand_last_column(ctx, rows, cols):
    """Signed expansion along the final column over cached sub-minors:
    the step quantum_minor computes every minor with."""
    return _expand_last_column(
        ctx, lambda i, j, shift: t_entry(ctx, i, j, shift=shift),
        lambda sub_rows, sub_cols: quantum_minor(ctx, sub_rows, sub_cols),
        tuple(rows), tuple(cols))


def minor_expand_last_row(ctx, rows, cols):
    """Signed expansion along the final row, one `product_sum`."""
    m = len(rows)
    return product_sum(ctx, 1, (
        (t_entry(ctx, rows[-1], cols[k - 1], shift=m - 1),
         quantum_minor(ctx, rows[:-1], cols[:k - 1] + cols[k:]),
         -1 if (k + m) % 2 else 1)
        for k in range(1, m + 1)))


def column_replaced_minors(ctx, rows, cols, j):
    """t(rows; cols with b_k -> j)(u) for k = 1..m."""
    return [quantum_minor(ctx, rows, cols[:k] + (j,) + cols[k + 1:])
            for k in range(len(cols))]


def row_replaced_minors(ctx, rows, cols, i):
    """t(rows with a_k -> i; cols)(u) for k = 1..m."""
    return [quantum_minor(ctx, rows[:k] + (i,) + rows[k + 1:], cols)
            for k in range(len(rows))]


def minor_bracket_sweep(ctx, rows, cols, comm, cent, label):
    """Commutation of every entry with the minor t(rows; cols)(v), into
    the report `comm`, and centrality of the minor in its own indices,
    into `cent`, checked in one pass with labels under `label`:

    (u - v) [T_{ij}(u), t(rows;cols)(v)]
        = sum_k ( t(rows; cols with b_k -> j)(v) T_{i,b_k}(u)
                 - T_{a_k,j}(u) t(rows with a_k -> i; cols)(v) ),

    and [T_{ij}(u), t(rows;cols)(v)] = 0 for i in rows and j in cols.

    The u^-(a+1) v^-b coefficient of the left side is
    [T_ij^(a+1), c_b] - [T_ij^(a), c_(b+1)], with c_b the coefficient of
    the minor.  Each bracket [T_ij^(r), c_b], r + b <= order (the degree
    bound of ctx), is formed once: it serves two commutation cases and,
    inside the minor's own indices, is a centrality case.  A scalar or
    absent c_b (c_0 always is scalar) is central, so its bracket is zero
    with no product formed.  T^(0) is the scalar delta, so its products
    select a coefficient.

    Each commutation case is one residual sum: its brackets and the
    products of its right side, each with an absent minor coefficient
    skipped, add into one raw dict that is reduced once.  The case is
    counted, and only a nonzero residual becomes an element under a
    formatted label.
    """
    rows, cols = tuple(rows), tuple(cols)
    idx = range(1, ctx.n + 1)
    order = ctx.max_degree
    c = quantum_minor(ctx, rows, cols).coeffs
    live = [b for b in range(order + 1)
            if b in c and any(w for w in c[b].terms)]
    # the generators T_ij^(r), read from the memoised entries
    gen = {(i, j): t_entry(ctx, i, j).coeffs for i in idx for j in idx}

    def present(minors, index):
        """Per power b < order, the (index_k, coefficient) pairs of the
        replaced minors whose u^-b coefficient is present."""
        return [[(x, s.coeffs[b]) for x, s in zip(index, minors)
                 if b in s.coeffs] for b in range(order)]

    col_c = {j: present(column_replaced_minors(ctx, rows, cols, j), cols)
             for j in idx}
    row_c = {i: present(row_replaced_minors(ctx, rows, cols, i), rows)
             for i in idx}
    cases = [(a, b) for a in range(order) for b in range(order - a)]
    inside = {}
    for i in idx:
        row_i = row_c[i]
        for j in idx:
            col_j = col_c[j]
            x = gen[i, j]
            bracket = {(r, b): commutator(x[r], c[b])
                       for b in live for r in range(1, order + 1 - b)}
            comm.tally(len(cases))
            for a, b in cases:
                raw = {}
                lhs = bracket.get((a + 1, b))
                if lhs is not None:
                    add_into(raw, lhs)
                if a:
                    lhs = bracket.get((a, b + 1))
                    if lhs is not None:
                        add_into(raw, lhs, -1)
                    for b_k, y in col_j[b]:
                        y._mul_into(gen[i, b_k][a], raw, -1)
                    for a_k, z in row_i[b]:
                        gen[a_k, j][a]._mul_into(z, raw)
                else:
                    for b_k, y in col_j[b]:
                        if b_k == i:
                            add_into(raw, y, -1)
                    for a_k, z in row_i[b]:
                        if a_k == j:
                            add_into(raw, z)
                terms = _reduce_raw(ctx, raw) if raw else raw
                if terms:
                    comm.record("T%d%d %s:u^-%d v^-%d" % (i, j, label, a, b),
                                Element._trusted(ctx, terms))
            if i in rows and j in cols:
                inside[i, j] = bracket
    for i in rows:
        for j in cols:
            bracket = inside[i, j]
            for r in range(1, order + 1):
                for b in range(order + 1 - r):
                    cent.tally()
                    value = bracket.get((r, b))
                    if value is not None and value.terms:
                        cent.record("%s:T_%d%d^(%d) vs u^-%d"
                                    % (label, i, j, r, b), value)


def qdet_centrality_check(ctx, mode_bound):
    rep = Report("qdet-centrality", n=ctx.n, mode=ctx.mode,
                 order=ctx.max_degree, bound=mode_bound)
    q = qdet(ctx)
    n = ctx.n
    nil = zero(ctx)
    gen = {(i, j, l): generator(ctx, i, j, l)
           for i in range(1, n + 1) for j in range(1, n + 1)
           for l in range(1, mode_bound)}
    for k in range(1, mode_bound + 1):
        c = q.coefficient(k)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for l in range(1, mode_bound - k + 1):
                    rep.check("qdet_%d vs T_%d%d^(%d)" % (k, i, j, l),
                              commutator(c, gen[i, j, l]), nil)
    return rep


def sl_qdet_check(n, order):
    """In the SL quotient the quantum determinant collapses to 1."""
    ctx = Context(n, order, SL)
    rep = Report("sl-qdet-normalized", n=n, order=order)
    rep.check("qdet", qdet(ctx), Series.constant(ctx))
    return rep


def minor_embedding_series(ctx, p, i, j):
    """Corner embedding t(1..p, p+i ; 1..p, p+j)(u) of a smaller
    generating matrix into the big one."""
    base = tuple(range(1, p + 1))
    return quantum_minor(ctx, base + (p + i,), base + (p + j,))


def embedding_relations_check(ctx, p):
    """The corner-embedded entries satisfy the defining mode brackets."""
    order = ctx.max_degree
    rep = Report("minor-embedding", n=ctx.n, mode=ctx.mode, p=p, order=order)
    q = ctx.n - p
    emb = {(i, j): minor_embedding_series(ctx, p, i, j)
           for i in range(1, q + 1) for j in range(1, q + 1)}

    def coeff(i, j, r):
        return emb[(i, j)].coefficient(r)

    for i in range(1, q + 1):
        for j in range(1, q + 1):
            for k in range(1, q + 1):
                for l in range(1, q + 1):
                    for r in range(1, order + 1):
                        for s in range(1, order - r + 1):
                            a, b = coeff(i, j, r), coeff(k, l, s)
                            raw = {}
                            for pp in range(1, min(r, s) + 1):
                                coeff(k, j, r + s - pp)._mul_into(
                                    coeff(i, l, pp - 1), raw)
                                coeff(k, j, pp - 1)._mul_into(
                                    coeff(i, l, r + s - pp), raw, -1)
                            rep.check(
                                "[%d%d^(%d),%d%d^(%d)]" % (i, j, r, k, l, s),
                                commutator(a, b), Element(ctx, raw))
    return rep


# ---------------------------------------------------------------------------
# Gauss decompositions

def gauss_components(ctx, variant="lower-diag-upper"):
    """Triangular factors of T(u) expressed through quantum minors.

    'lower-diag-upper': T = F K E with F unit lower, K diagonal, E unit
    upper.  'upper-diag-lower': T = E~ K~ F~ with the opposite corner
    minors.  Every component is returned at argument u.
    """
    n = ctx.n
    lead = tuple(range(1, n + 1))
    comp = {"e": {}, "f": {}, "k": {}}
    if variant == "lower-diag-upper":
        for i in range(1, n + 1):
            head = lead[:i]
            inv = quantum_minor(ctx, head, head).invert()
            prev = quantum_minor(ctx, lead[:i - 1], lead[:i - 1])
            comp["k"][i] = (quantum_minor(ctx, head, head)
                            * prev.invert()).shift(-(i - 1))
            for j in range(i + 1, n + 1):
                num_e = quantum_minor(ctx, head, lead[:i - 1] + (j,))
                num_f = quantum_minor(ctx, lead[:i - 1] + (j,), head)
                comp["e"][(i, j)] = (inv * num_e).shift(-(i - 1))
                comp["f"][(j, i)] = (num_f * inv).shift(-(i - 1))
    elif variant == "upper-diag-lower":
        # the off-diagonal ratios divide by the corner minor over j..n,
        # matching the numerator size (dividing by the minor over j+1..n
        # already fails to reconstruct T at n=2)
        for j in range(1, n + 1):
            tail = lead[j:]
            inv = quantum_minor(ctx, lead[j - 1:], lead[j - 1:]).invert()
            upper = quantum_minor(ctx, lead[j - 1:], lead[j - 1:])
            comp["k"][j] = (quantum_minor(ctx, tail, tail).invert()
                            * upper).shift(-(n - j))
            for i in range(1, j):
                num_e = quantum_minor(ctx, (i,) + tail, (j,) + tail)
                num_f = quantum_minor(ctx, (j,) + tail, (i,) + tail)
                comp["e"][(i, j)] = (num_e * inv).shift(-(n - j))
                comp["f"][(j, i)] = (inv * num_f).shift(-(n - j))
    else:
        raise ValueError("unknown variant %r" % variant)
    return comp


def gauss_reconstruction_check(ctx, variant="lower-diag-upper"):
    """Multiply the factors back together and compare with T(u)."""
    rep = Report("gauss-%s" % variant, n=ctx.n, mode=ctx.mode,
                 order=ctx.max_degree)
    n = ctx.n
    comp = gauss_components(ctx, variant)
    if variant == "upper-diag-lower":
        rep.note("off-diagonal ratios divide by the corner minor over "
                 "j..n; the size-mismatched span j+1..n fails at n=2")
    one = Series.constant(ctx)
    nil = Series(ctx)

    def unitri(entries, lower):
        rows = []
        for a in range(1, n + 1):
            row = []
            for b in range(1, n + 1):
                if a == b:
                    row.append(one)
                elif (a > b) if lower else (a < b):
                    row.append(entries.get((a, b), nil))
                else:
                    row.append(nil)
            rows.append(row)
        return SeriesMatrix(rows)

    diag = SeriesMatrix([[comp["k"][a + 1] if a == b else nil
                          for b in range(n)] for a in range(n)])
    lower = unitri(comp["f"], True)
    upper = unitri(comp["e"], False)
    if variant == "lower-diag-upper":
        prod = lower * diag * upper
    else:
        prod = upper * diag * lower
    t = t_matrix(ctx)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rep.check("entry %d,%d" % (i, j), prod.entry(i, j),
                      t.entry(i, j))
    return rep


def k_sanity_checks(ctx):
    """Edge diagonal factors equal bare entries of T."""
    rep = Report("gauss-diagonal-edges", n=ctx.n, mode=ctx.mode,
                 order=ctx.max_degree)
    lo = gauss_components(ctx, "lower-diag-upper")
    hi = gauss_components(ctx, "upper-diag-lower")
    rep.check("leading", lo["k"][1], t_entry(ctx, 1, 1))
    rep.check("trailing", hi["k"][ctx.n], t_entry(ctx, ctx.n, ctx.n))
    return rep


# ---------------------------------------------------------------------------
# reflected matrix and inverse entries

@lru_cache(maxsize=None)
def inverse_matrix(ctx):
    """T(u)^{-1}, inverted once per context."""
    return t_matrix(ctx).inverse()


def t_star_matrix(ctx):
    """(T(-u))^{-1}, the inverse T(u)^{-1} read at -u: the inverse
    recursion of T(-u) gives exactly (-1)^k S^(k) at u^-k."""
    return SeriesMatrix([[s.negate_variable() for s in row]
                         for row in inverse_matrix(ctx).rows])


def matrix_minor(mat, rows, cols, memo=None):
    """Quantum minor of an arbitrary series matrix (column-shift form),
    by last-column expansion over memoised sub-minors.

    `memo` maps (rows, leading columns) to the minor of `mat` there, and
    (i, j, shift) to the entry (i, j) at u + shift, so each shifted
    entry is built once; a sweep over many minors of one matrix passes
    one dict to every call and shares both, and without it the memo
    lives for the call only.
    """
    if memo is None:
        memo = {}

    def entry(i, j, shift):
        key = (i, j, shift)
        out = memo.get(key)
        if out is None:
            out = memo[key] = mat.entry(i, j).shift(shift)
        return out

    def minor(sub_rows, sub_cols):
        if not sub_rows:
            return Series.constant(mat.ctx)
        key = (sub_rows, sub_cols)
        out = memo.get(key)
        if out is None:
            out = memo[key] = _expand_last_column(
                mat.ctx, entry, minor, sub_rows, sub_cols)
        return out

    return minor(tuple(rows), tuple(cols))


def reflected_minor(star, rows, cols, shift, memo=None):
    """Minor of the reflected matrix star = (T(-u))^{-1}, at -u-shift;
    `memo` is the sub-minor memo of `star`, as in matrix_minor."""
    minor = matrix_minor(star, rows, cols, memo)
    return minor.negate_variable().shift(shift)


def star_minor_identities_check(n, order):
    """In the SL quotient, reflected corner minors at -u-(n-1) match
    complementary plain minors (four families)."""
    ctx = Context(n, order, SL)
    rep = Report("star-minor-reflection", n=n, order=order)
    star = t_star_matrix(ctx)
    memo = {}

    def refl(rows, cols):
        return reflected_minor(star, rows, cols, n - 1, memo)

    for m in range(1, n + 1):
        head = tuple(range(1, m + 1))
        comp = tuple(range(m + 1, n + 1))
        rep.check("diag m=%d" % m, refl(head, head),
                  quantum_minor(ctx, comp, comp))
    for m in range(1, n):
        head = tuple(range(1, m))
        tail = tuple(range(m + 2, n + 1))
        rep.check(
            "lower m=%d" % m,
            refl(head + (m + 1,), head + (m,)),
            -quantum_minor(ctx, (m + 1,) + tail, (m,) + tail))
        rep.check(
            "upper m=%d" % m,
            refl(head + (m,), head + (m + 1,)),
            -quantum_minor(ctx, (m,) + tail, (m + 1,) + tail))
        rep.check(
            "corner m=%d" % m,
            refl(head + (m + 1,), head + (m + 1,)),
            quantum_minor(ctx, (m,) + tail, (m,) + tail))
    return rep


def inverse_entry_minor(ctx, i, j):
    """(T^{-1}(u))_{ij} through a complementary minor (SL quotient)."""
    n = ctx.n
    rows = tuple(r for r in range(1, n + 1) if r != j)
    cols = tuple(c for c in range(1, n + 1) if c != i)
    minor = quantum_minor(ctx, rows, cols)
    return (minor * ((-1) ** (i + j))).shift(-(n - 1))


def inverse_entries_check(n, order):
    """In the SL quotient, each entry of T(u)^{-1} is a signed,
    shifted complementary minor."""
    ctx = Context(n, order, SL)
    rep = Report("inverse-entry-minors", n=n, order=order)
    inv = inverse_matrix(ctx)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rep.check("entry %d,%d" % (i, j), inv.entry(i, j),
                      inverse_entry_minor(ctx, i, j))
    return rep
