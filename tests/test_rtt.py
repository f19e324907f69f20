"""Generating matrix: R-matrix checks, determinant, minors, Gauss."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from yangian.algebra import Context, GL, SL, generator, unit, zero
from yangian.report import Report
from yangian.series import Series, SeriesMatrix
from yangian import hopf, rtt
from util import reflected_inverse


def random_points(seed, count, pairs=False):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if u == 0 or (pairs and (v == 0 or u + v == 0)):
            continue
        out.append((u, v) if pairs else u)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_yang_baxter_random_points(n):
    for u, v in random_points(31 + n, 6, pairs=True):
        assert rtt.yang_baxter_check(n, u, v).passed


@pytest.mark.parametrize("n", [2, 3])
def test_unitarity_random_and_degenerate(n):
    for u in random_points(41 + n, 6):
        assert rtt.unitarity_check(n, u).passed
        assert rtt.transposition_symmetry_check(n, u).passed
    # degenerate point where the scalar factor vanishes
    assert rtt.unitarity_check(n, 1).passed


def embed_pair_by_index_comparison(n, r, slot_a, slot_b):
    """Reference lift: every (row, col) of the cube, kept where the two
    agree on the third slot."""
    size = n ** 3
    out = [[0] * size for _ in range(size)]
    for row in range(size):
        ri = (row // (n * n), (row // n) % n, row % n)
        for col in range(size):
            ci = (col // (n * n), (col // n) % n, col % n)
            ok = all(ri[s] == ci[s] for s in range(3)
                     if s not in (slot_a, slot_b))
            if not ok:
                continue
            out[row][col] = r[ri[slot_a] * n + ri[slot_b]][
                ci[slot_a] * n + ci[slot_b]]
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("slots", [(0, 1), (0, 2), (1, 2)])
def test_embed_pair_matches_index_comparison(n, slots):
    # a dense matrix with distinct entries catches any misplaced index;
    # the R-matrix is the sparse input the checks feed it
    size = n * n
    dense = [[Fraction(p * size + q + 1, 7) for q in range(size)]
             for p in range(size)]
    for r in (dense, rtt.rmatrix(n, Fraction(-5, 3))):
        assert (rtt.embed_pair(n, r, *slots)
                == embed_pair_by_index_comparison(n, r, *slots))


def test_mat_mul_matches_triple_loop():
    x = [[Fraction(1, 2), 0, -3, 0, 0],
         [0, 0, 0, 0, 0],
         [2, Fraction(-7, 3), 0, 0, 1],
         [0, 0, 0, 0, Fraction(5, 4)],
         [1, 1, 1, 1, 1]]
    y = [[0, 4, 0, Fraction(1, 3), 0],
         [0, Fraction(-2, 5), 0, 0, 0],
         [0, 0, 0, 0, 0],
         [0, 1, 0, -1, 0],
         [0, Fraction(3, 2), 0, 6, 0]]
    size = len(x)
    for a, b in ((x, y), (y, x), (x, x), (y, y)):
        want = [[sum(a[i][k] * b[k][j] for k in range(size))
                 for j in range(size)] for i in range(size)]
        assert rtt.mat_mul(a, b) == want


@pytest.mark.parametrize("n", [2, 3])
def test_yang_baxter_sides_differ_at_a_wrong_argument(n):
    # the check compares full matrices, so a wrong R13 must show, also
    # with the integer multiples of R the check multiplies
    for build in (rtt.rmatrix, rtt.scaled_rmatrix):
        for u, v in [(Fraction(1, 2), Fraction(-3)), (Fraction(7, 3), 2),
                     (5, Fraction(2, 5))]:
            u, v = Fraction(u), Fraction(v)
            r12 = rtt.embed_pair(n, build(n, u), 0, 1)
            r23 = rtt.embed_pair(n, build(n, v), 1, 2)
            for arg, equal in ((u + v, True), (u - v, False)):
                r13 = rtt.embed_pair(n, build(n, arg), 0, 2)
                lhs = rtt.mat_mul(rtt.mat_mul(r12, r13), r23)
                rhs = rtt.mat_mul(rtt.mat_mul(r23, r13), r12)
                assert (lhs == rhs) is equal, (build, u, v, arg)


@pytest.mark.parametrize("u", [3, Fraction(-7, 2), Fraction(5, 3)])
def test_scaled_rmatrix_is_q_u_times_rmatrix(u):
    # q u R(u) = p I + q P at u = p/q: integer entries, same nonzeros
    u = Fraction(u)
    scale = u.denominator * u
    for n in (2, 3):
        scaled = rtt.scaled_rmatrix(n, u)
        plain = rtt.rmatrix(n, u)
        assert scaled == [[scale * x for x in row] for row in plain]
        assert all(type(x) is int for row in scaled for x in row)


def test_scaled_rmatrix_rejects_zero():
    for z in (0, Fraction(0, 3)):
        with pytest.raises(ValueError):
            rtt.scaled_rmatrix(2, z)
    with pytest.raises(ValueError):
        rtt.yang_baxter_check(2, Fraction(1, 2), Fraction(-1, 2))


def test_qdet_n2_matches_handmade():
    ctx = Context(2, 4)
    t11 = rtt.t_entry(ctx, 1, 1, 4)
    t12 = rtt.t_entry(ctx, 1, 2, 4)
    t21 = rtt.t_entry(ctx, 2, 1, 4)
    t22 = rtt.t_entry(ctx, 2, 2, 4)
    manual = t11 * t22.shift(1) - t21 * t12.shift(1)
    assert rtt.qdet(ctx, 4) == manual
    lead = manual.coefficient(1)
    assert lead == generator(ctx, 1, 1, 1) + generator(ctx, 2, 2, 1)


def test_qdet_centrality_small():
    for n in (2, 3):
        ctx = Context(n, 4)
        assert rtt.qdet_centrality_check(ctx, 4, 3).passed


@pytest.mark.parametrize("n", [2, 3])
def test_sl_qdet_is_one(n):
    ctx = Context(n, 3, SL)
    assert rtt.sl_qdet_check(ctx, 3).passed


def test_minor_basics():
    ctx = Context(3, 3)
    idx = (1, 2, 3)
    assert rtt.quantum_minor(ctx, idx, idx, 3) == rtt.qdet(ctx, 3)
    assert rtt.quantum_minor(ctx, (1, 1), (1, 2), 3).is_zero()
    assert rtt.quantum_minor(ctx, (), (), 3) == Series.constant(ctx, 3)
    # frozen: leading coefficient of t(12;13) is T_23^(1)
    small = rtt.quantum_minor(ctx, (1, 2), (1, 3), 3)
    assert small.coefficient(0).is_zero()
    assert small.coefficient(1) == generator(ctx, 2, 3, 1)


def test_minor_row_alternation_is_definitional():
    ctx = Context(3, 3)
    plain = rtt.quantum_minor(ctx, (1, 2), (1, 3), 3)
    assert rtt.quantum_minor(ctx, (2, 1), (1, 3), 3) == -plain


def test_minor_column_alternation():
    # not a relabelling of the defining sum: a consequence of the relations
    ctx = Context(3, 3)
    for cols in [(1, 2), (1, 3), (2, 3)]:
        swapped = (cols[1], cols[0])
        for rows in [(1, 2), (1, 3), (2, 3)]:
            lhs = rtt.quantum_minor(ctx, rows, swapped, 3)
            rhs = -rtt.quantum_minor(ctx, rows, cols, 3)
            assert lhs == rhs, (rows, cols)
    assert rtt.quantum_minor(ctx, (1, 2), (2, 2), 3).is_zero()


def test_minor_row_form_equals_column_form():
    ctx = Context(3, 3)
    t = rtt.t_matrix(ctx, 3)
    cases = [((1, 2), (1, 2)), ((1, 2), (2, 3)), ((1, 3), (1, 2)),
             ((1, 2, 3), (1, 2, 3))]
    for rows, cols in cases:
        assert (rtt.quantum_minor_row_form(ctx, rows, cols, 3)
                == rtt.minor_by_permutations(t, rows, cols)), (rows, cols)


def test_minor_expansions():
    ctx = Context(3, 3)
    t = rtt.t_matrix(ctx, 3)
    cases = [((1, 2), (1, 2)), ((1, 2), (1, 3)), ((1, 3), (2, 3)),
             ((1, 2, 3), (1, 2, 3))]
    for rows, cols in cases:
        minor = rtt.minor_by_permutations(t, rows, cols)
        assert rtt.minor_expand_last_column(ctx, rows, cols, 3) == minor
        assert rtt.minor_expand_last_row(ctx, rows, cols, 3) == minor


def test_minor_engine_matches_permutation_sums_n4():
    # every size 1..4 at n=4, for T(u), for the reflected matrix, and
    # for the determinant, against the defining permutation sums
    ctx = Context(4, 2)
    t = rtt.t_matrix(ctx, 2)
    star = rtt.t_star_matrix(ctx, 2)
    for m in range(1, 5):
        for rows in combinations(range(1, 5), m):
            for cols in combinations(range(1, 5), m):
                assert (rtt.quantum_minor(ctx, rows, cols, 2)
                        == rtt.minor_by_permutations(t, rows, cols))
                assert (rtt.matrix_minor(star, rows, cols)
                        == rtt.minor_by_permutations(star, rows, cols))
    idx = (1, 2, 3, 4)
    assert rtt.qdet(ctx, 2) == rtt.minor_by_permutations(t, idx, idx)


def _all_index_sets(n):
    return [(rows, cols) for m in range(1, n + 1)
            for rows in combinations(range(1, n + 1), m)
            for cols in combinations(range(1, n + 1), m)]


@pytest.mark.parametrize("n, order", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_matrix_minor_shared_memo_equals_fresh_memo(n, order):
    # one memo shared over a whole sweep, in either direction, gives the
    # minor a memo made for that call alone gives
    star = rtt.t_star_matrix(Context(n, order), order)
    sets = _all_index_sets(n)
    fresh = {key: rtt.matrix_minor(star, *key) for key in sets}
    for sweep in (sets, sets[::-1]):
        memo = {}
        for rows, cols in sweep:
            got = rtt.matrix_minor(star, rows, cols, memo)
            assert got == fresh[rows, cols], (rows, cols)
            assert (rtt.reflected_minor(star, rows, cols, n - 1, memo)
                    == fresh[rows, cols].negate_variable().shift(n - 1))


def test_minor_routines_shift_each_entry_once(monkeypatch):
    # the permutation sum shifts each (row, column, position) once per
    # call, and matrix_minor keeps each shifted entry in its memo
    shifts = []
    shift = Series.shift

    def counted(s, c):
        shifts.append(c)
        return shift(s, c)

    monkeypatch.setattr(Series, "shift", counted)
    ctx = Context(3, 2)
    t = rtt.t_matrix(ctx, 2)
    full = (1, 2, 3)
    rtt.minor_by_permutations(t, full, full)
    assert len(shifts) == 6  # three rows at positions 1 and 2
    star = rtt.t_star_matrix(ctx, 2)
    memo = {}
    del shifts[:]
    rtt.matrix_minor(star, full, full, memo)
    # rows 1..3 in column b at position b - 1
    assert len(shifts) == len([k for k in memo if len(k) == 3]) == 9
    rtt.matrix_minor(star, full, full, memo)
    rtt.matrix_minor(star, (2, 3), (1, 2), memo)
    assert len(shifts) == 9


@pytest.mark.parametrize("sorted_first", [True, False])
def test_minor_cache_signs_permuted_and_repeated_rows(monkeypatch,
                                                      sorted_first):
    # whichever of a permuted key and its sorted key is looked up first,
    # the permuted one is the sorted minor times the permutation's sign,
    # and the defining permutation sum agrees
    monkeypatch.setattr(rtt, "_MINOR_CACHE", {})
    ctx = Context(3, 2)
    t = rtt.t_matrix(ctx, 2)
    for cols in [(1, 2, 3), (3, 1, 2), (2, 3)]:
        base = tuple(range(1, len(cols) + 1))
        for rows in permutations(base):
            sign = rtt.perm_sign(tuple(r - 1 for r in rows))
            lookups = [base, rows] if sorted_first else [rows, base]
            got = {r: rtt.quantum_minor(ctx, r, cols, 2) for r in lookups}
            assert got[rows] == got[base] * sign, (rows, cols)
            assert got[rows] == rtt.minor_by_permutations(t, rows, cols)
            again = rtt.quantum_minor(ctx, list(rows), list(cols), 2)
            assert again == got[rows]
    for rows in [(1, 1), (2, 1, 2), (3, 3, 1)]:
        cols = tuple(range(1, len(rows) + 1))
        for _ in range(2):
            assert rtt.quantum_minor(ctx, rows, cols, 2).is_zero()
        assert rtt.minor_by_permutations(t, rows, cols).is_zero()


def test_minor_cache_still_rejects_bad_indices(monkeypatch):
    monkeypatch.setattr(rtt, "_MINOR_CACHE", {})
    ctx = Context(3, 2)
    for rows, cols in _all_index_sets(3) + [((2, 1), (1, 3)), ((), ())]:
        rtt.quantum_minor(ctx, rows, cols, 2)
    stored = dict(rtt._MINOR_CACHE)
    bad = [((1, 2), (1,)), ((1,), (1, 2)), ((), (1,)),
           ((0, 1), (1, 2)), ((1, 4), (1, 2)), ((1, 2), (2, 4)),
           ((4,), (4,)), ((1, 2, 3), (1, 2, -1))]
    for rows, cols in bad:
        with pytest.raises(ValueError):
            rtt.quantum_minor(ctx, rows, cols, 2)
    assert rtt._MINOR_CACHE == stored


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_memoised_t_entry_equals_a_fresh_build(n, mode):
    # T_ij(u) = delta_ij + sum_k T_ij^(k) u^-k from the public
    # constructor, SL T_nn (eliminated) included; a repeated call is
    # the same object
    ctx = Context(n, 3, mode)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            coeffs = {k: generator(ctx, i, j, k) for k in range(1, 4)}
            if i == j:
                coeffs[0] = unit(ctx)
            want = Series(ctx, 3, coeffs)
            got = rtt.t_entry(ctx, i, j, 3)
            assert got == want, (i, j)
            assert rtt.t_entry(Context(n, 3, mode), i, j, 3) is got
            assert rtt.t_entry(ctx, i, j, 2) == Series(
                ctx, 2, {k: c for k, c in coeffs.items() if k <= 2})
    with pytest.raises(ValueError):
        rtt.t_entry(ctx, n + 1, 1, 3)


@pytest.mark.parametrize("mode", [GL, SL])
def test_shifted_t_entry_is_memoised(mode):
    # T_ij(u + c) is the memoised entry shifted by c, built once per c;
    # a zero shift is the entry itself
    ctx = Context(3, 3, mode)
    for i in range(1, 4):
        for j in range(1, 4):
            base = rtt.t_entry(ctx, i, j, 3)
            assert rtt.t_entry(ctx, i, j, 3, 0) is base
            for c in (1, 2, -1, Fraction(1, 2)):
                got = rtt.t_entry(ctx, i, j, 3, c)
                assert got == base.shift(c), (i, j, c)
                assert rtt.t_entry(ctx, i, j, 3, c) is got


def _sweep(ctx, rows, cols, order):
    """The commutation and centrality reports of one index set, as the
    minors suite labels them."""
    comm = Report("minor-commutation-sweep")
    cent = Report("minor-centrality-sweep")
    label = "r=%s,c=%s" % (",".join(map(str, rows)),
                           ",".join(map(str, cols)))
    rtt.minor_bracket_sweep(ctx, rows, cols, order, comm, cent, label)
    return label, comm, cent


def _case_residuals(comm, i, j, label):
    """Residuals of the commutation case of T_ij, by coefficient."""
    prefix = "T%d%d %s:" % (i, j, label)
    return {name[len(prefix):]: res for name, res in comm.residuals
            if name.startswith(prefix)}


def _replace_one(monkeypatch, name, k):
    """Make rtt.<name>(ctx, rows, cols, x, order) return its k-th
    replaced minor taken at the wrong index x % 3 + 1."""
    real = getattr(rtt, name)

    def patched(ctx, rows, cols, x, order):
        out = real(ctx, rows, cols, x, order)
        wrong = real(ctx, rows, cols, x % 3 + 1, order)
        return out[:k] + [wrong[k]] + out[k + 1:]

    monkeypatch.setattr(rtt, name, patched)


def test_minor_commutation_cases():
    ctx = Context(3, 3)
    label, comm, _ = _sweep(ctx, (1, 2), (1, 3), 3)
    for (i, j) in [(1, 1), (1, 3), (2, 1), (3, 2)]:
        assert not _case_residuals(comm, i, j, label)
    assert comm.passed, comm.residuals[:1]
    # every entry, every coefficient u^-a v^-b with a + b < order
    assert comm.cases == 9 * 6


def test_minor_commutation_case_records_a_wrong_replaced_minor():
    # one replaced minor taken at a wrong index must leave residuals,
    # on either side and in every slot
    ctx = Context(3, 3)
    rows, cols = (1, 2), (1, 3)
    assert _sweep(ctx, rows, cols, 3)[1].passed
    for name in ("column_replaced_minors", "row_replaced_minors"):
        for k in range(2):
            with pytest.MonkeyPatch.context() as mp:
                _replace_one(mp, name, k)
                label, comm, _ = _sweep(ctx, rows, cols, 3)
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    assert _case_residuals(comm, i, j, label), (name, i, j,
                                                                k)


def _chain_commutation_residuals(ctx, i, j, rows, cols, order, minor,
                                 col_repl, row_repl):
    """Residuals of the commutation relation with each right side built
    as a chain of reduced products and sums (the reference body)."""
    out = {}
    for a in range(order):
        for b in range(order - a):
            lhs = (generator(ctx, i, j, a + 1) * minor.coefficient(b)
                   - minor.coefficient(b) * generator(ctx, i, j, a + 1))
            if a >= 1:
                x = generator(ctx, i, j, a)
                c = minor.coefficient(b + 1)
                lhs = lhs - (x * c - c * x)
            rhs = zero(ctx)
            for k in range(len(rows)):
                if a == 0:
                    if i == cols[k]:
                        rhs = rhs + col_repl[k].coefficient(b)
                    if rows[k] == j:
                        rhs = rhs - row_repl[k].coefficient(b)
                else:
                    rhs = (rhs + col_repl[k].coefficient(b)
                           * generator(ctx, i, cols[k], a))
                    rhs = rhs - (generator(ctx, rows[k], j, a)
                                 * row_repl[k].coefficient(b))
            diff = lhs - rhs
            if not diff.is_zero():
                out["u^-%d v^-%d" % (a, b)] = diff
    return out


@pytest.mark.parametrize("mode", [GL, SL])
def test_minor_commutation_residuals_match_the_chained_right_side(mode):
    # the right side summed into one raw dict leaves the residuals the
    # chain of reduced sums leaves, also where the SL elimination acts
    ctx = Context(3, 3, mode)
    rows, cols, order = (2, 3), (1, 3), 3
    minor = rtt.quantum_minor(ctx, rows, cols, order)
    seen = 0
    for patch in (None, ("column_replaced_minors", 0),
                  ("row_replaced_minors", 1)):
        with pytest.MonkeyPatch.context() as mp:
            if patch:
                _replace_one(mp, *patch)
            label, comm, _ = _sweep(ctx, rows, cols, order)
            want = {}
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    col_repl = rtt.column_replaced_minors(ctx, rows, cols,
                                                          j, order)
                    row_repl = rtt.row_replaced_minors(ctx, rows, cols, i,
                                                       order)
                    res = _chain_commutation_residuals(
                        ctx, i, j, rows, cols, order, minor, col_repl,
                        row_repl)
                    want.update(("T%d%d %s:%s" % (i, j, label, name), r)
                                for name, r in res.items())
        assert dict(comm.residuals) == want, patch
        seen += len(want)
        if patch == ("column_replaced_minors", 0):
            # the wrong t((2,3);(3,3)) has c_0 = 0 where t((2,3);(2,3))
            # has 1, and at u^-0 v^-0 the left side is the bracket with
            # the scalar c_0, formed as zero: the right side still shows
            right, wrong = (rtt.column_replaced_minors(ctx, rows, cols, x,
                                                       order)[0]
                            for x in (2, 3))
            assert right.coefficient(0) != wrong.coefficient(0)
            assert "u^-0 v^-0" in _case_residuals(comm, 1, 2, label)
    assert seen > 0


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_t_entry_keeps_the_coefficient_invariant(n, mode):
    # T_ij(u) is built unchecked; the public constructor must accept it
    # as it stands, SL T_nn included
    ctx = Context(n, 3, mode)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            s = rtt.t_entry(ctx, i, j, 3)
            checked = Series(ctx, s.order, s.coeffs, s.arity)
            assert checked.coeffs == s.coeffs
            assert list(checked.coeffs) == list(s.coeffs)
            assert not any(c.is_zero() for c in s.coeffs.values())
            assert sorted(s.coeffs) == ([0] if i == j else []) + [1, 2, 3]


def test_minor_centrality_inside_own_indices():
    ctx = Context(3, 3)
    _, _, cent = _sweep(ctx, (1, 2), (1, 2), 3)
    assert cent.passed
    # T_ij^(r) against c_s, r + s <= order, for i, j in the indices
    assert cent.cases == 4 * 6


def test_centrality_checks_record_a_non_central_series(monkeypatch):
    # with a minor that is not central in its indices, each residual is
    # the bracket x c - c x of that case
    ctx = Context(3, 3)
    other = rtt.quantum_minor(ctx, (1, 2), (1, 3), 3)
    monkeypatch.setattr(rtt, "quantum_minor", lambda *args: other)
    _, _, cent = _sweep(ctx, (1, 2), (1, 2), 3)
    assert cent.residuals
    for label, res in cent.residuals:
        ij, s = label.split(":")[1].split(" vs u^-")
        i, j, r = int(ij[2]), int(ij[3]), int(ij[6])
        x, c = generator(ctx, i, j, r), other.coefficient(int(s))
        assert res == x * c - c * x
    monkeypatch.setattr(rtt, "qdet", lambda *args: other)
    rep = rtt.qdet_centrality_check(ctx, 3, 3)
    assert rep.residuals
    for label, res in rep.residuals:
        k, ij = label.split(" vs T_")
        c = other.coefficient(int(k[5:]))
        x = generator(ctx, int(ij[0]), int(ij[1]), int(ij[4]))
        assert res == c * x - x * c


def test_embedding_relations():
    ctx = Context(3, 3)
    assert rtt.embedding_relations_check(ctx, 1, 3).passed


@pytest.mark.parametrize("variant", ["lower-diag-upper", "upper-diag-lower"])
def test_gauss_reconstruction_n2(variant):
    ctx = Context(2, 3)
    assert rtt.gauss_reconstruction_check(ctx, 3, variant).passed


def test_gauss_edges_and_first_modes():
    ctx = Context(2, 3)
    assert rtt.k_sanity_checks(ctx, 3).passed
    comp = rtt.gauss_components(ctx, 3)
    assert comp["e"][(1, 2)].coefficient(1) == generator(ctx, 1, 2, 1)
    assert comp["f"][(2, 1)].coefficient(1) == generator(ctx, 2, 1, 1)


def test_gauss_rejects_unknown_variant():
    ctx = Context(2, 3)
    with pytest.raises(ValueError):
        rtt.gauss_components(ctx, 3, "diag-first")


@pytest.mark.parametrize("n", [2, 3])
def test_star_minor_identities(n):
    ctx = Context(n, 2, SL)
    assert rtt.star_minor_identities_check(ctx, 2).passed


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_entries_via_minors(n):
    ctx = Context(n, 2, SL)
    assert rtt.inverse_entries_check(ctx, 2).passed


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n, order", [(2, 5), (3, 3), (4, 2)])
def test_star_matrix_matches_reflected_inverse(n, order, mode):
    # the memoised inverse read at -u against a second inversion, of the
    # entrywise-reflected matrix
    ctx = Context(n, order, mode)
    assert rtt.t_star_matrix(ctx, order) == reflected_inverse(ctx, order)


def test_one_inverse_per_context(monkeypatch):
    # the antipode words, the reflected minors and the inverse entries of
    # one SL context all read one memoised T(u)^{-1}
    calls = []
    inverse = SeriesMatrix.inverse

    def spy(mat):
        calls.append(mat.size)
        return inverse(mat)

    monkeypatch.setattr(SeriesMatrix, "inverse", spy)
    rtt.inverse_matrix.cache_clear()
    hopf._antipode_word.cache_clear()
    ctx = Context(3, 2, SL)
    assert all(r.passed for r in hopf.hopf_axioms_check(3, 2, SL))
    assert rtt.star_minor_identities_check(ctx, 2).passed
    assert rtt.inverse_entries_check(ctx, 2).passed
    assert calls == [3]


def test_star_matrix_leading_coefficients():
    # (T(-u))^{-1} starts at +T^(1) in the u^-1 coefficient
    ctx = Context(2, 3)
    star = rtt.t_star_matrix(ctx, 3)
    for i in (1, 2):
        for j in (1, 2):
            assert star.entry(i, j).coefficient(1) == generator(ctx, i, j, 1)
