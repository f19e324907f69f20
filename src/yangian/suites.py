"""Named verification suites over the identity checks.

Each suite resolves to a fixed list of jobs, run one after another in
the calling thread; their reports are concatenated in that fixed order,
so the output stream is deterministic.

Each suite starts with an empty word layer: `run_suite` calls
`algebra.clear_word_layer` first, so the normal forms, slot products and
word coproducts a suite builds, and their shared parts, last until the
next suite starts.  The other memos persist for the process.
"""

import random
from fractions import Fraction
from itertools import combinations

from .algebra import Context, GL, clear_word_layer
from .report import Report
from . import drinfeld, hopf, rtt


def default_order(n):
    """Desk-scale order budget: deeper where the rank is small."""
    if n == 2:
        return 4
    if n == 3:
        return 3
    return 2


def _random_points(seed, count, pairs=False):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if u == 0 or v == 0 or u == v or u + v == 0:
            continue
        out.append((u, v) if pairs else u)
    return out


def _absorb(agg, sub, label):
    agg.tally(sub.cases)
    for name, res in sub.residuals:
        agg.record("%s:%s" % (label, name), res)
    for name, res in sub.documented:
        agg.document("%s:%s" % (label, name), res)
    for note in sub.notes:
        agg.note("%s: %s" % (label, note))


def suite_r_matrix(n, order, seed):
    points = _random_points(seed, 10, pairs=True)
    ybe = Report("yang-baxter", n=n, points=len(points), seed=seed)
    uni = Report("unitarity", n=n, points=len(points), seed=seed)
    sym = Report("transposition-symmetry", n=n, points=len(points), seed=seed)
    for u, v in points:
        _absorb(ybe, rtt.yang_baxter_check(n, u, v), "u=%s,v=%s" % (u, v))
        _absorb(uni, rtt.unitarity_check(n, u), "u=%s" % u)
        _absorb(sym, rtt.transposition_symmetry_check(n, u), "u=%s" % u)
    return [ybe, uni, sym]


def _minor_index_sets(n, max_size):
    out = []
    for m in range(1, min(max_size, n) + 1):
        for rows in combinations(range(1, n + 1), m):
            for cols in combinations(range(1, n + 1), m):
                out.append((rows, cols))
    return out


def suite_minors(n, order, seed):
    ctx = Context(n, order, GL)
    t = rtt.t_matrix(ctx)
    comm = Report("minor-commutation-sweep", n=n, order=order, max_size=3)
    cent = Report("minor-centrality-sweep", n=n, order=order, max_size=3)
    rowform = Report("minor-row-column-forms", n=n, order=order, max_size=3)
    expand = Report("minor-expansions", n=n, order=order, max_size=3)
    for rows, cols in _minor_index_sets(n, 3):
        label = "r=%s,c=%s" % (",".join(map(str, rows)),
                               ",".join(map(str, cols)))
        rtt.minor_bracket_sweep(ctx, rows, cols, comm, cent, label)
        # reference: the defining permutation sum, not the engine itself
        mi = rtt.minor_by_permutations(t, rows, cols)
        alt = rtt.quantum_minor_row_form(ctx, rows, cols)
        for k in range(order + 1):
            rowform.check("%s,k=%d" % (label, k), mi.coefficient(k),
                          alt.coefficient(k))
        if len(rows) >= 2:
            # the cached minor is the last-column expansion itself
            for name, got in (
                    ("col", rtt.quantum_minor(ctx, rows, cols)),
                    ("row", rtt.minor_expand_last_row(ctx, rows, cols))):
                for k in range(order + 1):
                    expand.check("%s,%s,k=%d" % (label, name, k),
                                 mi.coefficient(k), got.coefficient(k))
    reports = [comm, cent, rowform, expand]
    reports.append(rtt.qdet_centrality_check(ctx, min(order + 1, 4)))
    for p in range(1, n):
        reports.append(rtt.embedding_relations_check(ctx, p))
    reports.append(rtt.sl_qdet_check(n, order))
    reports.append(rtt.star_minor_identities_check(n, order))
    reports.append(rtt.inverse_entries_check(n, order))
    return reports


def suite_gauss(n, order, seed):
    ctx = Context(n, order, GL)
    return [
        rtt.gauss_reconstruction_check(ctx, "lower-diag-upper"),
        rtt.gauss_reconstruction_check(ctx, "upper-diag-lower"),
        rtt.k_sanity_checks(ctx),
    ]


def suite_drinfeld(n, order, seed):
    return (drinfeld.relations_check(n, order)
            + [drinfeld.h_variants_check(n, order),
               drinfeld.root_vectors_check(n),
               drinfeld.currents_constant_check(n, order)])


def suite_hopf_axioms(n, order, seed):
    reports = hopf.hopf_axioms_check(n, order)
    reports.append(hopf.structure_morphism_check(n, order, seed=seed))
    reports.append(hopf.counit_formula_check(n, order))
    reports.append(hopf.minor_coproduct_check(n, order))
    reports.append(hopf.minor_counit_check(n, order))
    reports.append(hopf.qdet_grouplike_check(n, order))
    reports.append(hopf.minor_antipode_sign_check(n, min(order, 3)))
    return reports


def suite_coproduct_formulas(n, order, seed):
    reports = hopf.ratio_identities_check(n, order)
    reports.append(hopf.diagonal_ratio_check(n, order))
    reports.extend(hopf.coproduct_formula_check(n, order))
    return reports


def suite_antipode_formulas(n, order, seed):
    reports = [hopf.hat_ratio_check(n, order)]
    reports.extend(hopf.antipode_formula_check(n, order))
    reports.append(hopf.counit_formula_check(n, order))
    return reports


def suite_sl2(n, order, seed):
    # one mutation slot first registers at degree 4, so the sensitivity
    # sweep needs at least that much depth to be meaningful
    return (hopf.sl2_closed_check(order)
            + [hopf.sl2_mutation_check(max(order, 4))])


def suite_sl3(n, order, seed):
    return (hopf.sl3_closed_check(min(order, 2))
            + [hopf.sl3_diagonal_status(max(order, 3))])


SUITES = {
    "r-matrix": suite_r_matrix,
    "minors": suite_minors,
    "gauss": suite_gauss,
    "drinfeld": suite_drinfeld,
    "hopf-axioms": suite_hopf_axioms,
    "coproduct-formulas": suite_coproduct_formulas,
    "antipode-formulas": suite_antipode_formulas,
    "sl2": suite_sl2,
    "sl3": suite_sl3,
}

# fixed-rank suites ignore --n entirely
RANK_FIXED = {"sl2": 2, "sl3": 3}


def run_suite(name, n=2, order=None, seed=0):
    """Run one named suite (or "all"), returning reports in fixed order."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(name)
    out = []
    for sub in names:
        clear_word_layer()
        rank = RANK_FIXED.get(sub, n)
        ordr = order if order is not None else default_order(rank)
        out.extend(SUITES[sub](rank, ordr, seed))
    return out
