"""Coproduct, counit, antipode: structural maps, axioms, closed formulas."""

import random
from fractions import Fraction

import pytest

from yangian.algebra import (
    Context,
    Element,
    GL,
    SL,
    Tensor,
    encode_word,
    from_words,
    generator,
    unit,
)
from yangian.drinfeld import current
from yangian import hopf
from yangian.rtt import t_entry, t_matrix
from yangian.suites import default_order, run_suite
from util import (
    antipode_product_two_pass,
    formula_probes,
    linear_extension_fractions,
    map_slot_per_term,
    narrow_gate,
    random_element,
    repair_search,
    sl2_closed_delta_expanded,
)


# ---------------------------------------------------------------------------
# structural maps on single generators


def test_word_coproducts_share_equal_keys():
    ctx = Context(2, 4, SL)
    targets = [x for _, x in hopf._axiom_targets(ctx)]
    # half the word coproducts built before a suite starts, all of them
    # after it: the suite's scope boundary must not split equal keys.
    # Earlier tests may have built them all, so start from none.
    hopf._delta_word.cache_clear()
    for x in targets[::2]:
        hopf.delta_element(x)
    run_suite("gauss", 2)
    hopf.hopf_axioms_check(2, 4)
    keys = [key for x in targets for w in x.terms
            for key in hopf._delta_word(ctx, w).terms]
    assert len(keys) > len(set(keys))
    assert len({id(key) for key in keys}) == len(set(keys))


def test_coproduct_on_first_mode_is_primitive_up_to_matrix_part():
    ctx = Context(2, 3, GL)
    got = hopf.delta_element(generator(ctx, 1, 2, 1))
    want = (Tensor.of_elements(generator(ctx, 1, 2, 1), unit(ctx))
            + Tensor.of_elements(unit(ctx), generator(ctx, 1, 2, 1)))
    assert (got - want).is_zero()


def test_coproduct_on_second_mode_has_matrix_cross_terms():
    ctx = Context(2, 3, GL)

    def g(i, j, k):
        return generator(ctx, i, j, k)

    got = hopf.delta_element(g(1, 2, 2))
    want = (Tensor.of_elements(g(1, 2, 2), unit(ctx))
            + Tensor.of_elements(unit(ctx), g(1, 2, 2))
            + Tensor.of_elements(g(1, 1, 1), g(1, 2, 1))
            + Tensor.of_elements(g(1, 2, 1), g(2, 2, 1)))
    assert (got - want).is_zero()


def test_coproduct_multiplicative_on_a_word():
    ctx = Context(2, 4, GL)
    x = generator(ctx, 1, 1, 1)
    y = generator(ctx, 2, 1, 2)
    assert (hopf.delta_element(x * y)
            - hopf.delta_element(x) * hopf.delta_element(y)).is_zero()


def test_counit_kills_positive_modes_and_keeps_constants():
    ctx = Context(2, 3, GL)
    x = generator(ctx, 1, 2, 1)
    assert hopf.counit_element(x) == 0
    assert hopf.counit_element(unit(ctx) * 7) == 7
    y = unit(ctx) * Fraction(1, 3) + x * 5
    assert hopf.counit_element(y) == Fraction(1, 3)


def test_antipode_of_generating_series_is_matrix_inverse():
    ctx = Context(2, 4, GL)
    inv = t_matrix(ctx).inverse()
    for i in (1, 2):
        for j in (1, 2):
            got = hopf.antipode_series(t_entry(ctx, i, j))
            want = inv.entry(i, j)
            for k in range(5):
                assert (got.coefficient(k) - want.coefficient(k)).is_zero()


def test_antipode_reverses_products():
    ctx = Context(3, 4, GL)
    rng = random.Random(11)
    syms = [(k, i, j) for k in (1, 2) for i in (1, 2, 3) for j in (1, 2, 3)]
    for _ in range(8):
        a = from_words(ctx, {(rng.choice(syms),): Fraction(rng.randint(1, 4))})
        b = from_words(ctx, {(rng.choice(syms),): Fraction(rng.randint(1, 4))})
        lhs = hopf.antipode_element(a * b)
        rhs = hopf.antipode_element(b) * hopf.antipode_element(a)
        assert (lhs - rhs).is_zero()


def test_coproduct_is_not_cocommutative():
    ctx = Context(2, 3, GL)
    t = hopf.delta_element(generator(ctx, 1, 2, 2))
    flipped = Tensor(ctx, 2, {(b, a): c for (a, b), c in t.items_sorted()})
    assert not (t - flipped).is_zero()


def test_counit_on_slot_collapses_to_element():
    ctx = Context(2, 3, GL)
    x = generator(ctx, 1, 2, 2)
    t = hopf.delta_element(x)
    for slot in (0, 1):
        assert (hopf.counit_on_slot(t, slot) - x).is_zero()


@pytest.mark.parametrize("mode", [GL, SL])
def test_counit_on_slot_of_tensor_cube_recovers_square(mode):
    ctx = Context(2, 3, mode)
    for x in (generator(ctx, 1, 2, 2),
              generator(ctx, 1, 1, 1) * generator(ctx, 2, 1, 1)):
        d = hopf.delta_element(x)
        for s in (0, 1):
            cube = hopf.delta_on_slot(d, s)
            assert cube.arity == 3
            for slot in range(3):
                assert hopf.counit_on_slot(cube, slot) == d


def _rebuilt(x):
    """x rebuilt from its own terms by the checked constructors."""
    if x.arity == 1:
        return Element(x.ctx, dict(x.terms))
    return Tensor(x.ctx, x.arity, dict(x.terms))


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_slot_maps_keep_the_degree_bound(n, mode):
    # the slot maps build their results unchecked: the coproduct,
    # antipode and counit of a word never raise its degree
    ctx = Context(n, 3, mode)
    outputs = 0
    for _, x in hopf._axiom_targets(ctx):
        square = hopf.delta_element(x)
        cube = hopf.delta_on_slot(square, 0)
        results = [cube, hopf.delta_on_slot(square, 1)]
        for t in (square, cube):
            for slot in range(t.arity):
                results.append(hopf.antipode_on_slot(t, slot))
                results.append(hopf.counit_on_slot(t, slot))
        for got in results:
            rebuilt = _rebuilt(got)
            assert rebuilt.terms == got.terms
            assert rebuilt.arity == got.arity
            assert 0 not in got.terms.values()
            outputs += bool(got.terms)
    assert outputs > 0


def _random_tensor(rng, ctx, arity, terms=6):
    """A sum of outer products of random elements; few distinct words at
    n=2, so terms share slots and the slot maps see cancellations."""
    total = Tensor.zero(ctx, arity)
    for _ in range(terms):
        parts = [random_element(rng, ctx, terms=2, max_len=2)
                 for _ in range(arity)]
        total = total + Tensor.of_elements(*parts)
    return total


def _slot_map_cases(ctx):
    """Random tensor squares and cubes, and the coproduct of every
    current coefficient with its two cubes (Fraction coefficients from
    the recentred currents)."""
    rng = random.Random(ctx.n * 10 + (ctx.mode == SL))
    cases = [_random_tensor(rng, ctx, arity)
             for arity in (2, 3) for _ in range(4)]
    for i in range(1, ctx.n):
        for kind in ("e", "f", "h"):
            s = current(ctx, kind, i)
            for k in range(1, ctx.max_degree + 1):
                d = hopf.delta_element(s.coefficient(k))
                cases += [d, hopf.delta_on_slot(d, 0),
                          hopf.delta_on_slot(d, 1)]
    return cases


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n", [2, 3])
def test_grouped_slot_maps_match_per_term_oracle(n, mode):
    ctx = Context(n, 4 if n == 2 else 3, mode)
    images = {
        hopf.delta_on_slot: (
            lambda w: hopf._delta_word(ctx, w).terms.items(), 1),
        hopf.antipode_on_slot: (
            lambda w: (((v,), c) for v, c
                       in hopf._antipode_word(ctx, w).terms.items()), 0),
        hopf.counit_on_slot: (lambda w: () if w else (((), 1),), -1),
    }
    fractions = nonzero = 0
    for t in _slot_map_cases(ctx):
        fractions += any(type(c) is Fraction for c in t.terms.values())
        for slot in range(t.arity):
            for fn, (image, step) in images.items():
                got = fn(t, slot)
                want = map_slot_per_term(t, slot, image, t.arity + step)
                assert got.arity == want.arity
                assert got.terms == want.terms, (fn.__name__, slot)
                nonzero += bool(got.terms)
    assert fractions > 0 and nonzero > 0


def _current_modes(ctx):
    """Every mode e_i^(k), f_i^(k), h_i^(k) up to the degree bound."""
    for i in range(1, ctx.n):
        for kind in ("e", "f", "h"):
            s = current(ctx, kind, i)
            for k in range(1, ctx.max_degree + 1):
                yield s.coefficient(k)


@pytest.mark.parametrize("mode", [GL, SL])
@pytest.mark.parametrize("n,order", [(2, 5), (3, 3)])
def test_common_denominator_maps_match_fraction_oracles(n, order, mode):
    # the current modes carry the denominators of the (2 - i)/2 recentring
    ctx = Context(n, order, mode)
    fractions = 0
    for x in _current_modes(ctx):
        fractions += any(type(c) is Fraction for c in x.terms.values())
        d = hopf.delta_element(x)
        assert d.terms == linear_extension_fractions(x, hopf._delta_word)
        assert hopf.antipode_element(x).terms == linear_extension_fractions(
            x, hopf._antipode_word)
        for slot in (0, 1):
            got = hopf.multiply_slots(d, antipode=slot)
            assert got.terms == antipode_product_two_pass(d, slot).terms
    assert fractions > 0


def _hand_made_square(ctx):
    """A tensor square with Fraction coefficients that is no coproduct."""
    def g(i, j, k):
        return generator(ctx, i, j, k)
    one = unit(ctx)
    return (Tensor.of_elements(g(1, 2, 1), g(2, 1, 1)) * Fraction(1, 2)
            + Tensor.of_elements(g(1, 1, 2), one) * Fraction(2, 3)
            + Tensor.of_elements(g(1, 2, 1) * g(2, 1, 1), g(2, 2, 1))
            * Fraction(-5, 6)
            + Tensor.of_elements(one, g(1, 1, 1) * g(1, 2, 1))
            * Fraction(3, 4))


@pytest.mark.parametrize("mode", [GL, SL])
def test_one_pass_antipode_product_of_a_non_coproduct(mode):
    # a coproduct collapses to its counit, so only a tensor that is no
    # coproduct shows the residual terms of m(S x id) and m(id x S)
    ctx = Context(2, 4, mode)
    t = _hand_made_square(ctx)
    for slot in (0, 1):
        got = hopf.multiply_slots(t, antipode=slot)
        assert got.terms == antipode_product_two_pass(t, slot).terms
        assert any(w and type(c) is Fraction for w, c in got.terms.items())
    with pytest.raises(ValueError):
        hopf.multiply_slots(t, antipode=2)


def _exact_coefficients(obj):
    """An int while integral, a Fraction only with a denominator above 1."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in obj.terms.values())


@pytest.mark.parametrize("mode", [GL, SL])
def test_hopf_word_maps_store_int_while_integral(mode):
    ctx = Context(2, 4, mode)
    e12 = (1, 1, 2)
    # delta(T12^(1) T12^(1)) holds 2 T12 (x) T12, so half of it holds 1
    x = from_words(ctx, {(e12, e12): Fraction(1, 2), (e12,): Fraction(1, 3)})
    c = hopf.delta_element(x).terms[(encode_word((e12,)),
                                     encode_word((e12,)))]
    assert c == 1 and type(c) is int
    squares = [_hand_made_square(ctx)]
    for y in [x, *_current_modes(ctx)]:
        d = hopf.delta_element(y)
        squares.append(d)
        assert _exact_coefficients(d)
        assert _exact_coefficients(hopf.antipode_element(y))
    for d in squares:
        outputs = []
        for slot in (0, 1):
            outputs += [hopf.delta_on_slot(d, slot),
                        hopf.antipode_on_slot(d, slot),
                        hopf.counit_on_slot(d, slot),
                        hopf.multiply_slots(d, antipode=slot)]
        for out in outputs:
            assert _exact_coefficients(out)


def test_hopf_axioms_check_takes_one_coproduct_per_target(monkeypatch):
    calls = []
    delta = hopf.delta_element

    def counted(x):
        calls.append(x)
        return delta(x)

    monkeypatch.setattr(hopf, "delta_element", counted)
    reports = hopf.hopf_axioms_check(2, 4)
    targets = hopf._axiom_targets(Context(2, 4, SL))
    assert len(calls) == len(targets)
    assert [rep.cases for rep in reports] == [len(targets),
                                              2 * len(targets),
                                              2 * len(targets)]


# ---------------------------------------------------------------------------
# axioms and morphism property


@pytest.mark.parametrize("n,order", [(2, 3), (3, 2)])
def test_hopf_axioms(n, order):
    for rep in hopf.hopf_axioms_check(n, order):
        assert rep.passed, rep.as_dict()
        assert rep.cases > 0


@pytest.mark.parametrize("n,order", [(2, 3), (3, 2)])
def test_hopf_axioms_gl(n, order):
    for rep in hopf.hopf_axioms_check(n, order, mode=GL,
                                      include_currents=False):
        assert rep.passed, rep.as_dict()


@pytest.mark.parametrize("n,order,seed", [(2, 4, 3), (3, 3, 5)])
def test_coproduct_and_antipode_are_structure_maps(n, order, seed):
    rep = hopf.structure_morphism_check(n, order, seed=seed)
    assert rep.passed, rep.as_dict()


# ---------------------------------------------------------------------------
# images of minors


@pytest.mark.parametrize("n,order", [(2, 3), (3, 2)])
def test_minor_coproduct_expansion(n, order):
    rep = hopf.minor_coproduct_check(n, order)
    assert rep.passed, rep.as_dict()


def test_minor_counit_is_identity_pattern():
    assert hopf.minor_counit_check(3, 2).passed


@pytest.mark.parametrize("n,order", [(2, 4), (3, 3)])
def test_qdet_is_grouplike(n, order):
    rep = hopf.qdet_grouplike_check(n, order)
    assert rep.passed, rep.as_dict()


def test_minor_antipode_reflection_sign_is_plus_one():
    rep = hopf.minor_antipode_sign_check(3, 3)
    assert rep.passed, rep.as_dict()
    assert any("observed sign" in note for note in rep.notes)


# ---------------------------------------------------------------------------
# minor ratio identities for the composite operators


@pytest.mark.parametrize("n,order", [(2, 3), (3, 2)])
def test_ratio_identities(n, order):
    reps = hopf.ratio_identities_check(n, order)
    assert len(reps) == 8
    for rep in reps:
        assert rep.passed, rep.as_dict()


@pytest.mark.parametrize("n,order", [(2, 3), (3, 2), (3, 3)])
def test_diagonal_ratio_identities(n, order):
    rep = hopf.diagonal_ratio_check(n, order)
    assert rep.passed, rep.as_dict()


def test_hat_ratio_identities_rank_one_clean():
    rep = hopf.hat_ratio_check(2, 4)
    assert rep.status == "pass"


def test_hat_ratio_identities_rank_two_documented():
    # the lowering ratio misses at degree 3; both shift repairs land
    rep = hopf.hat_ratio_check(3, 3)
    assert rep.status == "documented"
    assert any("lower,i=1: earliest failing degree 3" in note
               for note in rep.notes)
    assert any("op-1" in note and "uniform-shift-pattern" in note
               for note in rep.notes)


def test_narrow_gate_window_breaks_hat_ratios(monkeypatch):
    # adjudicates the two printed gate windows: the wide one is correct
    assert hopf.hat_ratio_check(3, 2).passed
    monkeypatch.setattr(hopf, "_gate_fires", narrow_gate)
    narrow = hopf.hat_ratio_check(3, 2)
    assert not narrow.passed


def test_narrow_gate_window_breaks_the_operator_layer(monkeypatch):
    # every ratio family and the rank-three coproduct formulas read a
    # root step whose correction only the printed window switches on
    def reports():
        out = (hopf.ratio_identities_check(4, 2)
               + [hopf.diagonal_ratio_check(4, 2)]
               + [rep for rep in hopf.coproduct_formula_check(4, 3)
                  if rep.identity.endswith("2")])
        return {rep.identity: rep.passed for rep in out}

    printed = reports()
    assert len(printed) == len(hopf.RATIO_FAMILIES) + 1 + 3
    assert all(printed.values()), printed
    monkeypatch.setattr(hopf, "_gate_fires", narrow_gate)
    narrow = reports()
    assert narrow.keys() == printed.keys()
    assert not any(narrow.values()), narrow


# ---------------------------------------------------------------------------
# chain specs


def test_chain_specs_of_the_checks_stay_in_range(monkeypatch):
    # every spec the ratio and formula checks interpret, declared
    # deviations included, has its roots inside 1..n
    seen = []
    interpret = hopf.chain

    def spy(frame, spec, shift):
        seen.append((frame.ctx.n, spec))
        return interpret(frame, spec, shift)

    monkeypatch.setattr(hopf, "chain", spy)
    for n in range(2, 7):
        hopf.ratio_identities_check(n, 2)
        hopf.diagonal_ratio_check(n, 2)
        hopf.hat_ratio_check(n, 2)
        hopf.coproduct_formula_check(n, 2)
        hopf.antipode_formula_check(n, 2)
    kinds = set()
    for n, (side, alpha, steps) in seen:
        assert side in ("L", "R") and 1 <= alpha < n
        for kind, low, high, _ in steps:
            assert 1 <= low <= n and 1 <= high <= n, (n, side, alpha, steps)
            kinds.add(kind)
    assert kinds == {"e", "f", "d"}


@pytest.mark.parametrize("n", range(2, 7))
def test_uniform_shifts_moves_offsets_only(n):
    for kind in ("e", "f"):
        for m in range(1, n):
            spec = hopf.hat_spec(n, kind, m)
            moved = hopf.uniform_shifts(spec)
            assert moved[:2] == spec[:2]
            assert ([step[:3] for step in moved[2]]
                    == [step[:3] for step in spec[2]])
            # the single-step hats already have the uniform pattern, and
            # so does every raising hat
            assert (moved == spec) == (m == 1 or kind == "e"), (kind, m)


# ---------------------------------------------------------------------------
# closed coproduct formulas for the currents


@pytest.mark.parametrize("n,order", [(2, 3), (3, 2), (3, 3)])
def test_coproduct_formulas_match_pullback(n, order):
    for rep in hopf.coproduct_formula_check(n, order):
        assert rep.status == "pass", rep.as_dict()


def test_antipode_formulas_rank_one():
    reps = {r.identity: r for r in hopf.antipode_formula_check(2, 3)}
    assert reps["antipode-formula-e1"].status == "pass"
    assert reps["antipode-formula-f1"].status == "pass"
    h = reps["antipode-formula-h1"]
    assert h.status == "documented"
    assert any("earliest failing tensor degree: 3" in note for note in h.notes)
    assert any("recentered-subtraction" in note for note in h.notes)


def test_antipode_formulas_rank_two():
    reps = {r.identity: r for r in hopf.antipode_formula_check(3, 3)}
    for name in ("e1", "e2", "f2"):
        assert reps["antipode-formula-" + name].status == "pass"
    f1 = reps["antipode-formula-f1"]
    assert f1.status == "documented"
    assert any("op-1" in note and "uniform-hat-shifts" in note
               for note in f1.notes)
    for i in (1, 2):
        h = reps["antipode-formula-h%d" % i]
        assert h.status == "documented"
        assert any("own-index-recentered-subtraction" in note
                   for note in h.notes)


def _verdicts(reports):
    """{where: names} of every printed form the reports found to miss,
    read off their notes: the names a "repaired by" note lists, or none
    where no declared repair holds.  where is a formula report's
    identity, or "ratio-hat:" and the hat's case label."""
    out = {}
    for rep in reports:
        for note in rep.notes:
            where, sep, names = note.partition("repaired by: ")
            if not sep:
                where, sep, _ = note.partition("no declared repair holds")
                if not sep:
                    continue
            key = rep.identity + (":" + where[:-2] if where else "")
            out[key] = names.split(", ") if names else []
    return out


def _formula_verdicts(n, order):
    return _verdicts([hopf.hat_ratio_check(n, order)]
                     + hopf.coproduct_formula_check(n, order)
                     + hopf.antipode_formula_check(n, order))


# the default order at n=2..6, the h1 failure at (3, 4), operator shifts
# at n >= 4 from order 3, and (5, 3), where only the uniform hat repairs
# f2 and the lowering hat at i=2
@pytest.mark.parametrize("n, order",
                         [(n, default_order(n)) for n in range(2, 7)]
                         + [(3, 4), (4, 3), (5, 3)])
def test_repair_search_finds_exactly_the_declared_repairs(n, order):
    # the search's slot, gate and named probes name no repair that the
    # declared deviations miss, and each miss they report is its miss too
    assert repair_search(n, order) == _formula_verdicts(n, order)


def _declared_kind(where):
    family, _, current = where.partition("-formula-")
    return "%s-%s" % (family, current[0]) if current else "ratio-hat"


# (kind, name) of each declared deviation, a pinned configuration and
# place where it holds, and whether it is the one repair that holds
# there.  op-1 always holds beside the uniform shift pattern, and the
# recentered subtraction only at n=2, where it is the own-index one.
@pytest.mark.parametrize("kind, name, n, order, where, only", [
    ("antipode-f", "uniform-hat-shifts", 5, 3, "antipode-formula-f2", True),
    ("antipode-h", "own-index-recentered-subtraction", 3, 3,
     "antipode-formula-h1", True),
    ("ratio-hat", "uniform-shift-pattern", 5, 3, "ratio-hat:lower,i=2",
     True),
    ("antipode-f", "op-1", 3, 3, "antipode-formula-f1", False),
    ("ratio-hat", "op-1", 3, 3, "ratio-hat:lower,i=1", False),
    ("antipode-h", "recentered-subtraction", 2, 4, "antipode-formula-h1",
     False),
])
def test_each_declared_deviation_is_load_bearing(monkeypatch, kind, name, n,
                                                 order, where, only):
    def run():
        reports = ([hopf.hat_ratio_check(n, order)]
                   + hopf.antipode_formula_check(n, order))
        return _verdicts(reports), {r.identity: r for r in reports}

    verdicts, reports = run()
    declared = hopf.deviations
    monkeypatch.setattr(hopf, "deviations", lambda rank: tuple(
        d for d in declared(rank) if d[:2] != (kind, name)))
    without, reports_without = run()
    # removing the deviation drops its name from the verdicts of its
    # kind, and changes nothing else
    assert name in verdicts[where]
    assert without == {
        place: [x for x in names if (_declared_kind(place), x) != (kind, name)]
        for place, names in verdicts.items()}
    assert (not without[where]) == only
    if only:
        # with its one repair gone, the cases it documented fail
        identity = where.partition(":")[0]
        old, new = reports[identity], reports_without[identity]
        still = {label for label, _ in new.documented}
        moved = {label for label, _ in old.documented} - still
        assert moved and moved <= {label for label, _ in new.residuals}
        assert new.status == "fail"
        if identity != "ratio-hat":
            assert old.status == "documented"


@pytest.mark.parametrize("n,order", [(2, 3), (3, 3)])
def test_counit_of_currents(n, order):
    assert hopf.counit_formula_check(n, order).passed


# ---------------------------------------------------------------------------
# the frame memo under the repair search


def _search_builds(n):
    """(formula, kind, i, keywords) of every build the formula checks and
    the repair search make, in their order: the printed formula, the
    search's probes and the declared deviations.  The lowering coproduct
    is also built with the raising formula's slot values."""
    families = (("antipode", hopf.formula_antipode, hopf.ANTIPODE_SLOTS),
                ("coproduct", hopf.formula_delta, hopf.DELTA_SLOTS))
    builds = []
    for family, formula, slots in families:
        for i in range(1, n):
            for kind in ("e", "f", "h"):
                builds.append((formula, kind, i, {}))
                builds += [(formula, kind, i, keywords) for _, keywords
                           in formula_probes(family, kind, n)]
                builds += [(formula, kind, i, {"shifts": shifts})
                           for where, _, shifts in hopf.deviations(n)
                           if where == "%s-%s" % (family, kind)]
                if formula is hopf.formula_delta and kind == "f":
                    # the slot values of the raising formula, which the
                    # lowering one shares by name
                    builds.append((formula, kind, i,
                                   {"shifts": dict(slots["e"])}))
    return builds


# Each size separates some pieces that agree at the others: operator
# shifts first act at order 3, the two pairing series differ from u^-4
# on, and the h numerator meets a spectral correction only from n=5.
@pytest.mark.parametrize("n, order", [(3, 2), (4, 2), (5, 2), (4, 3), (2, 5)])
def test_frame_memo_matches_fresh_builds(n, order):
    # every build on one shared frame, in the search order and reversed,
    # equals the same build on a fresh frame: no memo key may leave out
    # an input its piece reads
    ctx = Context(n, order, SL)
    builds = _search_builds(n)
    fresh = [formula(hopf.CurrentFrame(ctx), kind, i, **keywords)
             for formula, kind, i, keywords in builds]
    for sequence in (list(range(len(builds))),
                     list(reversed(range(len(builds))))):
        frame = hopf.CurrentFrame(ctx)
        for p in sequence:
            formula, kind, i, keywords = builds[p]
            got = formula(frame, kind, i, **keywords)
            assert got == fresh[p], (formula.__name__, kind, i, keywords)


def test_frame_memo_root_actions_match_fresh_builds():
    # every root action with a correction, on one shared frame, equals
    # the same action on a fresh frame: the formula checks never ask for two
    # corrections that differ only in the root's low end, this does
    n, order = 4, 2
    ctx = Context(n, order, SL)
    shared = hopf.CurrentFrame(ctx)
    arg = shared.g(1)
    seen = 0
    for kind in ("e", "f"):
        for alpha in range(1, n):
            for low in range(1, alpha + 1):
                for high in range(alpha + 1, n + 1):
                    for shift in (0, 1):
                        for side in ("L", "R"):
                            got = hopf.elementary_root(
                                shared, kind, side, alpha, low, high,
                                shift)(arg)
                            want = hopf.elementary_root(
                                hopf.CurrentFrame(ctx), kind, side,
                                alpha, low, high, shift)(arg)
                            assert got == want, (kind, side, alpha, low,
                                                 high, shift)
                            seen += 1
    assert seen == 2 * 2 * 2 * 10


def test_frame_memo_builds_once():
    ctx = Context(3, 2, SL)
    frame = hopf.CurrentFrame(ctx)
    calls = []
    first = frame.memo(("k", 1), lambda: calls.append(1) or "v")
    assert frame.memo(("k", 1), lambda: calls.append(2) or "w") is first
    assert calls == [1]
    assert frame.g(1) is frame.g(1)
    spec = hopf.hat_spec(3, "f", 2)
    assert (frame.apply_chain(spec, 0, ("f", 2, 1))
            is frame.apply_chain(spec, 0, ("f", 2, 1)))
    assert (hopf.formula_antipode(frame, "h", 1)
            is hopf.formula_antipode(frame, "h", 1, shifts={"den_op": 0}))


# ---------------------------------------------------------------------------
# pairing series identities behind the antipode formulas


def test_antipode_swaps_the_two_pairing_series_rank_one():
    ctx = Context(2, 4, SL)
    frame = hopf.CurrentFrame(ctx)
    lhs = hopf.antipode_series(frame.g(1).shift(1))
    rhs = frame.g_tilde(1).invert()
    for k in range(5):
        assert (lhs.coefficient(k) - rhs.coefficient(k)).is_zero()
    lhs = hopf.antipode_series(frame.g_tilde(1).shift(1))
    rhs = frame.g(1).invert()
    for k in range(5):
        assert (lhs.coefficient(k) - rhs.coefficient(k)).is_zero()


@pytest.mark.parametrize("n,order", [(2, 4), (3, 3)])
def test_diagonal_first_term_is_antipode_of_pairing_series(n, order):
    # the composite ratio of recentered pairing series equals S(g_i(u+n/2))
    ctx = Context(n, order, SL)
    frame = hopf.CurrentFrame(ctx)
    half = Fraction(n, 2)
    for i in range(1, n):
        m = n - i
        den = hopf.chain(frame, hopf.composite_spec(
            "h", "L", m, tuple(range(i + 1, n + 1))), 0)(frame.g_tilde(m))
        num = hopf.chain(frame, hopf.composite_spec(
            "h", "L", m, (i,) + tuple(range(i + 2, n + 1))), 0)(
            frame.g_tilde(m))
        first = den.invert() * num
        want = hopf.antipode_series(frame.g(i)).shift(half)
        for k in range(order + 1):
            assert (first.coefficient(k) - want.coefficient(k)).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_pairing_series_separate_at_coefficient_four(n):
    ctx = Context(n, 4, SL)
    frame = hopf.CurrentFrame(ctx)
    diff = frame.g(1) - frame.g_tilde(1)
    assert not diff.is_zero()
    assert diff.lowest_order() == 4


def test_diagonal_antipode_decomposes_through_pairing_series():
    # S(h(u)) = S(g(u)) - S(e(u+1)) S(f(u)) holds exactly
    ctx = Context(2, 4, SL)
    frame = hopf.CurrentFrame(ctx)
    sh = hopf.antipode_series(frame.current("h", 1))
    sg = hopf.antipode_series(frame.g(1))
    se = hopf.antipode_series(frame.current("e", 1).shift(1))
    sf = hopf.antipode_series(frame.current("f", 1))
    rhs = sg - se * sf
    for k in range(5):
        assert (sh.coefficient(k) - rhs.coefficient(k)).is_zero()


# ---------------------------------------------------------------------------
# rank-one and rank-two closed forms


def test_sl2_closed_forms():
    reps = {r.identity: r for r in hopf.sl2_closed_check(4)}
    for kind in ("e", "f", "h"):
        assert reps["sl2-closed-delta-" + kind].status == "pass"
    assert reps["sl2-closed-antipode-e"].status == "pass"
    assert reps["sl2-closed-antipode-f"].status == "pass"
    h = reps["sl2-closed-antipode-h"]
    assert h.status == "documented"
    assert any("degree 3" in note for note in h.notes)


def _sl2_shift_variants():
    """No shift, then every single spectral slot of each kind at +-1."""
    for kind, slots in hopf.SL2_DELTA_SLOTS.items():
        yield kind, None
        for name, val in slots.items():
            for delta in (1, -1):
                yield kind, {name: val + delta}


@pytest.mark.parametrize("order", [4, 5, 6])
def test_sl2_geometric_coproducts_match_expanded_sums(order):
    # the geometric-sum form against the power-by-power expansion, term
    # for term, as written and under every single-slot perturbation
    frame = hopf.CurrentFrame(Context(2, order, SL))
    for kind, shifts in _sl2_shift_variants():
        got = hopf.sl2_closed_delta(frame, kind, shifts)
        assert got == sl2_closed_delta_expanded(frame, kind, shifts), (
            kind, shifts)


def test_sl2_mutation_sensitivity():
    rep = hopf.sl2_mutation_check(4)
    assert rep.passed, rep.as_dict()
    # every slot broke in both directions, with its earliest degree noted
    assert len(rep.notes) == 8
    assert rep.cases == 9


def test_sl3_closed_forms():
    reps = {r.identity: r for r in hopf.sl3_closed_check(2)}
    for i in (1, 2):
        for kind in ("e", "f"):
            assert reps["sl3-closed-delta-%s%d" % (kind, i)].status == "pass"
        h = reps["sl3-closed-delta-h%d" % i]
        assert h.status == "pass"
        assert any("matches through order 2" in note for note in h.notes)


def test_sl3_diagonal_written_form_separates_at_degree_three():
    rep = hopf.sl3_diagonal_status(3)
    assert rep.status == "documented"
    for i in (1, 2):
        assert any("i=%d" % i in note and "fails first at degree 3" in note
                   and "recentered u+1 matches" in note for note in rep.notes)


# ---------------------------------------------------------------------------
# error paths


def test_unknown_current_kind_raises():
    ctx = Context(2, 3, SL)
    frame = hopf.CurrentFrame(ctx)
    with pytest.raises(ValueError):
        hopf.formula_delta(frame, "x", 1)
    with pytest.raises(ValueError):
        hopf.formula_antipode(frame, "x", 1)
    with pytest.raises(ValueError):
        hopf.sl2_closed_antipode(frame, "x")
    with pytest.raises(ValueError):
        hopf.sl2_closed_delta(frame, "x")
    with pytest.raises(ValueError):
        hopf.sl3_closed_delta(hopf.CurrentFrame(Context(3, 2, SL)), "x")


def test_geometric_sum_rejects_units():
    ctx = Context(2, 3, SL)
    one = hopf.delta_series(current(ctx, "h", 1))
    with pytest.raises(ValueError):
        from yangian.series import geometric_unit_sum
        geometric_unit_sum(one)
