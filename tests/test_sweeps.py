"""The two commutation sweeps as residual sums, against the bodies they
replaced.

`rtt.minor_bracket_sweep` and `drinfeld.relations_check` add each case's
lhs - rhs into one raw dict and reduce it once; the relations sweep reads
integral scaled modes through one bracket table.  Each test keeps the
case-by-case body (`tests/util.py`) as its reference: the reports must be
equal as JSON, also when a perturbed input makes cases fail.  The
relations sweep empties the word layer after each family, which a
memory guard holds against the same sweep with the clearing disabled.
"""

import json
import tracemalloc
from fractions import Fraction

import pytest

from yangian import algebra, drinfeld, hopf, rtt
from yangian.algebra import Context, Element, GL, SL, generator
from yangian.report import Report
from yangian.series import Series
from yangian.suites import _minor_index_sets
from util import minor_bracket_sweep_reference, relations_check_reference


def _minor_sweep_json(sweep, n, order):
    """Both reports of a sweep over every index set of the minors suite."""
    ctx = Context(n, order, GL)
    comm = Report("minor-commutation-sweep")
    cent = Report("minor-centrality-sweep")
    for rows, cols in _minor_index_sets(n, 3):
        sweep(ctx, rows, cols, comm, cent, "r=%s,c=%s" % (rows, cols))
    return json.dumps([comm.as_dict(), cent.as_dict()]), comm, cent


def _reports_json(reports):
    return json.dumps([rep.as_dict() for rep in reports])


@pytest.mark.parametrize("n,order", [(3, 3), (4, 2), (5, 2)])
def test_minor_sweep_matches_the_case_by_case_body(n, order):
    got, comm, cent = _minor_sweep_json(rtt.minor_bracket_sweep, n, order)
    want, _, _ = _minor_sweep_json(minor_bracket_sweep_reference, n, order)
    assert got == want
    assert comm.cases == n * n * order * (order + 1) // 2 * len(
        _minor_index_sets(n, 3))
    assert cent.cases > 0


def test_minor_sweep_records_the_residuals_of_a_perturbed_minor(monkeypatch):
    # t(1,2; 1,3) gains T_12^(1) at u^-1: both bodies see the same wrong
    # minor, wherever it is read, and must record the same residuals
    real = rtt.quantum_minor

    def perturbed(ctx, rows, cols):
        out = real(ctx, rows, cols)
        if (tuple(rows), tuple(cols)) == ((1, 2), (1, 3)):
            out = out + Series(ctx, {1: generator(ctx, 1, 2, 1)})
        return out

    monkeypatch.setattr(rtt, "quantum_minor", perturbed)
    got, comm, cent = _minor_sweep_json(rtt.minor_bracket_sweep, 4, 2)
    want, _, _ = _minor_sweep_json(minor_bracket_sweep_reference, 4, 2)
    assert comm.residuals and cent.residuals
    assert got == want


def test_a_passing_minor_sweep_builds_no_residual_element(monkeypatch):
    # brackets are built by `commutator`; the sweep itself builds an
    # element only for a nonzero residual
    class NoElement:
        @staticmethod
        def _trusted(ctx, terms):
            raise AssertionError("residual element built for a pass")

    monkeypatch.setattr(rtt, "Element", NoElement)
    _, comm, cent = _minor_sweep_json(rtt.minor_bracket_sweep, 4, 2)
    assert comm.passed and cent.passed


def _spy_products(monkeypatch, seen):
    """Record the operands of every `Element._mul_into` call."""
    real = Element._mul_into

    def spy(self, other, raw, factor=1):
        seen.append((self, other, factor))
        return real(self, other, raw, factor)

    monkeypatch.setattr(Element, "_mul_into", spy)


def test_no_empty_operand_reaches_a_product_in_the_minor_sweep(monkeypatch):
    ctx = Context(5, 2, GL)
    for rows, cols in _minor_index_sets(5, 3):
        rtt.quantum_minor(ctx, rows, cols)
    seen = []
    _spy_products(monkeypatch, seen)
    _minor_sweep_json(rtt.minor_bracket_sweep, 5, 2)
    assert seen
    assert not [1 for a, b, _ in seen if not a.terms or not b.terms]


@pytest.mark.parametrize("n,degree", [(3, 3), (4, 2), (5, 2)])
def test_relations_sweep_matches_the_case_by_case_body(n, degree):
    assert (_reports_json(drinfeld.relations_check(n, degree))
            == _reports_json(relations_check_reference(n, degree)))


def _perturb_modes(monkeypatch):
    """e1(1) gains T_12^(1)/3 and h2(0) gains 2 T_21^(1)."""
    real = drinfeld._mode

    def perturbed(ctx, kind, i, k):
        out = real(ctx, kind, i, k)
        if (kind, i, k) == ("e", 1, 1):
            out = out + Fraction(1, 3) * generator(ctx, 1, 2, 1)
        elif (kind, i, k) == ("h", 2, 0):
            out = out + 2 * generator(ctx, 2, 1, 1)
        return out

    monkeypatch.setattr(drinfeld, "_mode", perturbed)


@pytest.mark.parametrize("n", [3, 4])
def test_relations_sweep_records_the_residuals_of_perturbed_modes(
        monkeypatch, n):
    _perturb_modes(monkeypatch)
    got = drinfeld.relations_check(n, 2)
    assert [rep.status for rep in got].count("fail") == 6
    assert _reports_json(got) == _reports_json(relations_check_reference(n, 2))


def test_a_bracket_table_without_the_swap_sign_fails(monkeypatch):
    real = drinfeld.BracketTable.get

    def unsigned(self, x, y):
        return real(self, x, y)[0], 1

    assert all(rep.passed for rep in drinfeld.relations_check(3, 2))
    monkeypatch.setattr(drinfeld.BracketTable, "get", unsigned)
    failed = [rep.identity for rep in drinfeld.relations_check(3, 2)
              if not rep.passed]
    assert "raising-raising-recursion" in failed


def test_each_bracket_of_two_modes_is_formed_once_per_sweep(monkeypatch):
    formed = []
    real = drinfeld.commutator

    def spy(a, b):
        formed.append(frozenset((id(a), id(b))))
        return real(a, b)

    monkeypatch.setattr(drinfeld, "commutator", spy)
    reports = drinfeld.relations_check(4, 2)
    assert all(rep.passed for rep in reports)
    assert formed and len(formed) == len(set(formed))


def test_the_word_layer_is_emptied_after_each_relation_family(monkeypatch):
    cleared = []
    real = drinfeld.clear_word_layer

    def spy():
        cleared.append(algebra.normal_form_word.cache_info().currsize)
        real()

    monkeypatch.setattr(drinfeld, "clear_word_layer", spy)
    reports = drinfeld.relations_check(3, 2)
    assert len(cleared) == len(reports) == 9
    assert cleared[0]
    assert algebra.normal_form_word.cache_info().currsize == 0


def _relations_sweep_peak(n, degree):
    """Tracemalloc peak of `relations_check(n, degree)`, in bytes, from
    an empty word layer."""
    algebra.clear_word_layer()
    tracemalloc.start()
    try:
        drinfeld.relations_check(n, degree)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,degree", [(4, 2), (3, 3)])
def test_clearing_between_families_halves_the_sweep_peak(
        monkeypatch, n, degree):
    # the currents outlive the sweep, so they are built before it runs
    ctx = drinfeld._relation_context(n, degree, SL)
    for kind in drinfeld.CURRENT_KINDS:
        for i in range(1, n):
            drinfeld.current(ctx, kind, i)
    cleared = _relations_sweep_peak(n, degree)
    # negative control: the same sweep keeping every family's words
    monkeypatch.setattr(drinfeld, "clear_word_layer", lambda: None)
    kept = _relations_sweep_peak(n, degree)
    assert cleared < kept / 2


@pytest.mark.parametrize("n,degree", [(2, 4), (3, 3), (5, 2)])
def test_every_scaled_mode_coefficient_is_an_int(n, degree):
    ctx = drinfeld._relation_context(n, degree, SL)
    for kind in drinfeld.CURRENT_KINDS:
        for i in range(1, n):
            for k in range(degree + 1):
                mode = drinfeld.scaled_mode(ctx, kind, i, k)
                assert all(type(c) is int for c in mode.terms.values())
                assert mode == 2 ** (k + 1) * drinfeld._mode(ctx, kind, i, k)


def test_no_fraction_reaches_a_product_in_the_relations_sweep(monkeypatch):
    seen = []
    _spy_products(monkeypatch, seen)
    drinfeld.relations_check(5, 2)
    assert seen
    fractions = [1 for a, b, factor in seen
                 if type(factor) is not int
                 or any(type(c) is not int for c in a.terms.values())
                 or any(type(c) is not int for c in b.terms.values())]
    assert not fractions


# ---------------------------------------------------------------------------
# inversions and shifts read once


def test_each_leading_block_is_inverted_once_per_context(monkeypatch):
    ctx = Context(5, 2, SL)
    for i in range(1, 5):
        inv = drinfeld.leading_block_inverse(ctx, i)
        assert inv is drinfeld.leading_block_inverse(ctx, i)
        assert inv * drinfeld.leading_block(ctx, i) == Series.constant(ctx)
        # the diagonal current inverts the shifted block as a shifted
        # inverse: the shift is a ring map of truncated series
        assert (inv.shift(-1)
                == drinfeld.leading_block(ctx, i).shift(-1).invert())
        for kind in drinfeld.CURRENT_KINDS:
            drinfeld.current(ctx, kind, i)
    inverted = []
    real = Series.invert

    def spy(self):
        inverted.append(self)
        return real(self)

    monkeypatch.setattr(Series, "invert", spy)
    hopf.ratio_identities_check(5, 2)
    hopf.diagonal_ratio_check(5, 2)
    hopf.hat_ratio_check(5, 2)
    assert inverted == []


@pytest.mark.parametrize("check,shifts", [
    (hopf.ratio_identities_check, 32), (hopf.coproduct_formula_check, 52)])
def test_a_frame_shifts_each_argument_once(monkeypatch, check, shifts):
    # a first run fills the minor and current memos, so the second counts
    # only the shifts of its own frame
    check(5, 2)
    calls = []
    real = Series.shift

    def spy(self, c):
        calls.append(c)
        return real(self, c)

    monkeypatch.setattr(Series, "shift", spy)
    check(5, 2)
    assert len(calls) == shifts


def test_a_frame_argument_is_the_shifted_series_built_once():
    ctx = Context(3, 2, SL)
    frame = hopf.CurrentFrame(ctx)
    half = Fraction(1, 2)
    for name, want in (("e", drinfeld.current(ctx, "e", 2)),
                       ("g", frame.g(2)), ("gt", frame.g_tilde(2))):
        got = frame.argument(name, 2, half)
        assert got == want.shift(half)
        assert frame.argument(name, 2, half) is got
