"""A rank census of the chain-based checks past the CLI range.

The CLI accepts n <= 6, but the library runs any rank.  Every report of
`hat_ratio_check`, `ratio_identities_check`, `diagonal_ratio_check`,
`coproduct_formula_check` and `antipode_formula_check` at n = 2..8,
order 2, is held to the committed table below, so that a change to a
chain, a spec or the interpreter shows its effect at every rank, not
only at the ranks it was fitted to.  A repair of a formula updates the
table.
"""

from functools import lru_cache

import pytest

from yangian import hopf

ORDER = 2
RANKS = range(2, 9)

# n: (failing reports, documented reports); every other report passes.
# A bare "e2", "f2" or "h2" names the antipode-formula report of that
# current and index.
CENSUS = {
    2: ("", ""),
    3: ("", "h1 h2"),
    4: ("ratio-hat e2 f2 h2", "h1 h3"),
    5: ("ratio-hat f3 h3", "h1 h2 h4"),
    6: ("ratio-hat e2 f2 h2 e3 f3 h3 e4 f4 h4", "h1 h5"),
    7: ("ratio-hat e3 h3 f4 h4 e5 f5 h5", "h1 h2 h6"),
    8: ("ratio-hat e2 f2 h2 f3 h3 e4 f4 h4 e5 f5 h5 e6 f6 h6", "h1 h7"),
}


def _identity(name):
    return name if name.startswith("ratio-") else "antipode-formula-" + name


# the checks that read hopf.hat_spec come first
HAT_CHECKS = (hopf.hat_ratio_check, hopf.antipode_formula_check)
CHECKS = HAT_CHECKS + (hopf.ratio_identities_check,
                       hopf.diagonal_ratio_check,
                       hopf.coproduct_formula_check)


def census(checks=CHECKS):
    """{n: {identity: status}} of every report of checks at n = 2..8."""
    out = {n: {} for n in RANKS}
    for n in RANKS:
        for check in checks:
            reports = check(n, ORDER)
            for rep in reports if isinstance(reports, list) else [reports]:
                out[n][rep.identity] = rep.status
    return out


def expected(n, identities):
    fail, documented = (
        {_identity(name) for name in names.split()}
        for names in CENSUS[n])
    return {identity: "fail" if identity in fail
            else "documented" if identity in documented else "pass"
            for identity in identities}


@lru_cache(maxsize=None)
def _printed():
    return census()


@pytest.mark.parametrize("n", RANKS)
def test_census_matches_the_table(n):
    got = _printed()[n]
    # ratio-hat, eight ratio families, ratio-diagonal and three coproduct
    # and three antipode formulas per index
    assert len(got) == 6 * n + 4
    assert got == expected(n, got)


def _moved_lowering_hat(hat_spec):
    """hat_spec with the last step of each lowering hat moved to high - 1
    where that stays >= its low end: a deliberately broken chain."""
    def broken(n, kind, m):
        side, alpha, steps = hat_spec(n, kind, m)
        step, low, high, offset = steps[-1]
        if kind == "f" and high - 1 >= low:
            steps = steps[:-1] + ((step, low, high - 1, offset),)
        return side, alpha, steps
    return broken


def test_census_sees_a_moved_hat_endpoint(monkeypatch):
    # negative control: one endpoint of the lowering hat moved changes
    # the table at many ranks; only the checks that read the hat can move
    printed = _printed()
    monkeypatch.setattr(hopf, "hat_spec", _moved_lowering_hat(hopf.hat_spec))
    moved = census(HAT_CHECKS)
    changed = [(n, identity) for n in RANKS
               for identity, status in moved[n].items()
               if status != printed[n][identity]]
    assert len(changed) == 18, changed
