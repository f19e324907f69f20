import pytest
from fractions import Fraction

from yangian import Context, GL, SL, commutator, generator
from yangian.drinfeld import (
    cartan_pairing,
    current,
    current_mode,
    currents_constant_check,
    h_current,
    h_variants_check,
    nested_root_element,
    relations_check,
    root_element,
    root_vectors_check,
)
from yangian.rtt import t_entry


def test_cartan_pairing_table():
    assert cartan_pairing(1, 1) == 2
    assert cartan_pairing(2, 2) == 2
    assert cartan_pairing(1, 2) == -1
    assert cartan_pairing(2, 1) == -1
    assert cartan_pairing(1, 3) == 0
    assert cartan_pairing(4, 1) == 0


def test_raising_current_matches_entry_ratio_rank_one():
    # for the first root the defining ratio is a plain entry product
    ctx = Context(2, 4, SL)
    lhs = current(ctx, "e", 1).shift(Fraction(-1, 2))
    rhs = t_entry(ctx, 1, 1).invert() * t_entry(ctx, 1, 2)
    for k in range(5):
        assert (lhs.coefficient(k) - rhs.coefficient(k)).is_zero()

    lhs = current(ctx, "f", 1).shift(Fraction(-1, 2))
    rhs = t_entry(ctx, 2, 1) * t_entry(ctx, 1, 1).invert()
    for k in range(5):
        assert (lhs.coefficient(k) - rhs.coefficient(k)).is_zero()


def test_lowest_modes_are_degree_one_generators():
    ctx = Context(2, 3, SL)
    e0 = current_mode(current(ctx, "e", 1), 0)
    f0 = current_mode(current(ctx, "f", 1), 0)
    assert (e0 - generator(ctx, 1, 2, 1)).is_zero()
    assert (f0 - generator(ctx, 2, 1, 1)).is_zero()
    # pairing bracket reproduces the diagonal zero mode
    h0 = current_mode(current(ctx, "h", 1), 0)
    assert (commutator(e0, f0) - h0).is_zero()
    assert (h0 + 2 * generator(ctx, 1, 1, 1)).is_zero()


def test_lowest_modes_rank_two():
    ctx = Context(3, 3, SL)
    for i in (1, 2):
        e0 = current_mode(current(ctx, "e", i), 0)
        f0 = current_mode(current(ctx, "f", i), 0)
        assert (e0 - generator(ctx, i, i + 1, 1)).is_zero()
        assert (f0 - generator(ctx, i + 1, i, 1)).is_zero()


def test_current_constants():
    assert currents_constant_check(2, 2).passed
    assert currents_constant_check(3, 1).passed


def test_diagonal_variants_agree_rank_one():
    assert h_variants_check(2, 3).passed


def test_diagonal_variants_agree_rank_two():
    assert h_variants_check(3, 2).passed


def test_relations_rank_one():
    for rep in relations_check(2, 3):
        assert rep.passed, rep.identity
    # nothing silently skipped
    names = {rep.identity for rep in relations_check(2, 3)}
    assert "adjacent-serre" in names


def test_relations_rank_two_shallow():
    for rep in relations_check(3, 1):
        assert rep.passed, rep.identity


def test_relations_hold_without_determinant_constraint():
    for rep in relations_check(2, 2, mode=GL):
        assert rep.passed, rep.identity


def test_root_vectors_nested_brackets():
    assert root_vectors_check(3).passed
    assert root_vectors_check(4).passed


def test_root_vector_example():
    ctx = Context(3, 2, SL)
    e1 = nested_root_element(ctx, "e", 1, 2)
    e2 = nested_root_element(ctx, "e", 2, 3)
    long_root = commutator(e2, e1)
    assert (long_root - root_element(ctx, "e", 1, 3)).is_zero()
    f1 = nested_root_element(ctx, "f", 1, 2)
    f2 = nested_root_element(ctx, "f", 2, 3)
    assert (commutator(f1, f2) - root_element(ctx, "f", 1, 3)).is_zero()


def test_current_argument_errors():
    ctx = Context(2, 2, SL)
    with pytest.raises(ValueError):
        current(ctx, "x", 1)
    with pytest.raises(ValueError):
        current(ctx, "e", 2)
    with pytest.raises(ValueError):
        h_current(ctx, 1, variant=4)
    with pytest.raises(ValueError):
        root_element(ctx, "h", 1, 2)
    with pytest.raises(ValueError):
        current_mode(current(ctx, "e", 1), -1)
