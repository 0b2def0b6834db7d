"""Equation engine: rule-chain construction checked against the
inner-product closed form.

The closed form (coefficient at cell i is the Lee weight of the
wordtype-cell inner product mod 4) is an independent derivation; it is
trusted only because test_golden.py shows it reproduces the frozen
matrices bit-exactly. Here it cross-checks the rule chain everywhere
the frozen data does not reach.
"""

import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcode import (EquationSystem, a_equation, all_odd_closed_form,
                   basis_single_one, basis_single_two, build_system,
                   ca_add, canonical_wordtypes, lee_weight, lift_all_odd,
                   lift_insert_zero, parity_classes, toggle_entry)
from qcode.equations import (KEquation, _cached_system, _row, cells,
                             is_canonical, negate)


def closed_form_coeffs(w):
    p = len(w)
    return tuple(lee_weight(sum(a * b for a, b in zip(w, i)) % 4)
                 for i in cells(p))


def test_canonical_counts():
    for p, want in ((1, 2), (2, 9), (3, 35), (4, 135)):
        got = canonical_wordtypes(p)
        assert len(got) == want
        assert len(got) == 2 ** p - 1 + 2 ** (2 * p - 1) - 2 ** (p - 1)


def test_canonicality_rule():
    assert is_canonical((2, 0, 2))
    assert is_canonical((0, 1, 3))
    assert not is_canonical((0, 0, 0))
    assert not is_canonical((0, 3, 1))
    assert negate((1, 2, 3)) == (3, 2, 1)


def test_parity_class_order_p3():
    assert parity_classes(3) == ((0, 0, 1), (0, 1, 0), (1, 0, 0),
                                 (0, 1, 1), (1, 0, 1), (1, 1, 0),
                                 (1, 1, 1))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_rule_chain_matches_closed_form(p):
    sysm = build_system(p)
    # whole matrices against the inner products, in uint8 (at most 3 * 3 * p)
    digits = np.array(cells(p), np.uint8)
    kinds = np.array(sysm.k_order, np.uint8)
    lee = np.array([lee_weight(x) for x in range(4)], np.uint8)
    assert np.array_equal(sysm.C, lee[kinds @ digits.T % 4])
    pis = np.array(sysm.a_order, np.uint8)
    assert np.array_equal(sysm.B, (digits @ pis.T % 2).T)
    assert sysm.constants == tuple(sum(map(lee_weight, w))
                                   for w in sysm.k_order)
    if p > 4:
        return
    # and row by row for every wordtype, w and -w alike
    for w in product(range(4), repeat=p):
        if not any(w):
            continue
        eq = sysm.k_equation(w)
        assert eq.coeffs == closed_form_coeffs(w), w
        assert eq.constant == sum(lee_weight(x) for x in w)


def test_basis_rows():
    k1 = basis_single_one(1, 0)
    assert k1.coeffs == (0, 1, 2, 1) and k1.constant == 1
    k2 = basis_single_two(1, 0)
    assert k2.coeffs == (0, 2, 0, 2) and k2.constant == 2


def test_ca_add_frozen_example(examples):
    ex = examples["oplus_p2"]
    sysm = build_system(2)
    k10 = sysm.k_equation((1, 0))
    k02 = sysm.k_equation((0, 2))
    assert list(k10.coeffs) == ex["k_10"]
    assert list(k02.coeffs) == ex["k_02"]
    total = ca_add(k10, k02, wtype=(1, 2))
    assert list(total.coeffs) == ex["sum"]
    # the two cells the fixture pins individually
    assert total.coeffs[0b0101] == 1  # cell (1,1)
    assert total.coeffs[0b1001] == 0  # cell (2,1)


def test_ca_add_exact_with_even_operand():
    sysm = build_system(2)
    for w1, w2 in (((1, 0), (0, 2)), ((2, 0), (0, 1)), ((2, 2), (1, 0))):
        combined = tuple((a + b) % 4 for a, b in zip(w1, w2))
        got = ca_add(sysm.k_equation(w1), sysm.k_equation(w2))
        assert got.coeffs == closed_form_coeffs(combined)


def test_ca_add_commutative_identity(systems):
    sysm = systems[2]
    zero = sysm.k_equation((2, 0))
    zeroed = type(zero)(zero.wordtype, 0, (0,) * 16)
    for w in ((1, 2), (0, 3), (2, 2)):
        eq = sysm.k_equation(w)
        assert ca_add(eq, zeroed).coeffs == eq.coeffs
        other = sysm.k_equation((1, 0))
        assert ca_add(eq, other).coeffs == ca_add(other, eq).coeffs


def test_toggle_entry_twice_is_identity(systems):
    sysm = systems[3]
    eq = sysm.k_equation((1, 1, 2))
    once = toggle_entry(eq, 1)
    assert once.wordtype == (1, 3, 2)
    assert toggle_entry(once, 1).coeffs == eq.coeffs


def test_lift_insert_zero_replicates():
    eq = build_system(1).k_equation((1,))
    lifted = lift_insert_zero(eq, 0)
    assert lifted.wordtype == (0, 1)
    # coefficient ignores the inserted coordinate
    for i in cells(2):
        assert lifted.coeffs[i[0] * 4 + i[1]] == eq.coeffs[i[1]]


@pytest.mark.parametrize("p", [2, 3, 4])
def test_lift_all_odd(p):
    # climbs from all-ones of width p-1 to (1, 3, ..., 3) of width p
    lifted = lift_all_odd(all_odd_closed_form(p - 1))
    assert lifted.wordtype == (1,) + (3,) * (p - 1)
    assert lifted.coeffs == closed_form_coeffs(lifted.wordtype)
    assert lifted.constant == p


def test_all_odd_cell_partition(examples):
    ex = examples["all_odd_p2_partition"]
    eq = all_odd_closed_form(2)
    by_coeff = {c: {f"{i >> 2}{i & 3}" for i, x in enumerate(eq.coeffs)
                    if x == c} for c in (0, 1, 2)}
    assert by_coeff[0] == set(ex["zero_cells"])
    assert by_coeff[1] == set(ex["one_cells"])
    assert by_coeff[2] == set(ex["two_cells"])


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_all_odd_counts(p):
    eq = all_odd_closed_form(p)
    ones = sum(c == 1 for c in eq.coeffs)
    zeros = sum(c == 0 for c in eq.coeffs)
    twos = sum(c == 2 for c in eq.coeffs)
    assert (ones, zeros, twos) == (2 ** (2 * p - 1), 2 ** (2 * p - 2),
                                   2 ** (2 * p - 2))
    for target in (0, 2):
        all_even = sum(1 for i, c in zip(cells(p), eq.coeffs)
                       if c == target and all(x % 2 == 0 for x in i))
        assert all_even == 2 ** (p - 1)


def test_noncanonical_equals_canonical(systems):
    for p in (1, 2, 3):
        sysm = systems[p]
        for w in product(range(4), repeat=p):
            if not any(w) or is_canonical(w):
                continue
            assert sysm.k_equation(w).coeffs == sysm.k_equation(
                negate(w)).coeffs


def test_a_equation_parity_rule():
    for w in ((1, 2, 0), (3, 2, 0), (1, 0, 0)):
        direct = a_equation(w)
        reduced = a_equation(tuple(x % 2 for x in w))
        assert direct.coeffs == reduced.coeffs
        assert direct.delta == reduced.delta


def test_a_equation_delta():
    assert a_equation((1, 0)).delta == 0
    assert a_equation((1, 1)).delta == 1
    assert a_equation((1, 1, 1)).delta == 0
    with pytest.raises(ValueError):
        a_equation((2, 0))


def test_a_equation_closed_form(systems):
    sysm = systems[3]
    for row, pi in zip(sysm.B.tolist(), sysm.a_order):
        want = tuple(sum(a * b for a, b in zip(pi, i)) % 2
                     for i in cells(3))
        assert a_equation(pi).coeffs == want
        assert tuple(row) == want


def test_system_rejects_foreign_wordtype(systems):
    with pytest.raises(ValueError):
        systems[2].k_equation((0, 0))
    with pytest.raises(ValueError):
        systems[2].k_equation((1, 1, 1))


@pytest.mark.parametrize("make, message", [
    (lambda: build_system(0), "p must be in 1..6, got 0"),
    (lambda: build_system(7), "p must be in 1..6, got 7"),
    (lambda: KEquation((1,), 1, np.zeros(3, np.uint8)),
     "coefficient row does not cover all cells"),
    (lambda: ca_add(basis_single_one(1, 0), basis_single_two(2, 0)),
     "mixed widths"),
    (lambda: lift_all_odd(basis_single_two(1, 0)),
     "lift starts from the all-one wordtype"),
    (lambda: all_odd_closed_form(0), "p must be positive"),
])
def test_equation_arguments_are_refused(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_a_cold_system_builds_no_narrower_one():
    """Rows come from one cached recursion down to p = 1, so building the
    p = 5 system from cold caches that system alone, with the same C."""
    before = build_system(5).C
    _cached_system.cache_clear()
    _row.cache_clear()
    sysm = build_system(5)
    assert _cached_system.cache_info().currsize == 1
    assert sysm.C is not before and np.array_equal(sysm.C, before)


def test_system_matrices_shape(systems):
    sysm = systems[3]
    assert len(sysm.c_matrix()) == 35
    assert all(len(r) == 64 for r in sysm.c_matrix())
    assert len(sysm.b_matrix()) == 7


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_property_rule_chain_vs_closed_form(p, data):
    w = tuple(data.draw(st.integers(0, 3)) for _ in range(p))
    sysm = build_system(p)
    if not any(w):
        with pytest.raises(ValueError):
            sysm.k_equation(w)
        return
    assert sysm.k_equation(w).coeffs == closed_form_coeffs(w)
