"""Slope arithmetic, Farey adjacency and the unimodular action.

Each check is against plain fraction arithmetic or a property of the
determinant, never against the formulas under test.  The matrix action is
the tests' own (`circle_order.act`).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from circle_order import act, value
from hypothesis import given
from hypothesis import strategies as st

from f8tight.slope import (
    EXPONENT_LIMIT,
    INFINITY,
    ZERO,
    Slope,
    basis_completion,
    det,
    from_rational,
    is_farey_adjacent,
    parse_slope,
    reduce,
)
from f8tight.torus_dynamics import SlopeWindow, slopes_in_window


finite_slopes = st.fractions(
    min_value=-30, max_value=30, max_denominator=9
).map(from_rational)
all_slopes = st.one_of(st.just(INFINITY), finite_slopes)


def test_reduce_canonicalizes():
    assert reduce(2, 4) == Slope(1, 2)
    assert reduce(3, -6) == Slope(-1, 2)
    assert reduce(-5, 0) == INFINITY
    assert str(Slope(-3, 2)) == "-3/2"
    assert str(Slope(4, 1)) == "4"
    assert str(INFINITY) == "inf"


def test_constructor_rejects_non_canonical_pairs():
    for num, den in ((2, 4), (1, -2), (0, 0), (-5, 0)):
        with pytest.raises(ValueError):
            Slope(num, den)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("7/2", Slope(7, 2)),
        ("-9/2", Slope(-9, 2)),
        ("5", Slope(5, 1)),
        ("inf", INFINITY),
        ("-inf", INFINITY),
        ("-4.5", Slope(-9, 2)),
        ("1e3", Slope(1000, 1)),
    ],
)
def test_parse_slope(text, expected):
    assert parse_slope(text) == expected


@pytest.mark.parametrize("text", ["1e3000000", "1e999999999", "-1e-999999999", "2.5E+0100001", "1e1_000_000"])
def test_parse_slope_refuses_a_huge_exponent_before_building_it(fractions_built, text):
    # Fraction would build 10**exponent: 0.9 s for 1e3000000, 415 MB for 1e999999999.
    refusal, built = fractions_built(pytest.raises, ValueError, parse_slope, text)
    assert str(refusal.value) == f"{text!r} has a decimal exponent beyond ±{EXPONENT_LIMIT}"
    assert built == 0


def test_exponents_up_to_the_limit_read_as_before():
    assert parse_slope(f"1e{EXPONENT_LIMIT}") == Slope(10**EXPONENT_LIMIT, 1)
    assert parse_slope(f"-3e-{EXPONENT_LIMIT}") == Slope(-3, 10**EXPONENT_LIMIT)
    assert parse_slope("1e003") == parse_slope("1E+3") == Slope(1000, 1)
    with pytest.raises(ValueError, match="beyond"):
        parse_slope(f"1e{EXPONENT_LIMIT + 1}")


def test_parse_slope_rejects_garbage():
    for bad in ("", "3/0x", "seven", "1/0/2"):
        with pytest.raises(ValueError):
            parse_slope(bad)


@given(finite_slopes)
def test_fraction_round_trip(s):
    assert from_rational(Fraction(s.numerator, s.denominator)) == s
    assert (s.numerator, s.denominator) == (s.num, s.den)


@given(all_slopes, all_slopes)
def test_det_antisymmetry(a, b):
    assert det(a, b) == -det(b, a)


def test_adjacency_examples():
    assert is_farey_adjacent(ZERO, INFINITY)
    assert is_farey_adjacent(Slope(1, 2), Slope(1, 3))
    assert is_farey_adjacent(Slope(-9, 2), Slope(-4, 1))
    assert not is_farey_adjacent(ZERO, Slope(5, 2))
    assert not is_farey_adjacent(Slope(1, 2), Slope(1, 4))


@given(all_slopes, all_slopes)
def test_adjacency_is_symmetric_and_irreflexive(a, b):
    assert is_farey_adjacent(a, b) == is_farey_adjacent(b, a)
    assert not is_farey_adjacent(a, a)


@given(all_slopes)
def test_basis_completion_is_unimodular(s):
    u, v = basis_completion(s)
    assert s.num * v - s.den * u == 1


def test_neighbors_window_example():
    # The Farey neighbors of -5 above it with denominator ≤ 3 are exactly
    # the slopes the window of -5 with bound 3 lists, ∞ last.
    r = Slope(-5, 1)
    finite = sorted(
        (reduce(p, q) for q in range(1, 4) for p in range(-5 * q + 1, -4 * q + 1)),
        key=value,
    )
    got = [t for t in dict.fromkeys(finite) if is_farey_adjacent(r, t)]
    assert is_farey_adjacent(r, INFINITY)
    assert got + [INFINITY] == [Slope(-14, 3), Slope(-9, 2), Slope(-4, 1), INFINITY]
    assert slopes_in_window(SlopeWindow(r, 3)) == got + [INFINITY]


@given(all_slopes, all_slopes)
def test_unimodular_action_preserves_adjacency(a, b):
    m = (2, 1, 1, 1)
    assert is_farey_adjacent(a, b) == is_farey_adjacent(act(m, a), act(m, b))
