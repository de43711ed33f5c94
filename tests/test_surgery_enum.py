"""Chain budgets, stabilization lattices, and framing checks.

The budget arithmetic is pinned against the digit products from the
continued-fraction module, which the cfrac tests already certified
independently; here the stabilization lattice must reproduce those counts
with pairwise-distinct, parity-consistent rotation tuples.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f8tight import (
    ChernCertificate,
    Family,
    chern_certificate,
    choice_count,
    neg_cfrac,
    phi,
    psi,
    smooth_framing_check,
    stabilization_tuples,
)
from f8tight.cfrac import standard_product
from f8tight.surgery_enum import chain_budgets, phi_family_chain

negative_coefficients = st.fractions(min_value=-30, max_value=Fraction(-1, 30), max_denominator=30)
unit_interval = st.fractions(min_value=0, max_value=1, max_denominator=20).filter(lambda s: s > 0)


def test_rot_choices_form_the_stabilization_lattice():
    assert stabilization_tuples((3,)) == [(-3,), (-1,), (1,), (3,)]
    assert stabilization_tuples(()) == [()]


@pytest.mark.parametrize(
    "r, budgets",
    [
        (Fraction(-1), (0,)),
        (Fraction(-2), (1,)),
        (Fraction(-1, 2), (0, 0)),
        (Fraction(-3, 2), (1, 0)),
        (Fraction(-5, 3), (1, 1)),
        (Fraction(-3, 4), (0, 2)),
        (Fraction(-7, 5), (1, 0, 1)),
    ],
)
def test_chain_budget_table(r, budgets):
    assert chain_budgets(neg_cfrac(r)) == budgets


def test_ding_geiges_rejects_nonnegative_coefficients():
    for r in (0, Fraction(1, 2), 3):
        with pytest.raises(ValueError):
            choice_count(r)


def test_stabilization_tuples_frozen_example():
    tuples = stabilization_tuples(chain_budgets(neg_cfrac(Fraction(-3, 2))))
    assert tuples == [(-1, 0), (1, 0)]


def test_positive_window_tuples_frozen():
    r = Fraction(7, 3)
    tuples = stabilization_tuples(chain_budgets(neg_cfrac(1 / (1 - r))))
    assert tuples == [(0, -2), (0, 0), (0, 2)]


@given(negative_coefficients)
def test_tuple_count_matches_the_digit_product(r):
    tuples = stabilization_tuples(chain_budgets(neg_cfrac(r)))
    assert len(tuples) == choice_count(r) == standard_product(neg_cfrac(r))
    assert len(set(tuples)) == len(tuples)


@given(negative_coefficients)
def test_tuple_parity_is_fixed_by_the_budget(r):
    budgets = chain_budgets(neg_cfrac(r))
    for tup in stabilization_tuples(budgets):
        for rot, b in zip(tup, budgets):
            assert (rot - b) % 2 == 0
            assert abs(rot) <= b


@given(unit_interval)
def test_choice_count_stabilization_identity(s):
    assert choice_count(Fraction(-1) / s) == choice_count(Fraction(-1) / (s + 1))


@given(st.fractions(min_value=Fraction(11, 10), max_value=20, max_denominator=20))
def test_choice_count_recovers_phi_above_one(r):
    assert choice_count(1 / (1 - r)) == phi(r)


@given(st.fractions(min_value=-30, max_value=Fraction(-31, 10), max_denominator=20))
def test_choice_count_recovers_psi_below_minus_three(r):
    assert choice_count(r + 3) == psi(r)


@given(st.integers(-8, -1), st.fractions(min_value=0, max_value=1, max_denominator=12))
def test_phi_family_size(n, t):
    if t in (0, 1):
        return
    r = n + t
    chain = phi_family_chain(r, n)
    tuples = stabilization_tuples(chain_budgets(chain))
    assert len(tuples) == phi(r) == standard_product(chain)
    assert len(set(tuples)) == len(tuples)


def test_phi_family_rejects_bad_windows():
    with pytest.raises(ValueError):
        phi_family_chain(Fraction(-2), -2)
    with pytest.raises(ValueError):
        phi_family_chain(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        phi_family_chain(Fraction(-5, 2), -4)


def test_chern_certificate_scaling():
    tup = (-1, 1)
    cert = chern_certificate(Family.PHI_OVERTWISTED, tup, 5)
    assert cert == ChernCertificate(Family.PHI_OVERTWISTED, (-5, 5), 5)
    unscaled = chern_certificate(Family.PSI_STD, tup, 1)
    assert unscaled.evaluations == (-1, 1)
    with pytest.raises(ValueError):
        chern_certificate(Family.PSI_STD, tup, 2)
    with pytest.raises(ValueError):
        chern_certificate(Family.PHI_OVERTWISTED, tup, 0)


@pytest.mark.parametrize(
    "r",
    [Fraction(1), Fraction(2), Fraction(3, 2), Fraction(7, 3), Fraction(5, 2), Fraction(18, 5)],
)
def test_smooth_framing_check_passes_on_the_window(r):
    assert smooth_framing_check(r) is True


def test_smooth_framing_check_rejects_small_coefficients():
    with pytest.raises(ValueError):
        smooth_framing_check(Fraction(1, 2))
    with pytest.raises(ValueError):
        smooth_framing_check(0)

