"""Chain budgets, stabilization lattices, and framing checks.

The budget arithmetic is pinned against the digit products from the
continued-fraction module, which the cfrac tests already certified
independently; here the stabilization lattices that `enumerate_structures`
lists must reproduce those counts with pairwise-distinct,
parity-consistent rotation tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f8tight.cfrac import neg_cfrac, phi, psi, standard_product
from f8tight.classification import Family, enumerate_structures, in_classified_range
from f8tight.slope import Slope, from_rational
from f8tight.surgery_enum import chain_budgets, choice_count, phi_family_chain, smooth_framing_check

negative_coefficients = st.fractions(min_value=-30, max_value=Fraction(-1, 30), max_denominator=30)
# For −1/3 ≤ r < −1/4 the chain would belong to M(1 − 1/r), in the gap [4, 5).
listed_contact_coefficients = negative_coefficients.filter(lambda r: not Fraction(-1, 3) <= r < Fraction(-1, 4))
unit_interval = st.fractions(min_value=0, max_value=1, max_denominator=20).filter(lambda s: s > 0)


def rotation_tuples(r: Fraction, family: Family) -> list[tuple[int, ...]]:
    """The rotation tuples of one family's lattice on M(r), in listing order."""
    return [
        tuple(e // c.scale for e in c.evaluations)
        for c in enumerate_structures(from_rational(r))
        if c.family is family
    ]


def contact_tuples(r_contact: Fraction) -> list[tuple[int, ...]]:
    """The lattice of the chain for contact r-surgery, r < 0, as `enumerate_structures` lists it.

    For r < −1 it is the standard-background family on M(r − 3); otherwise
    it is the positive family on M(1 − 1/r), whose chain is 1/(1 − (1 − 1/r))
    = r, read after the first L′ sign.
    """
    if r_contact < -1:
        return rotation_tuples(r_contact - 3, Family.PSI_STD)
    tuples = rotation_tuples(1 - 1 / r_contact, Family.POSITIVE_R)
    return [t[1:] for t in tuples[: len(tuples) // 2]]


def test_rot_choices_form_the_stabilization_lattice():
    # budget (3,): contact −4-surgery, the standard-background family on M(−7)
    assert contact_tuples(Fraction(-4)) == [(-3,), (-1,), (1,), (3,)]
    # no chain at all: the integral overtwisted family, one unstabilized knot
    assert rotation_tuples(Fraction(-5), Family.PHI_OVERTWISTED) == [(0,)]


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
    # contact −8/5 = [−2, −3, −2] has budgets (1, 1, 0); the last slot runs fastest
    assert chain_budgets(neg_cfrac(Fraction(-8, 5))) == (1, 1, 0)
    assert contact_tuples(Fraction(-8, 5)) == [(-1, -1, 0), (-1, 1, 0), (1, -1, 0), (1, 1, 0)]


def test_positive_window_tuples_frozen():
    # r = 5/2: L′ first, then the chain of 1/(1 − r) = −2/3 = [−1, −3]
    assert chain_budgets(neg_cfrac(Fraction(-2, 3))) == (0, 1)
    assert rotation_tuples(Fraction(5, 2), Family.POSITIVE_R) == [(-1, 0, -1), (-1, 0, 1), (1, 0, -1), (1, 0, 1)]


@given(listed_contact_coefficients)
def test_tuple_count_matches_the_digit_product(r):
    tuples = contact_tuples(r)
    assert len(tuples) == choice_count(r) == standard_product(neg_cfrac(r))
    assert len(set(tuples)) == len(tuples)


@given(listed_contact_coefficients)
def test_tuple_parity_is_fixed_by_the_budget(r):
    budgets = chain_budgets(neg_cfrac(r))
    for tup in contact_tuples(r):
        assert len(tup) == len(budgets)
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
    assert math.prod(b + 1 for b in chain_budgets(chain)) == phi(r) == standard_product(chain)
    if in_classified_range(r):
        tuples = rotation_tuples(r, Family.PHI_OVERTWISTED)
        assert len(tuples) == phi(r)
        assert len(set(tuples)) == len(tuples)


def test_phi_family_rejects_bad_windows():
    with pytest.raises(ValueError):
        phi_family_chain(Fraction(-2), -2)
    with pytest.raises(ValueError):
        phi_family_chain(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        phi_family_chain(Fraction(-5, 2), -4)


def test_chern_certificate_scaling():
    # M(−11/2): the standard background on r + 3 = −5/2 = [−3, −2] is
    # unscaled; the overtwisted one, on −1/(1 − s) = −2 with s = 1/2, is
    # scaled by the homology order |n| = 6.
    certs = enumerate_structures(Slope(-11, 2))
    assert [(c.family, c.evaluations, c.scale) for c in certs] == [
        (Family.PSI_STD, (-2, 0), 1),
        (Family.PSI_STD, (0, 0), 1),
        (Family.PSI_STD, (2, 0), 1),
        (Family.PHI_OVERTWISTED, (-6,), 6),
        (Family.PHI_OVERTWISTED, (6,), 6),
    ]


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

