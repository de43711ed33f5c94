"""Chain budgets, stabilization lattices, and framing checks.

The budget arithmetic is pinned against the digit products from the
continued-fraction module, which the cfrac tests already certified
independently, and the budget blocks against the digit-by-digit budget
formula (`digit_budgets`); here the stabilization lattices that
`enumerate_structures` lists must reproduce those counts with
pairwise-distinct, parity-consistent rotation tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f8tight.cfrac import Form, NegContinuedFraction, neg_cfrac, phi, psi, standard_product
from f8tight.classification import Family, enumerate_structures, structure_families
from f8tight.slope import Slope, from_rational
from f8tight.surgery_enum import chain_budgets, choice_count, smooth_framing_check

negative_coefficients = st.fractions(min_value=-30, max_value=Fraction(-1, 30), max_denominator=30)
# For −1/3 ≤ r < −1/4 the chain would belong to M(1 − 1/r), in the gap [4, 5).
listed_contact_coefficients = negative_coefficients.filter(lambda r: not Fraction(-1, 3) <= r < Fraction(-1, 4))
unit_interval = st.fractions(min_value=0, max_value=1, max_denominator=20).filter(lambda s: s > 0)


def digit_budgets(cf: NegContinuedFraction) -> tuple[int, ...]:
    """The budgets digit by digit, as the chain was once read: |r0 + 1|, then |ri + 2|."""
    digits = cf.digits
    return (abs(digits[0] + 1), *(abs(d + 2) for d in digits[1:]))


def spelled(blocks: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """(budget, run) blocks written out, one budget per chain component."""
    return tuple(b for b, run in blocks for _ in range(run))


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
        (Fraction(-1), ((0, 1),)),
        (Fraction(-2), ((1, 1),)),
        (Fraction(-1, 2), ((0, 1), (0, 1))),
        (Fraction(-3, 2), ((1, 1), (0, 1))),
        (Fraction(-5, 3), ((1, 1), (1, 1))),
        (Fraction(-3, 4), ((0, 1), (2, 1))),
        (Fraction(-7, 5), ((1, 1), (0, 1), (1, 1))),
        (Fraction(-7, 3), ((2, 1), (0, 2))),
        (Fraction(-1000001, 1000000), ((1, 1), (0, 999999))),
    ],
)
def test_chain_budget_table(r, budgets):
    # (budget, run) blocks; spelled out, the budgets digit by digit
    assert chain_budgets(neg_cfrac(r)) == budgets
    assert spelled(budgets) == digit_budgets(neg_cfrac(r))


# Standard-form strings built block by block, so that long runs are common:
# a head digit ≤ −1 (−1 only once), then digits ≤ −2.
standard_blocks = st.tuples(
    st.one_of(st.just((-1, 1)), st.tuples(st.integers(-6, -2), st.integers(1, 40))),
    st.lists(st.tuples(st.integers(-6, -2), st.integers(1, 40)), max_size=6),
).map(lambda parts: NegContinuedFraction.from_blocks([parts[0], *parts[1]], Form.STANDARD))


@given(st.one_of(standard_blocks, negative_coefficients.map(neg_cfrac)))
def test_budget_blocks_spell_out_the_digit_budgets(cf):
    blocks = chain_budgets(cf)
    assert spelled(blocks) == digit_budgets(cf)
    assert all(run >= 1 for _, run in blocks) and len(blocks) <= len(cf.blocks) + 1
    assert math.prod((b + 1) ** run for b, run in blocks) == standard_product(cf)


def test_budget_blocks_read_no_digits(monkeypatch):
    cf = neg_cfrac(Fraction(-(10**9 + 1), 10**9))

    def refuse(self):
        raise AssertionError("chain_budgets must read the blocks alone")

    monkeypatch.setattr(NegContinuedFraction, "digits", property(refuse))
    assert chain_budgets(cf) == ((1, 1), (0, 10**9 - 1))


def test_ding_geiges_rejects_nonnegative_coefficients():
    for r in (0, Fraction(1, 2), 3):
        with pytest.raises(ValueError):
            choice_count(r)


def test_stabilization_tuples_frozen_example():
    # contact −8/5 = [−2, −3, −2] has budgets (1, 1, 0); the last slot runs fastest
    assert chain_budgets(neg_cfrac(Fraction(-8, 5))) == ((1, 1), (1, 1), (0, 1))
    assert contact_tuples(Fraction(-8, 5)) == [(-1, -1, 0), (-1, 1, 0), (1, -1, 0), (1, 1, 0)]


def test_positive_window_tuples_frozen():
    # r = 5/2: L′ first, then the chain of 1/(1 − r) = −2/3 = [−1, −3]
    assert chain_budgets(neg_cfrac(Fraction(-2, 3))) == ((0, 1), (1, 1))
    assert rotation_tuples(Fraction(5, 2), Family.POSITIVE_R) == [(-1, 0, -1), (-1, 0, 1), (1, 0, -1), (1, 0, 1)]


@given(listed_contact_coefficients)
def test_tuple_count_matches_the_digit_product(r):
    tuples = contact_tuples(r)
    assert len(tuples) == choice_count(r) == standard_product(neg_cfrac(r))
    assert len(set(tuples)) == len(tuples)


@given(listed_contact_coefficients)
def test_tuple_parity_is_fixed_by_the_budget(r):
    budgets = spelled(chain_budgets(neg_cfrac(r)))
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


# The windows (n, n + 1) of the classified range below 0; (−4, −3) is a gap.
@given(st.sampled_from([-8, -7, -6, -5, -3, -2, -1]), st.fractions(min_value=0, max_value=1, max_denominator=12))
def test_phi_family_size(n, t):
    if t in (0, 1):
        return
    r = n + t
    budgets = {family: budgets for family, budgets, _ in structure_families(from_rational(r))}[Family.PHI_OVERTWISTED]
    # the chain for contact −1/(1 − s)-surgery on the virtual knot, s = n + 1 − r
    s = n + 1 - r
    chain = neg_cfrac(-1 / (1 - s))
    assert spelled(budgets) == digit_budgets(chain)
    assert math.prod(b + 1 for b in spelled(budgets)) == phi(r) == standard_product(chain)
    tuples = rotation_tuples(r, Family.PHI_OVERTWISTED)
    assert len(tuples) == phi(r)
    assert len(set(tuples)) == len(tuples)


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

