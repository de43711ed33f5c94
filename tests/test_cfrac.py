"""Negative continued fractions, digit products, and the two count functions.

Oracle: random valid digit strings are the ground truth.  A normal form is
canonical exactly when expanding the value of an arbitrary valid string
recovers a string with the same invariant (the digits themselves for the
standard form, the digit product for the solid-torus form).  The run-length
expansion is checked digit for digit against `greedy_digits`, the plain
floor-greedy loop with no cap, and the block products against plain digit
loops.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f8tight.cfrac import (
    Form,
    NegContinuedFraction,
    cfrac_matrix,
    eval_cfrac,
    neg_cfrac,
    phi,
    psi,
    reverse_cfrac,
    solid_torus_product,
    standard_product,
)
from f8tight.classification import tight_count
from f8tight.slope import INFINITY, Slope, from_rational
from f8tight.surgery_enum import choice_count
from f8tight.tight_counts import solid_torus_count, solid_torus_spec

strict_digits = st.lists(st.integers(-7, -2), min_size=0, max_size=6)
negatives = st.fractions(min_value=-60, max_value=Fraction(-1, 40), max_denominator=40)
below_minus_one = st.fractions(min_value=-60, max_value=-1, max_denominator=40)


def std_strings():
    return st.tuples(st.integers(-7, -1), strict_digits).map(
        lambda t: NegContinuedFraction((t[0], *t[1]), Form.STANDARD)
    )


def st_strings():
    return st.tuples(strict_digits, st.integers(-7, -1)).map(
        lambda t: NegContinuedFraction((*t[0], t[1]), Form.SOLID_TORUS)
    )


FROZEN_DIGITS = [
    (Fraction(-2), [-2]),
    (Fraction(-1, 2), [-1, -2]),
    (Fraction(-3, 2), [-2, -2]),
    (Fraction(-5, 2), [-3, -2]),
    (Fraction(-5, 3), [-2, -3]),
    (Fraction(-4, 3), [-2, -2, -2]),
    (Fraction(-7, 4), [-2, -4]),
    (Fraction(-8, 3), [-3, -3]),
    (Fraction(-12, 5), [-3, -2, -3]),
    (Fraction(-2, 5), [-1, -2, -3]),
    (Fraction(-3, 5), [-1, -3, -2]),
    (Fraction(-3, 4), [-1, -4]),
    (Fraction(-1, 4), [-1, -2, -2, -2]),
]


@pytest.mark.parametrize("value, digits", FROZEN_DIGITS)
def test_expansion_digit_table(value, digits):
    assert list(neg_cfrac(value).digits) == digits


def test_form_validation():
    with pytest.raises(ValueError):
        NegContinuedFraction((-2, -1), Form.STANDARD)
    with pytest.raises(ValueError):
        NegContinuedFraction((-1, -2), Form.SOLID_TORUS)
    with pytest.raises(ValueError):
        NegContinuedFraction((), Form.STANDARD)
    NegContinuedFraction((-1, -2), Form.STANDARD)
    NegContinuedFraction((-2, -1), Form.SOLID_TORUS)


def test_domain_validation():
    with pytest.raises(ValueError):
        neg_cfrac(Fraction(1, 2), Form.STANDARD)
    with pytest.raises(ValueError):
        neg_cfrac(0, Form.STANDARD)
    with pytest.raises(ValueError):
        neg_cfrac(Fraction(-1, 2), Form.SOLID_TORUS)
    neg_cfrac(-1, Form.SOLID_TORUS)


@given(negatives)
def test_round_trip_standard(x):
    assert eval_cfrac(neg_cfrac(x)) == x


@given(below_minus_one)
def test_round_trip_solid_torus(x):
    assert eval_cfrac(neg_cfrac(x, Form.SOLID_TORUS)) == x


@given(below_minus_one)
def test_forms_share_digits_on_common_domain(x):
    assert neg_cfrac(x).digits == neg_cfrac(x, Form.SOLID_TORUS).digits


@given(std_strings())
def test_standard_form_is_canonical(cf):
    """Every valid standard string is recovered verbatim from its value."""
    assert neg_cfrac(eval_cfrac(cf)) == cf


@given(st_strings())
def test_solid_torus_product_is_well_defined(cf):
    """Different solid-torus strings for one value share the digit product."""
    value = eval_cfrac(cf)
    canonical = neg_cfrac(value, Form.SOLID_TORUS)
    assert solid_torus_product(canonical) == solid_torus_product(cf)


def test_solid_torus_shape_is_not_unique():
    longer = NegContinuedFraction((-3, -1), Form.SOLID_TORUS)
    shorter = NegContinuedFraction((-2,), Form.SOLID_TORUS)
    assert eval_cfrac(longer) == eval_cfrac(shorter) == -2
    assert solid_torus_product(longer) == solid_torus_product(shorter) == 2


@given(std_strings())
def test_reversal_swaps_forms_and_products(cf):
    rev = reverse_cfrac(cf)
    assert rev.form is Form.SOLID_TORUS
    assert rev.digits == tuple(reversed(cf.digits))
    assert reverse_cfrac(rev) == cf
    assert solid_torus_product(rev) == standard_product(cf)


def test_products_check_their_form():
    cf = neg_cfrac(Fraction(-3, 2))
    with pytest.raises(ValueError):
        solid_torus_product(cf)
    with pytest.raises(ValueError):
        standard_product(reverse_cfrac(cf))


@pytest.mark.parametrize(
    "r, expected",
    [
        (Fraction(1), 1),
        (Fraction(1, 2), 2),
        (Fraction(2, 3), 2),
        (Fraction(1, 3), 3),
        (Fraction(7, 2), 2),
        (Fraction(7, 3), 3),
        (Fraction(-3, 2), 2),
        (Fraction(-7, 5), 4),
        (Fraction(-1, 7), 2),
        (Fraction(17), 1),
    ],
)
def test_phi_frozen_values(r, expected):
    assert phi(r) == expected


@pytest.mark.parametrize(
    "r, expected",
    [
        (Fraction(-5), 2),
        (Fraction(-7, 2), 1),
        (Fraction(-9, 2), 2),
        (Fraction(-4), 1),
        (Fraction(-10), 7),
        (Fraction(-3), 0),
        (Fraction(0), 0),
        (Fraction(5, 2), 0),
    ],
)
def test_psi_frozen_values(r, expected):
    assert psi(r) == expected


@given(st.fractions(min_value=-20, max_value=20, max_denominator=30))
def test_phi_is_translation_invariant(r):
    assert phi(r + 1) == phi(r)


@given(st.integers(-40, 40))
def test_phi_is_one_exactly_on_integers(n):
    assert phi(n) == 1
    assert phi(Fraction(2 * n * 3 + 1, 3)) >= 2


@given(st.fractions(min_value=-40, max_value=Fraction(-31, 10), max_denominator=30))
def test_psi_matches_its_phi_transform(r):
    if r == -3:
        return
    assert psi(r) == phi(Fraction(-1) / (r + 3))


@given(st.integers(-40, -4))
def test_psi_on_integers(n):
    assert psi(n) == abs(n) - 3


def fraction_phi(r: Fraction) -> int:
    """Φ as the library took it from Fractions: the expansion of −1/t, t = r − ⌈r⌉ + 1."""
    if r.denominator == 1:
        return 1
    t = r - math.ceil(r) + 1
    return standard_product(neg_cfrac(-1 / t))


def fraction_psi(r: Fraction) -> int:
    """Ψ as the library took it from Fractions: the expansion of r + 3 below −3."""
    return standard_product(neg_cfrac(r + 3)) if r < -3 else 0


@given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4))
def test_phi_and_psi_match_the_fraction_forms(r):
    # the integer pair of a Fraction, an int or a Slope gives one answer
    expected = fraction_phi(r), fraction_psi(r)
    assert (phi(r), psi(r)) == expected
    assert (phi(from_rational(r)), psi(from_rational(r))) == expected
    if r.denominator == 1:
        assert (phi(int(r)), psi(int(r))) == expected


def greedy_digits(x: Fraction) -> list[int]:
    """Floor-greedy digits of x < 0, one integer division per digit."""
    p, q = x.numerator, x.denominator
    digits = []
    while True:
        d, rest = divmod(p, q)
        digits.append(d)
        if rest == 0:
            return digits
        p, q = -q, rest


def digit_loop_standard_product(digits) -> int:
    product = digits[0]
    for d in digits[1:]:
        product *= d + 1
    return abs(product)


def digit_loop_solid_torus_product(digits) -> int:
    product = digits[-1]
    for d in digits[:-1]:
        product *= d + 1
    return abs(product)


def assert_maximal_blocks(cf):
    assert all(run >= 1 for _, run in cf.blocks)
    assert all(a != b for (a, _), (b, _) in zip(cf.blocks, cf.blocks[1:]))


wide_negatives = st.builds(lambda p, q: Fraction(-p, q), st.integers(1, 10**12), st.integers(1, 10**6))


def run_strings():
    """Standard strings built from long −2 runs between digits −3…−7."""
    inner = st.lists(
        st.tuples(st.integers(-7, -3), st.integers(1, 3), st.integers(0, 3000)), min_size=0, max_size=4
    )

    def build(head, head_run, inner_blocks):
        blocks = [(head, 1 if head == -1 else head_run)]
        for digit, run, twos in inner_blocks:
            blocks += [(digit, run), (-2, twos)] if twos else [(digit, run)]
        return NegContinuedFraction.from_blocks(blocks, Form.STANDARD)

    return st.builds(build, st.integers(-7, -1), st.integers(1, 3000), inner)


@given(st.one_of(negatives, wide_negatives))
def test_blocks_spell_the_greedy_digits(x):
    cf = neg_cfrac(x)
    assert list(cf.digits) == greedy_digits(x)
    assert_maximal_blocks(cf)
    assert eval_cfrac(cf) == x


@given(run_strings())
def test_long_runs_round_trip(cf):
    value = eval_cfrac(cf)
    assert neg_cfrac(value) == cf
    assert greedy_digits(value) == list(cf.digits)
    assert_maximal_blocks(neg_cfrac(value))


@given(st.one_of(std_strings(), run_strings()))
def test_block_products_match_digit_loops(cf):
    digits = cf.digits
    assert standard_product(cf) == digit_loop_standard_product(digits)
    rev = reverse_cfrac(cf)
    assert solid_torus_product(rev) == digit_loop_solid_torus_product(rev.digits)


N = 1000


@pytest.mark.parametrize(
    "x, blocks",
    [
        (Fraction(-1), ((-1, 1),)),
        (Fraction(-2), ((-2, 1),)),
        (Fraction(-1, N), ((-1, 1), (-2, N - 1))),
        (Fraction(-(N + 1), N), ((-2, N),)),
        (Fraction(-10) - Fraction(1, N), ((-11, 1), (-2, N - 1))),
        (Fraction(-2) - Fraction(1, N), ((-3, 1), (-2, N - 1))),
        (Fraction(-3, 3 * N + 2), ((-1, 1), (-2, N - 1), (-3, 1), (-2, 1))),
        (eval_cfrac(NegContinuedFraction((-3,) * 40, Form.STANDARD)), ((-3, 40),)),
        (eval_cfrac(NegContinuedFraction((-1, -3, -3, -2, -2, -3), Form.STANDARD)), ((-1, 1), (-3, 2), (-2, 2), (-3, 1))),
    ],
)
def test_edge_case_blocks(x, blocks):
    cf = neg_cfrac(x)
    assert cf.blocks == blocks
    assert list(cf.digits) == greedy_digits(x)
    assert eval_cfrac(cf) == x
    if x <= -1:
        assert neg_cfrac(x, Form.SOLID_TORUS).blocks == blocks


def test_blocks_construction_is_canonical():
    five = NegContinuedFraction((-2,) * 5, Form.STANDARD)
    split = NegContinuedFraction.from_blocks([(-2, 2), (-2, 3)], Form.STANDARD)
    assert split == five and hash(split) == hash(five)
    assert split.blocks == ((-2, 5),)
    assert str(split) == "[-2,-2,-2,-2,-2]:std"
    for blocks in ([(-2, 0)], [(-3, 1), (-2, -1)]):
        with pytest.raises(ValueError):
            NegContinuedFraction.from_blocks(blocks, Form.STANDARD)
    with pytest.raises(ValueError):
        NegContinuedFraction.from_blocks([(-1, 2)], Form.STANDARD)
    with pytest.raises(ValueError):
        NegContinuedFraction.from_blocks([(-3, 1), (-1, 2)], Form.SOLID_TORUS)
    NegContinuedFraction.from_blocks([(-3, 1), (-1, 1)], Form.SOLID_TORUS)


MILLION = 10**6


def test_million_digit_run_round_trips_through_blocks():
    x = Fraction(-(MILLION + 1), MILLION)
    cf = neg_cfrac(x)
    assert cf.blocks == ((-2, MILLION),)
    assert eval_cfrac(cf) == x
    assert cfrac_matrix(cf) == (MILLION + 1, MILLION, -MILLION, 1 - MILLION)
    head = neg_cfrac(Fraction(-1, MILLION))
    assert head.blocks == ((-1, 1), (-2, MILLION - 1))
    assert eval_cfrac(head) == Fraction(-1, MILLION)
    assert eval_cfrac(reverse_cfrac(head)) == -1  # [−2, …, −2, −1] collapses to −1


def test_counting_never_spells_out_digits(monkeypatch):
    def refuse(self):
        raise AssertionError("a count spelled out the digits")

    monkeypatch.setattr(NegContinuedFraction, "digits", property(refuse))
    x = Fraction(-(MILLION + 1), MILLION)
    assert len(neg_cfrac(x).blocks) == 1
    assert tight_count(Slope(x.numerator, x.denominator)).value == 2
    assert phi(x) == 2
    assert psi(x - 2) == 1  # x − 2 + 3 = −1/10⁶ expands to [−1, −2, …, −2]
    assert choice_count(x) == 2
    spec = solid_torus_spec(INFINITY, Slope(-1, 200_000))
    assert solid_torus_count(spec) == 200_000
