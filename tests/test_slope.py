"""Circle-order and Farey-graph primitives.

The oracle here linearizes the circle of slopes by cutting it at infinity:
finite slopes in ascending order, infinity last.  Clockwise traversal is
ascending order in that cut, wrapping around.  Everything below is checked
against that picture, never against the determinant formulas under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f8tight import (
    INFINITY,
    ZERO,
    Direction,
    Openness,
    Slope,
    SlopeArc,
    UnimodularMatrix,
    apply_unimodular,
    det,
    in_arc,
    is_farey_adjacent,
    neighbors_in_arc,
    orientation,
    parse_slope,
    reduce,
)
from f8tight.slope import basis_completion, from_rational


def sorted_filter_neighbors(s: Slope, arc: SlopeArc, max_denominator: int) -> list[Slope]:
    """Every neighbor of s in the denominator window, kept when `in_arc`
    holds and sorted along the arc by `orientation` from its start."""
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    if s.is_infinity:
        if arc.start.is_infinity or arc.stop.is_infinity or in_arc(INFINITY, arc):
            raise ValueError("infinitely many integer neighbors of inf in this arc")
        lo = min(arc.start.as_fraction(), arc.stop.as_fraction())
        hi = max(arc.start.as_fraction(), arc.stop.as_fraction())
        found = [reduce(n, 1) for n in range(math.floor(lo), math.ceil(hi) + 1) if in_arc(reduce(n, 1), arc)]
    else:
        u, v = basis_completion(s)
        k_lo = math.ceil(Fraction(-max_denominator - v, s.den))
        k_hi = math.floor(Fraction(max_denominator - v, s.den))
        candidates = (reduce(u + k * s.num, v + k * s.den) for k in range(k_lo, k_hi + 1))
        found = [x for x in candidates if in_arc(x, arc)]

    def cmp(x: Slope, y: Slope) -> int:
        if x == y:
            return 0
        if x == arc.start or y == arc.stop:
            return -1
        if y == arc.start or x == arc.stop:
            return 1
        return -1 if orientation(arc.start, x, y) == arc.direction.sign else 1

    return sorted(found, key=cmp_to_key(cmp))


def _key(s: Slope) -> tuple[int, Fraction]:
    # cut the circle at infinity: finite ascending, infinity on top
    if s.is_infinity:
        return (1, Fraction(0))
    return (0, s.as_fraction())


def oracle_orientation(a: Slope, b: Slope, c: Slope) -> int:
    """Clockwise (+1) iff the three keys are a cyclic rotation of sorted order."""
    keys = [_key(a), _key(b), _key(c)]
    target = sorted(keys)
    for shift in range(3):
        if keys[shift:] + keys[:shift] == target:
            return 1
    return -1


def oracle_in_arc(x: Slope, arc: SlopeArc) -> bool:
    if x == arc.start or x == arc.stop:
        if arc.openness is Openness.OPEN:
            return False
        if arc.openness is Openness.HALF_OPEN_AT_TO:
            return x == arc.stop
        return True
    sign = 1 if arc.direction is Direction.CLOCKWISE else -1
    return oracle_orientation(arc.start, x, arc.stop) == sign


def oracle_neighbors(s: Slope, arc: SlopeArc, bound: int) -> list[Slope]:
    # any neighbor of s with denominator ≤ bound sits within 1 of s, which
    # caps its numerator by (|p| + q)·bound
    cap = (abs(s.num) + s.den + 1) * bound + 2
    cands = []
    for q in range(0, bound + 1):
        for p in range(-cap, cap + 1):
            if q == 0 and p != 1:
                continue
            if gcd(abs(p), q) != 1:
                continue
            t = Slope(p, q)
            if abs(det(s, t)) == 1 and oracle_in_arc(t, arc):
                cands.append(t)
    ranked = sorted({_key(c) for c in cands} | {_key(arc.start)})
    anchor = ranked.index(_key(arc.start))

    def rank(c: Slope) -> int:
        d = ranked.index(_key(c)) - anchor
        if arc.direction is Direction.COUNTERCLOCKWISE:
            d = -d
        return d % len(ranked)

    return sorted(cands, key=rank)


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
    ],
)
def test_parse_slope(text, expected):
    assert parse_slope(text) == expected


def test_parse_slope_rejects_garbage():
    for bad in ("", "3/0x", "seven", "1/0/2"):
        with pytest.raises(ValueError):
            parse_slope(bad)


@given(finite_slopes)
def test_fraction_round_trip(s):
    assert from_rational(s.as_fraction()) == s


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


def test_orientation_anchor_triples():
    assert orientation(ZERO, Slope(1, 1), INFINITY) == 1
    assert orientation(ZERO, Slope(-1, 1), Slope(1, 1)) == -1
    assert orientation(Slope(7, 2), INFINITY, ZERO) == 1
    assert orientation(Slope(-9, 2), Slope(-4, 1), ZERO) == 1
    assert orientation(Slope(-9, 2), Slope(-5, 1), ZERO) == -1


def test_orientation_rejects_repeats():
    with pytest.raises(ValueError):
        orientation(ZERO, ZERO, INFINITY)


@given(all_slopes, all_slopes, all_slopes)
def test_orientation_matches_circle_oracle(a, b, c):
    if a == b or b == c or a == c:
        return
    assert orientation(a, b, c) == oracle_orientation(a, b, c)


@given(all_slopes, all_slopes, all_slopes)
def test_orientation_cyclic_and_antisymmetric(a, b, c):
    if a == b or b == c or a == c:
        return
    w = orientation(a, b, c)
    assert orientation(b, c, a) == w
    assert orientation(c, b, a) == -w


@given(all_slopes, all_slopes, all_slopes, st.integers(-4, 4), st.booleans())
def test_orientation_transforms_with_determinant(a, b, c, k, flip):
    if a == b or b == c or a == c:
        return
    m = UnimodularMatrix.translation(k) @ UnimodularMatrix(0, -1, 1, 0)
    if flip:
        m = m @ UnimodularMatrix(0, 1, 1, 0)
    images = [apply_unimodular(m, x) for x in (a, b, c)]
    assert orientation(*images) == m.det * orientation(a, b, c)


@given(all_slopes, all_slopes, finite_slopes)
def test_in_arc_matches_oracle(start, stop, x):
    if start == stop:
        return
    for direction in Direction:
        for openness in Openness:
            arc = SlopeArc(start, stop, direction, openness)
            assert in_arc(x, arc) == oracle_in_arc(x, arc)


@given(all_slopes, all_slopes, finite_slopes)
def test_complementary_arcs_cover_circle(start, stop, x):
    if start == stop or x in (start, stop):
        return
    cw = SlopeArc(start, stop, Direction.CLOCKWISE)
    ccw = SlopeArc(start, stop, Direction.COUNTERCLOCKWISE)
    assert in_arc(x, cw) != in_arc(x, ccw)


@given(all_slopes, all_slopes, st.sampled_from(list(Direction)), st.integers(1, 7))
def test_neighbors_in_arc_matches_brute_force(start, stop, direction, bound):
    if start == stop:
        return
    arc = SlopeArc(start, stop, direction, Openness.HALF_OPEN_AT_TO)
    if start.is_infinity:
        # integers accumulate at the arc's own endpoint
        with pytest.raises(ValueError):
            neighbors_in_arc(start, arc, bound)
        return
    got = neighbors_in_arc(start, arc, bound)
    assert got == oracle_neighbors(start, arc, bound)


neighbor_index = st.one_of(st.none(), st.integers(-6, 6))


@settings(max_examples=300)
@given(
    all_slopes,
    all_slopes,
    all_slopes,
    st.booleans(),
    neighbor_index,
    neighbor_index,
    st.sampled_from(list(Direction)),
    st.sampled_from(list(Openness)),
    st.integers(1, 40),
)
def test_neighbors_in_arc_match_the_sorted_filter(s, start, stop, from_s, start_k, stop_k, direction, openness, bound):
    # arcs that start at s, or end on a neighbor of s, test the endpoint rules
    u, v = basis_completion(s)
    if start_k is not None:
        start = reduce(u + start_k * s.num, v + start_k * s.den)
    if stop_k is not None:
        stop = reduce(u + stop_k * s.num, v + stop_k * s.den)
    start = s if from_s else start
    if start == stop:
        return
    arc = SlopeArc(start, stop, direction, openness)
    try:
        expected = sorted_filter_neighbors(s, arc, bound)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            neighbors_in_arc(s, arc, bound)
        return
    assert neighbors_in_arc(s, arc, bound) == expected


def test_neighbors_window_example():
    arc = SlopeArc(Slope(-5, 1), INFINITY, Direction.CLOCKWISE, Openness.HALF_OPEN_AT_TO)
    got = neighbors_in_arc(Slope(-5, 1), arc, 3)
    assert got == [Slope(-14, 3), Slope(-9, 2), Slope(-4, 1), INFINITY]


def test_neighbors_rejects_unbounded_integer_fan():
    arc = SlopeArc(INFINITY, Slope(3, 1), Direction.CLOCKWISE, Openness.HALF_OPEN_AT_TO)
    with pytest.raises(ValueError):
        neighbors_in_arc(INFINITY, arc, 5)


def test_unimodular_matrix_validates_determinant():
    with pytest.raises(ValueError):
        UnimodularMatrix(2, 0, 0, 1)
    assert UnimodularMatrix.identity().det == 1
    assert UnimodularMatrix.translation(3).det == 1


@given(all_slopes, st.integers(-6, 6))
def test_translation_acts_on_slopes(s, k):
    image = apply_unimodular(UnimodularMatrix.translation(k), s)
    if s.is_infinity:
        assert image == INFINITY
    else:
        assert image.as_fraction() == s.as_fraction() + k


@given(all_slopes, all_slopes)
def test_unimodular_action_preserves_adjacency(a, b):
    m = UnimodularMatrix(2, 1, 1, 1)
    assert is_farey_adjacent(a, b) == is_farey_adjacent(
        apply_unimodular(m, a), apply_unimodular(m, b)
    )
