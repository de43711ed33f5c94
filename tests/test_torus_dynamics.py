"""Bypass moves, thickening orbits, and slope windows.

Oracle for a single move: list every Farey neighbor of s inside the
traversal arc (via the already-tested neighbor enumeration) and take the
one furthest along it.  The closed-form step must agree.  Oracle for a
thickening path: the walk that makes one bypass move per step and checks
every slope it reaches; the run-at-a-time walk must agree, errors included.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f8tight.classification import in_classified_range
from f8tight.slope import (
    INFINITY,
    ZERO,
    Direction,
    Openness,
    Slope,
    SlopeArc,
    from_rational,
    in_arc,
    is_farey_adjacent,
    neighbors_in_arc,
    reduce,
)
from f8tight.torus_dynamics import (
    MINUS_THREE,
    AttachSide,
    BypassMove,
    SlopeWindow,
    ThickeningPath,
    bypass_step,
    has_boundary_parallel_bypass,
    slopes_in_window,
    thicken_path,
)


def oracle_bypass(s: Slope, move: BypassMove) -> Slope:
    r = move.arc_slope
    direction = (
        Direction.CLOCKWISE if move.attach_side is AttachSide.FRONT else Direction.COUNTERCLOCKWISE
    )
    arc = SlopeArc(s, r, direction, Openness.HALF_OPEN_AT_TO)
    if s.is_infinity:
        f = r.as_fraction()
        cands = [
            reduce(n, 1)
            for n in range(math.floor(f) - 2, math.ceil(f) + 3)
            if in_arc(reduce(n, 1), arc)
        ]
        key = lambda c: c.as_fraction()
        picked = max(cands, key=key) if move.attach_side is AttachSide.FRONT else min(cands, key=key)
        return picked
    # the step result never has denominator above den(s) + den(r)
    return neighbors_in_arc(s, arc, s.den + r.den + 2)[-1]


def stepwise_thicken(s: Slope) -> ThickeningPath:
    """Front moves of arc slope 0 one at a time, every slope checked."""
    if s == ZERO:
        raise ValueError("thickening is undefined at 0; substitute a stabilized slope")
    if s.is_infinity:
        return ThickeningPath(start=s, reached_infinity=True)
    steps: list[Slope] = []
    current = s
    budget = abs(s.num) + s.den
    for _ in range(budget + 1):
        if current == MINUS_THREE:
            return ThickeningPath(s, tuple(steps), reached_minus_three=True)
        if current.num == -1:
            steps.append(INFINITY)
            return ThickeningPath(s, tuple(steps), reached_infinity=True)
        if current.is_infinity:
            return ThickeningPath(s, tuple(steps), reached_infinity=True)
        if not has_boundary_parallel_bypass(current):
            raise ValueError(f"no bypass available at {current}; slope is outside the admissible window")
        current = bypass_step(current, BypassMove(AttachSide.FRONT, ZERO))
        steps.append(current)
    raise RuntimeError(f"thickening of {s} exceeded {budget} moves")


def outcome(func, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return func(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


finite_slopes = st.fractions(min_value=-30, max_value=30, max_denominator=9).map(from_rational)
all_slopes = st.one_of(st.just(INFINITY), finite_slopes)
sides = st.sampled_from(list(AttachSide))
thickening_starts = st.one_of(
    st.just(INFINITY),
    st.fractions(min_value=-400, max_value=400, max_denominator=300).map(from_rational),
)


@pytest.mark.parametrize(
    "s, side, arc_slope, expected",
    [
        (Slope(-1, 1), AttachSide.FRONT, ZERO, ZERO),
        (Slope(-9, 2), AttachSide.FRONT, ZERO, Slope(-4, 1)),
        (Slope(-9, 2), AttachSide.BACK, ZERO, Slope(-5, 1)),
        (Slope(7, 2), AttachSide.FRONT, ZERO, Slope(4, 1)),
        (Slope(4, 1), AttachSide.FRONT, ZERO, INFINITY),
        (INFINITY, AttachSide.FRONT, Slope(1, 2), ZERO),
        (INFINITY, AttachSide.BACK, Slope(1, 2), Slope(1, 1)),
        (Slope(-2, 5), AttachSide.FRONT, ZERO, Slope(-1, 3)),
    ],
)
def test_bypass_step_examples(s, side, arc_slope, expected):
    assert bypass_step(s, BypassMove(side, arc_slope)) == expected


def test_bypass_step_rejects_degenerate_move():
    with pytest.raises(ValueError):
        bypass_step(Slope(7, 2), BypassMove(AttachSide.FRONT, Slope(7, 2)))


@given(all_slopes, all_slopes, sides)
def test_bypass_step_matches_arc_oracle(s, r, side):
    if s == r:
        return
    move = BypassMove(side, r)
    assert bypass_step(s, move) == oracle_bypass(s, move)


@given(all_slopes, all_slopes, sides)
def test_adjacent_move_returns_arc_slope(s, r, side):
    if s == r or not is_farey_adjacent(s, r):
        return
    assert bypass_step(s, BypassMove(side, r)) == r


@given(finite_slopes, finite_slopes)
def test_front_and_back_are_mirror_images(s, r):
    if s == r:
        return
    back = bypass_step(s, BypassMove(AttachSide.BACK, r))
    front = bypass_step(-s, BypassMove(AttachSide.FRONT, -r))
    assert back == -front


@given(all_slopes, all_slopes, sides)
def test_bypass_result_is_a_neighbor(s, r, side):
    if s == r:
        return
    out = bypass_step(s, BypassMove(side, r))
    assert is_farey_adjacent(s, out)


@pytest.mark.parametrize(
    "s, expected",
    [
        (MINUS_THREE, False),
        (Slope(-7, 2), False),
        (Slope(-11, 3), False),
        (Slope(1, 1), False),
        (Slope(1, 4), False),
        (Slope(5, 1), False),
        (Slope(9, 2), False),
        (Slope(13, 3), False),
        (Slope(9, 1), True),
        (Slope(-1, 1), True),
        (Slope(-5, 1), True),
        (Slope(7, 2), True),
        (Slope(-9, 2), True),
    ],
)
def test_bypass_existence_frozen(s, expected):
    assert has_boundary_parallel_bypass(s) is expected


@given(st.integers(1, 40))
def test_bypass_existence_fails_on_the_three_families(n):
    assert not has_boundary_parallel_bypass(reduce(-(4 * n - 1), n))
    assert not has_boundary_parallel_bypass(reduce(1, n))
    assert not has_boundary_parallel_bypass(reduce(4 * n + 1, n))


def test_bypass_existence_rejects_zero_and_infinity():
    with pytest.raises(ValueError):
        has_boundary_parallel_bypass(ZERO)
    with pytest.raises(ValueError):
        has_boundary_parallel_bypass(INFINITY)


@pytest.mark.parametrize(
    "start, slopes, minus_three",
    [
        (Slope(-9, 2), ("-9/2", "-4", "-3"), True),
        (Slope(-4, 1), ("-4", "-3"), True),
        (Slope(-2, 1), ("-2", "-1", "inf"), False),
        (Slope(-2, 5), ("-2/5", "-1/3", "inf"), False),
        (Slope(-1, 3), ("-1/3", "inf"), False),
        (Slope(3, 1), ("3", "inf"), False),
        (Slope(7, 2), ("7/2", "4", "inf"), False),
        (Slope(11, 2), ("11/2", "6", "inf"), False),
        (Slope(18, 5), ("18/5", "11/3", "4", "inf"), False),
        (INFINITY, ("inf",), False),
    ],
)
def test_thicken_path_frozen(start, slopes, minus_three):
    path = thicken_path(start)
    assert tuple(str(s) for s in path.slopes) == slopes
    assert path.reached_minus_three is minus_three
    assert path.reached_infinity is not minus_three


def test_thicken_rejects_zero_and_stuck_slopes():
    with pytest.raises(ValueError):
        thicken_path(ZERO)
    for stuck in (Slope(1, 2), Slope(5, 1), Slope(9, 2), Slope(-7, 2)):
        with pytest.raises(ValueError):
            thicken_path(stuck)


def test_thicken_halts_at_minus_three_without_moving():
    path = thicken_path(MINUS_THREE)
    assert path.slopes == (MINUS_THREE,)
    assert path.reached_minus_three


@given(finite_slopes)
def test_thicken_path_structure(s):
    if s == ZERO:
        return
    try:
        path = thicken_path(s)
    except ValueError:
        return
    visited = path.slopes
    assert len(path.steps) <= abs(s.num) + s.den
    assert visited[-1] in (MINUS_THREE, INFINITY)
    assert (visited[-1] == MINUS_THREE) == path.reached_minus_three
    # each recorded step re-derives from the single-move rule
    for a, b in zip(visited, visited[1:]):
        if b == INFINITY:
            assert a.num == -1 or bypass_step(a, BypassMove(AttachSide.FRONT, ZERO)) == INFINITY
        else:
            assert b == bypass_step(a, BypassMove(AttachSide.FRONT, ZERO))


@settings(max_examples=400)
@given(thickening_starts)
def test_thicken_path_matches_the_stepwise_walk(s):
    assert outcome(thicken_path, s) == outcome(stepwise_thicken, s)


@pytest.mark.parametrize(
    "start",
    [
        Slope(-99_999, 2),
        Slope(-20_001, 5_000),
        Slope(99_999, 2),
        Slope(-1, 7),
        Slope(-29, 8),  # refused on the way, at -7/2
        Slope(57, 13),  # refused on the way, at 9/2
    ],
)
def test_long_runs_match_the_stepwise_walk(start):
    assert outcome(thicken_path, start) == outcome(stepwise_thicken, start)


def test_thickening_path_validation():
    with pytest.raises(ValueError):
        ThickeningPath(Slope(-9, 2), (Slope(-4, 1), MINUS_THREE))
    with pytest.raises(ValueError):
        ThickeningPath(Slope(-2, 1), (Slope(-1, 1), Slope(-2, 1)), reached_infinity=True)
    with pytest.raises(ValueError):
        ThickeningPath(Slope(-5, 2), (Slope(-1, 1), INFINITY), reached_infinity=True)
    ok = ThickeningPath(Slope(-1, 3), (INFINITY,), reached_infinity=True)
    assert ok.slopes == (Slope(-1, 3), INFINITY)


def test_window_frozen_example():
    got = slopes_in_window(SlopeWindow(Slope(-5, 1), 3))
    assert got == [Slope(-14, 3), Slope(-9, 2), Slope(-4, 1), INFINITY]


def test_window_rejects_toroidal_coefficients():
    for r in (ZERO, Slope(4, 1), Slope(-4, 1)):
        with pytest.raises(ValueError):
            slopes_in_window(SlopeWindow(r, 5))
    with pytest.raises(ValueError):
        SlopeWindow(Slope(-5, 1), 0)


@given(finite_slopes, st.integers(1, 9))
def test_window_slopes_are_adjacent_and_clockwise_of_r(r, bound):
    if r in (ZERO, Slope(4, 1), Slope(-4, 1)):
        return
    arc = SlopeArc(r, INFINITY, Direction.CLOCKWISE, Openness.HALF_OPEN_AT_TO)
    got = slopes_in_window(SlopeWindow(r, bound))
    if bound >= max(1, r.den - 1):
        # the clockwise Farey parent of r fits under such a bound
        assert got
    for s in got:
        assert is_farey_adjacent(r, s)
        assert s.den <= bound
        assert in_arc(s, arc)
    finite = [s.as_fraction() for s in got if not s.is_infinity]
    assert finite == sorted(finite)
    assert (INFINITY in got) == (r.den == 1)


@given(finite_slopes, st.integers(1, 9))
def test_windows_of_classified_coefficients_avoid_the_gaps(r, bound):
    if r in (ZERO, Slope(4, 1), Slope(-4, 1)) or not in_classified_range(r.as_fraction()):
        return
    for s in slopes_in_window(SlopeWindow(r, bound)):
        if s.is_infinity:
            continue
        f = s.as_fraction()
        assert not (-4 < f <= -3)
        assert not (0 < f <= 1)
        assert not (4 < f <= 5)


@pytest.mark.parametrize("r", [Slope(-5, 1), Slope(-9, 2), Slope(7, 2), Slope(-1, 2)])
def test_window_slopes_thicken_cleanly(r):
    for s in slopes_in_window(SlopeWindow(r, 12)):
        if s == ZERO:
            s = Slope(-1, r.den + 1)
        path = thicken_path(s)
        assert path.reached_minus_three or path.reached_infinity
