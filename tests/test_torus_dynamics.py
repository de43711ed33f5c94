"""Bypass moves, thickening orbits, and slope windows.

Oracle for a single move: list every Farey neighbor of s inside the
traversal arc by brute force, ordered on the circle cut open at infinity
(`circle_order`), and take the one furthest along it.  The closed-form
step must agree.  Oracle for a slope window: every neighbor above r with
a small enough denominator, found by brute force.  Oracle for a
thickening path: the walk that makes one bypass move per step and checks
every slope it reaches; the path stored as runs must spell out the same
slopes and flags, errors included.
The integer step is also checked against its Fraction form: the floor or
ceiling of the real sweep index where the neighbours of s cross the arc
slope.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle_order import Arc, oracle_in_arc, oracle_neighbors, value
from f8tight.classification import in_classified_range
from f8tight.slope import (
    INFINITY,
    ZERO,
    SliceBlock,
    Slope,
    basis_completion,
    det,
    from_rational,
    is_farey_adjacent,
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
    arc = Arc(s, r, clockwise=move.attach_side is AttachSide.FRONT)
    if s.is_infinity:
        f = value(r)
        cands = [
            reduce(n, 1)
            for n in range(math.floor(f) - 2, math.ceil(f) + 3)
            if oracle_in_arc(reduce(n, 1), arc)
        ]
        picked = max(cands, key=value) if move.attach_side is AttachSide.FRONT else min(cands, key=value)
        return picked
    # the step result never has denominator above den(s) + den(r)
    return oracle_neighbors(s, arc, s.den + r.den + 2)[-1]


def fraction_bypass(s: Slope, move: BypassMove) -> Slope:
    """The step by Fraction floors and ceilings, as the library took it before
    it divided integers: from ∞ the integer part of r, and otherwise the
    rounded sweep index k where (u, v) + k·(p, q) crosses r."""
    r = move.arc_slope
    rounded = math.floor if move.attach_side is AttachSide.FRONT else math.ceil
    if is_farey_adjacent(s, r):
        return r
    if s.is_infinity:
        return reduce(rounded(value(r)), 1)
    u, v = basis_completion(s)
    k = rounded(Fraction(-(u * r.den - v * r.num), det(s, r)))
    return reduce(u + k * s.num, v + k * s.den)


def stepwise_thicken(s: Slope) -> tuple[tuple[Slope, ...], bool, bool]:
    """Front moves of arc slope 0 one at a time, every slope checked.

    Returns the visited slopes and the two flags, as `thickened` does."""
    if s == ZERO:
        raise ValueError("thickening is undefined at 0; substitute a stabilized slope")
    if s.is_infinity:
        return (s,), False, True
    slopes = [s]
    current = s
    budget = abs(s.num) + s.den
    for _ in range(budget + 1):
        if current == MINUS_THREE:
            return tuple(slopes), True, False
        if current.num == -1:
            slopes.append(INFINITY)
            return tuple(slopes), False, True
        if current.is_infinity:
            return tuple(slopes), False, True
        if not has_boundary_parallel_bypass(current):
            raise ValueError(f"no bypass available at {current}; slope is outside the admissible window")
        current = bypass_step(current, BypassMove(AttachSide.FRONT, ZERO))
        slopes.append(current)
    raise RuntimeError(f"thickening of {s} exceeded {budget} moves")


def thickened(s: Slope) -> tuple[tuple[Slope, ...], bool, bool]:
    """`thicken_path`'s visited slopes and its two flags."""
    path = thicken_path(s)
    return path.slopes, path.reached_minus_three, path.reached_infinity


def outcome(func, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return func(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


finite_slopes = st.fractions(min_value=-30, max_value=30, max_denominator=9).map(from_rational)
all_slopes = st.one_of(st.just(INFINITY), finite_slopes)
wide_slopes = st.one_of(
    st.just(INFINITY),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4).map(from_rational),
)
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


@settings(max_examples=400)
@given(wide_slopes, wide_slopes, sides)
def test_bypass_step_matches_the_fraction_floor(s, r, side):
    if s == r:
        return
    move = BypassMove(side, r)
    assert bypass_step(s, move) == fraction_bypass(s, move)


@given(wide_slopes, sides)
def test_bypass_step_from_infinity_matches_the_fraction_floor(r, side):
    if r.is_infinity:
        return
    move = BypassMove(side, r)
    assert bypass_step(INFINITY, move) == fraction_bypass(INFINITY, move)


def test_bypass_and_thickening_build_no_fractions(fractions_built):
    rng = random.Random(14)
    for _ in range(300):
        s = reduce(rng.randint(-400, 400) or 1, rng.randint(0, 300))
        r = reduce(rng.randint(-400, 400) or 1, rng.randint(0, 300))
        side = rng.choice(list(AttachSide))
        if s != r:
            _, built = fractions_built(bypass_step, s, BypassMove(side, r))
            assert built == 0
        if s != ZERO:
            _, built = fractions_built(outcome, thicken_path, s)
            assert built == 0


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
    assert outcome(thickened, s) == outcome(stepwise_thicken, s)


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
    assert outcome(thickened, start) == outcome(stepwise_thicken, start)


def test_thickening_path_validation():
    def path(start, *runs, **flags):
        return ThickeningPath(start, tuple(SliceBlock(*run) for run in runs), **flags)

    minus_two, minus_one, to_minus_four = Slope(-2, 1), Slope(-1, 1), (Slope(-9, 2), (5, -1), 1)
    with pytest.raises(ValueError, match="must reach"):  # no flag
        path(Slope(-9, 2), to_minus_four, (Slope(-4, 1), (1, 0), 1))
    with pytest.raises(ValueError, match="does not turn clockwise"):  # -2, -1, -2 revisits -2
        path(minus_two, (minus_two, (1, 0), 1), (minus_one, (-1, 0), 1), reached_infinity=True)
    with pytest.raises(ValueError, match="not a Farey edge"):  # -5/2 to -1 is no edge
        path(Slope(-5, 2), (Slope(-5, 2), (4, -1), 1), (minus_one, (2, -1), 1), reached_infinity=True)
    with pytest.raises(ValueError, match="not a Farey edge"):  # det((-9, 2), (2, 0)) = -4
        path(Slope(-9, 2), (Slope(-9, 2), (2, 0), 3), reached_minus_three=True)
    with pytest.raises(ValueError, match="but the walk stands at -4"):  # a gap from -4 to 4
        path(Slope(-9, 2), to_minus_four, (Slope(4, 1), (-3, -1), 1), reached_infinity=True)
    with pytest.raises(ValueError, match="inf only at its end"):  # 3, inf, -3
        path(Slope(3, 1), (Slope(3, 1), (-2, -1), 1), (INFINITY, (-4, 1), 1), reached_minus_three=True)
    jump = (Slope(-1, 3), (2, -3), 1)  # -1/3 straight to inf
    with pytest.raises(ValueError, match="not a Farey edge"):  # the jump, but not last
        path(Slope(-1, 3), jump, (INFINITY, (-4, 1), 1), reached_minus_three=True)
    assert path(Slope(-1, 3), jump, reached_infinity=True).slopes == (Slope(-1, 3), INFINITY)


def test_thicken_path_builds_a_slope_per_run_not_per_move(monkeypatch):
    start = Slope(1_000_001, 1_000_000)
    built = []
    original = Slope.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Slope, "__post_init__", counted)
    path = thicken_path(start)
    monkeypatch.undo()
    assert len(built) < 10
    assert len(path.steps) == 1_000_000


def test_window_frozen_example():
    got = slopes_in_window(SlopeWindow(Slope(-5, 1), 3))
    assert got == [Slope(-14, 3), Slope(-9, 2), Slope(-4, 1), INFINITY]


def test_window_rejects_toroidal_coefficients():
    for r in (ZERO, Slope(4, 1), Slope(-4, 1)):
        with pytest.raises(ValueError):
            slopes_in_window(SlopeWindow(r, 5))
    with pytest.raises(ValueError):
        SlopeWindow(Slope(-5, 1), 0)


@given(finite_slopes, st.integers(1, 40))
def test_window_matches_brute_force(r, bound):
    if r in (ZERO, Slope(4, 1), Slope(-4, 1)):
        return
    x = value(r)
    # a neighbor p/q above r has p/q − r = 1/(q·den(r)) ≤ 1
    candidates = [
        Slope(p, q)
        for q in range(1, bound + 1)
        for p in range(math.floor(q * x), math.ceil(q * (x + 1)) + 1)
        if math.gcd(abs(p), q) == 1
    ]
    above = sorted((t for t in candidates if abs(det(r, t)) == 1 and value(t) > x), key=value)
    expected = above + [INFINITY] if r.den == 1 else above
    assert slopes_in_window(SlopeWindow(r, bound)) == expected


@given(finite_slopes, st.integers(1, 9))
def test_window_slopes_are_adjacent_and_clockwise_of_r(r, bound):
    if r in (ZERO, Slope(4, 1), Slope(-4, 1)):
        return
    arc = Arc(r, INFINITY, clockwise=True)
    got = slopes_in_window(SlopeWindow(r, bound))
    if bound >= max(1, r.den - 1):
        # the clockwise Farey parent of r fits under such a bound
        assert got
    for s in got:
        assert is_farey_adjacent(r, s)
        assert s.den <= bound
        assert oracle_in_arc(s, arc)
    finite = [value(s) for s in got if not s.is_infinity]
    assert finite == sorted(finite)
    assert (INFINITY in got) == (r.den == 1)


@given(finite_slopes, st.integers(1, 9))
def test_windows_of_classified_coefficients_avoid_the_gaps(r, bound):
    if r in (ZERO, Slope(4, 1), Slope(-4, 1)) or not in_classified_range(value(r)):
        return
    for s in slopes_in_window(SlopeWindow(r, bound)):
        if s.is_infinity:
            continue
        f = value(s)
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
