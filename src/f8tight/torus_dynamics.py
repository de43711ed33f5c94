"""Bypass dynamics on convex tori with two dividing curves.

Attaching a bypass to such a torus changes its dividing slope by a single
Farey move: the new slope is the Farey neighbor of the old slope s that is
furthest clockwise inside the arc running clockwise from s to the slope of
the attaching arc (and the mirror of this for back attachments).  Iterating
front moves with attaching slope 0 drives every admissible slope to one of
the two terminal slopes −3 or ∞; `thicken_path` records that orbit.

`has_boundary_parallel_bypass` is the existence predicate for the move:
it fails exactly on the three exceptional families −(4n−1)/n, 1/n and
(4n+1)/n, which is what makes −3 (the n = 1 member of the first family) a
genuine endpoint of the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .classification import TOROIDAL_COEFFICIENTS, finite_coefficient
from .slope import INFINITY, ZERO, Slope, basis_completion, det, is_farey_adjacent, reduce

MINUS_THREE = Slope(-3, 1)


class AttachSide(Enum):
    FRONT = "front"
    BACK = "back"


@dataclass(frozen=True)
class BypassMove:
    """A bypass attachment: which side of the torus, and the arc's slope."""

    attach_side: AttachSide
    arc_slope: Slope


@dataclass(frozen=True)
class ThickeningPath:
    """Orbit of a slope under front bypass moves with attaching slope 0.

    `steps` lists the slopes after each move, so the full visited sequence
    is (start, *steps).  Consecutive slopes are Farey-adjacent except for
    one sanctioned shortcut: a path sitting at −1/n jumps straight to its
    terminal ∞, and for n ≥ 2 those two slopes are not adjacent.
    """

    start: Slope
    steps: tuple[Slope, ...] = field(default=())
    reached_minus_three: bool = False
    reached_infinity: bool = False

    def __post_init__(self) -> None:
        if not (self.reached_minus_three or self.reached_infinity):
            raise ValueError("a completed path must reach -3 or inf")
        visited = self.slopes
        if len({(s.num, s.den) for s in visited}) != len(visited):
            raise ValueError("thickening path revisits a slope")
        last = len(visited) - 2
        for i, (a, b) in enumerate(zip(visited, visited[1:])):
            if abs(det(a, b)) != 1 and not (i == last and b.is_infinity):
                raise ValueError(f"non-adjacent consecutive slopes {a}, {b}")

    @property
    def slopes(self) -> tuple[Slope, ...]:
        return (self.start, *self.steps)


@dataclass(frozen=True)
class SlopeWindow:
    """Denominator-bounded query for the admissible slopes next to r."""

    surgery_coefficient: Slope
    denominator_bound: int

    def __post_init__(self) -> None:
        if self.denominator_bound < 1:
            raise ValueError(f"window denominator bound must be positive, got {self.denominator_bound}")


def bypass_step(s: Slope, move: BypassMove) -> Slope:
    """Dividing slope after one bypass attachment.

    Front: the Farey neighbor of s furthest clockwise within the clockwise
    open arc from s to the arc slope; when the two are already adjacent the
    result is the arc slope itself.  Back is the counterclockwise mirror.
    """
    r = move.arc_slope
    if s == r:
        raise ValueError(f"degenerate bypass: arc slope equals torus slope {s}")
    if is_farey_adjacent(s, r):
        return r
    front = move.attach_side is AttachSide.FRONT
    if s.is_infinity:
        # Neighbors of inf are the integers, and the clockwise arc from inf
        # climbs from below r, so the front move lands just under r: the
        # floor of r (the ceiling for a back move).
        n = r.num // r.den if front else -(-r.num // r.den)
        return reduce(n, 1)
    u, v = basis_completion(s)
    # Neighbors of s are (u, v) + k (p, q); k increasing sweeps clockwise.
    # The sweep crosses r at the real parameter a/b below (never an integer
    # here, since an integer k would mean r itself is a neighbor); floor
    # division takes its floor (ceiling) whatever the sign of b.
    a, b = v * r.num - u * r.den, det(s, r)
    k = a // b if front else -(-a // b)
    return reduce(u + k * s.num, v + k * s.den)


def has_boundary_parallel_bypass(s: Slope) -> bool:
    """Whether a torus of dividing slope s admits the relevant bypass.

    False exactly on the families −(4n−1)/n, 1/n and (4n+1)/n for n ≥ 1.
    The slopes 0 and ∞ are outside the predicate's domain.
    """
    if s == ZERO or s.is_infinity:
        raise ValueError(f"bypass predicate undefined at {s}")
    p, q = s.num, s.den
    return not (p + 4 * q == 1 or p == 1 or p - 4 * q == 1)


# Where a thickening walk halts or refuses, as linear conditions a·p + b·q = t
# on the slope p/q (q > 0 before the walk reaches ∞): −3 (det with −3 is 0),
# numerator −1, ∞, and the stuck families −(4n−1)/n, 1/n and (4n+1)/n.
# Only numerator −1 and 1/n were seen to fall strictly inside a run; the
# rest are listed so that a run is cut wherever the one-move walk checks.
_WALK_EVENTS = ((1, 3, 0), (1, 0, -1), (0, 1, 0), (1, 4, 1), (1, 0, 1), (1, -4, 1))


def _front_run(s: Slope) -> list[Slope]:
    """The front moves toward 0 from s that repeat the first move's step.

    One bypass move gives the step w, and the walk goes on by +w while it
    stays short of 0, that is for |p| // |w_p| moves (the vectors s + k·w
    pass 0 at k = −p / w_p).  The run ends early at its first slope where
    `thicken_path` halts or refuses, so that slope is checked there.
    """
    nxt = bypass_step(s, BypassMove(AttachSide.FRONT, ZERO))
    p, q = s.num, s.den
    dp, dq = nxt.num - p, nxt.den - q
    size = abs(p) // abs(dp) if dp else 1
    for a, b, t in _WALK_EVENTS:
        at, per_move = a * p + b * q, a * dp + b * dq
        if per_move and (t - at) % per_move == 0 and 0 < (t - at) // per_move < size:
            size = (t - at) // per_move
    run = [nxt] + [Slope(p + k * dp, q + k * dq) for k in range(2, size)]
    if size > 1:
        # only the last slope of a run can be ∞, and its vector may be (−1, 0)
        end_p, end_q = p + size * dp, q + size * dq
        run.append(Slope(end_p, end_q) if end_q else INFINITY)
    return run


def thicken_path(s: Slope) -> ThickeningPath:
    """Drive s by front bypass moves of arc slope 0 until −3 or ∞.

    A slope −1/n jumps directly to ∞ (its orbit leaves the two-curve
    regime there).  The slope −3 admits no further bypass and ends the
    path with `reached_minus_three` set.  Starting at 0 is rejected;
    callers substitute a nearby admissible slope first.  The moves come
    one run of equal steps at a time (`_front_run`), one bypass move each.
    """
    if s == ZERO:
        raise ValueError("thickening is undefined at 0; substitute a stabilized slope")
    if s.is_infinity:
        return ThickeningPath(start=s, reached_infinity=True)
    steps: list[Slope] = []
    current = s
    budget = abs(s.num) + s.den  # paths are no longer than this
    while len(steps) <= budget:
        if current == MINUS_THREE:
            return ThickeningPath(s, tuple(steps), reached_minus_three=True)
        if current.num == -1:
            steps.append(INFINITY)
            return ThickeningPath(s, tuple(steps), reached_infinity=True)
        if current.is_infinity:
            return ThickeningPath(s, tuple(steps), reached_infinity=True)
        if not has_boundary_parallel_bypass(current):
            raise ValueError(f"no bypass available at {current}; slope is outside the admissible window")
        steps += _front_run(current)
        current = steps[-1]
    raise RuntimeError(f"thickening of {s} exceeded {budget} moves")


def slopes_in_window(w: SlopeWindow) -> list[Slope]:
    """Farey neighbors of the surgery coefficient, clockwise of it up to ∞.

    Ordered along the arc; ∞ itself appears when adjacent.  The toroidal
    coefficients 0 and ±4 have no window, and ∞ is not a coefficient.
    """
    r = w.surgery_coefficient
    finite_coefficient(r)  # refuses ∞ with the domain error
    if r in TOROIDAL_COEFFICIENTS:
        raise ValueError(f"no slope window at toroidal coefficient {r}")
    # For r = p/q the neighbor of sweep index k (`basis_completion`) is
    # t = (−u − k·p)/(−v − k·q), and t − r = 1/(q·(−v − k·q)).  So the
    # neighbors above r with denominator ≤ bound are one range of k, in
    # ascending order, ending at ∞ (the vector (1, 0)) exactly when q = 1.
    u, v = basis_completion(r)
    p, q = r.num, r.den
    return [Slope(-u - k * p, -v - k * q) for k in range(-((w.denominator_bound + v) // q), -v // q + 1)]
