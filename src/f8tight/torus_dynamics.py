"""Bypass dynamics on convex tori with two dividing curves.

Attaching a bypass to such a torus changes its dividing slope by a single
Farey move: the new slope is the Farey neighbor of the old slope s that is
furthest clockwise inside the arc running clockwise from s to the slope of
the attaching arc (and the mirror of this for back attachments).  Repeated
moves toward a fixed slope go in runs of equal steps, each found with one
move (`farey_run`, which also builds the chains of `tight_counts`).
Iterating front moves with attaching slope 0 drives every admissible slope
to −3 or ∞; `thicken_path` records that orbit as such runs.

`has_boundary_parallel_bypass` is the existence predicate for the move:
it fails exactly on the three exceptional families −(4n−1)/n, 1/n and
(4n+1)/n, which is what makes −3 (the n = 1 member of the first family) a
genuine endpoint of the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .classification import finite_coefficient, is_toroidal
from .slope import INFINITY, ZERO, SliceBlock, Slope, basis_completion, det, is_farey_adjacent, reduce, walk_end

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

    The moves are stored as runs of equal steps, O(runs) however many
    moves; `steps` spells out the slopes after each move and `slopes` is
    (start, *steps).  Every move turns clockwise and ∞ comes only at the
    end, so no slope repeats.  Every move is a Farey edge except a last run
    from −1/n straight to its terminal ∞, not adjacent for n ≥ 2.
    """

    start: Slope
    runs: tuple[SliceBlock, ...] = ()
    reached_minus_three: bool = False
    reached_infinity: bool = False

    def __post_init__(self) -> None:
        if not (self.reached_minus_three or self.reached_infinity):
            raise ValueError("a completed path must reach -3 or inf")
        at = walk_end(self.start, self.runs[:-1])
        if at.num != -1 or self.runs[-1:] != (SliceBlock(at, (2, -at.den), 1),):
            walk_end(at, self.runs[-1:])
        for run in self.runs:
            if run.start.is_infinity:
                raise ValueError("a thickening path reaches inf only at its end")
            if run.start.num * run.step[1] - run.start.den * run.step[0] >= 0:
                raise ValueError(f"the run from {run.start} by {run.step} does not turn clockwise")

    @property
    def steps(self) -> tuple[Slope, ...]:
        return tuple(s for run in self.runs for s in run.slopes())

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
    u, v = basis_completion(s)
    # Neighbors of s are (u, v) + k (p, q); k increasing sweeps clockwise.
    # The sweep crosses r at the real parameter a/b below (never an integer
    # here, since an integer k would mean r itself is a neighbor); floor
    # division takes its floor (ceiling) whatever the sign of b.  From ∞,
    # whose neighbors are the integers k, a/b is r itself.
    a, b = v * r.num - u * r.den, det(s, r)
    k = a // b if move.attach_side is AttachSide.FRONT else -(-a // b)
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


def farey_run(at: Slope, target: Slope, side: AttachSide) -> SliceBlock:
    """The run of equal steps that bypass moves toward target take from at.

    One bypass move gives the step w, and the greedy walk repeats it while
    it stays short of target: the vectors at + k·w reach target at the real
    k = |det(at, target)| / |det(w, target)|, whose integer part is the size.
    """
    nxt = bypass_step(at, BypassMove(side, target))
    dp, dq = nxt.num - at.num, nxt.den - at.den
    return SliceBlock(at, (dp, dq), abs(det(at, target)) // abs(dp * target.den - dq * target.num))


def _front_run(s: Slope) -> SliceBlock:
    """The `farey_run` toward 0 from s, cut at its first slope where
    `thicken_path` halts or refuses, so that slope is checked there."""
    run = farey_run(s, ZERO, AttachSide.FRONT)
    (dp, dq), size = run.step, run.size
    for a, b, t in _WALK_EVENTS:
        at, per_move = a * s.num + b * s.den, a * dp + b * dq
        if per_move and (t - at) % per_move == 0 and 0 < (t - at) // per_move < size:
            size = (t - at) // per_move
    return run._replace(size=size)


def thicken_path(s: Slope) -> ThickeningPath:
    """Drive s by front bypass moves of arc slope 0 until −3 or ∞.

    A slope −1/n jumps directly to ∞ (its orbit leaves the two-curve
    regime there).  The slope −3 admits no further bypass and ends the
    path with `reached_minus_three` set.  Starting at 0 is rejected;
    callers substitute a nearby admissible slope first.  Each run of moves
    costs one bypass move (`_front_run`).
    """
    if s == ZERO:
        raise ValueError("thickening is undefined at 0; substitute a stabilized slope")
    runs, at, moves = [], s, 0
    budget = abs(s.num) + s.den  # paths are no longer than this
    while moves <= budget:
        if at.num == -1:
            runs.append(SliceBlock(at, (2, -at.den), 1))  # (−1, n) + (2, −n) = ∞
            at = INFINITY
        if at in (MINUS_THREE, INFINITY):
            return ThickeningPath(s, tuple(runs), at == MINUS_THREE, at.is_infinity)
        if not has_boundary_parallel_bypass(at):
            raise ValueError(f"no bypass available at {at}; slope is outside the admissible window")
        runs.append(_front_run(at))
        moves, at = moves + runs[-1].size, runs[-1].end
    raise RuntimeError(f"thickening of {s} exceeded {budget} moves")


def slopes_in_window(w: SlopeWindow) -> list[Slope]:
    """Farey neighbors of the surgery coefficient, clockwise of it up to ∞.

    Ordered along the arc; ∞ itself appears when adjacent.  The toroidal
    coefficients 0 and ±4 have no window, and ∞ is not a coefficient.
    """
    r = w.surgery_coefficient
    finite_coefficient(r)  # refuses ∞ with the domain error
    if is_toroidal(r):
        raise ValueError(f"no slope window at toroidal coefficient {r}")
    # For r = p/q the neighbor of sweep index k (`basis_completion`) is
    # t = (−u − k·p)/(−v − k·q), and t − r = 1/(q·(−v − k·q)).  So the
    # neighbors above r with denominator ≤ bound are one range of k, in
    # ascending order, one run of step (−p, −q), ending at ∞ (the vector
    # (1, 0)) exactly when q = 1.
    u, v = basis_completion(r)
    p, q = r.num, r.den
    lo, hi = -((w.denominator_bound + v) // q), -v // q
    return [] if lo > hi else SliceBlock(Slope(-u - lo * p, -v - lo * q), (-p, -q), hi - lo).slopes(0)
