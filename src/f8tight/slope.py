"""Exact arithmetic on extended rational slopes and the Farey circle.

A slope is a point of Q ∪ {∞} written as a reduced pair p/q with q ≥ 0 and
∞ = 1/0.  Two slopes are joined by an edge of the Farey graph when the
corresponding integer vectors form a basis of Z², i.e. when the 2×2
determinant of the pair is ±1.  The neighbors of a slope are one integer
sweep (`basis_completion`), so a run of them along the circle is a range
of the sweep index, and no two slopes need comparing; no floating point is
used anywhere.  Every Farey walk (a solid torus's chain, a thickening, a
slope window) is stored as runs of equal steps, `SliceBlock`s, and checked
by `walk_end` in O(runs).

Convention: the circle is oriented so that 0, 1, ∞ appear in clockwise
order and 0, −1, 1 in counterclockwise order.  Equivalently, moving
clockwise from a finite slope means increasing it, wrapping once through ∞
from the positive to the negative side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple


@dataclass(frozen=True, slots=True)
class Slope:
    """A reduced extended rational p/q; q = 0 only for the canonical ∞ = 1/0."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den < 0:
            raise ValueError(f"slope denominator must be non-negative, got {self.den}")
        if self.den == 0 and self.num != 1:
            raise ValueError(f"infinity must be canonical 1/0, got {self.num}/0")
        if math.gcd(abs(self.num), self.den) != 1:
            raise ValueError(f"slope {self.num}/{self.den} is not reduced")

    @property
    def is_infinity(self) -> bool:
        return self.den == 0

    # The names of `numbers.Rational`, so that `phi`, `psi` and the range
    # tests read a finite slope as they read a Fraction, without building one.
    @property
    def numerator(self) -> int:
        return self.num

    @property
    def denominator(self) -> int:
        return self.den

    def __neg__(self) -> Slope:
        # -inf is identified with inf (one projective point).
        if self.is_infinity:
            return self
        return Slope(-self.num, self.den)

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}" if self.den else "inf"


INFINITY = Slope(1, 0)
ZERO = Slope(0, 1)


def reduce(p: int, q: int) -> Slope:
    """Canonical slope equal to p/q: gcd removed, sign carried by p, ∞ = 1/0."""
    if p == 0 and q == 0:
        raise ValueError("0/0 is not a slope")
    if q == 0:
        return INFINITY
    if q < 0:
        p, q = -p, -q
    g = math.gcd(abs(p), q)
    return Slope(p // g, q // g)


def from_rational(x: Fraction | int) -> Slope:
    f = Fraction(x)
    return Slope(f.numerator, f.denominator)


def parse_slope(text: str) -> Slope:
    """Parse ``p/q``, ``inf``, or a number `Fraction` reads (``n``, ``-4.5``, ``1e3``).

    Inverse of str() on canonical slopes, but accepts unreduced input.
    """
    text = text.strip()
    if text in ("inf", "-inf"):
        return INFINITY
    if "/" in text:
        num_part, den_part = text.split("/", 1)
        return reduce(int(num_part), int(den_part))
    return from_rational(Fraction(text))


def det(a: Slope, b: Slope) -> int:
    """Determinant of the integer vectors behind a and b.

    Zero exactly when a = b; the pair is a Farey edge exactly when this
    is ±1.
    """
    return a.num * b.den - a.den * b.num


def is_farey_adjacent(a: Slope, b: Slope) -> bool:
    return abs(det(a, b)) == 1


def basis_completion(s: Slope) -> tuple[int, int]:
    """Some integer vector (u, v) with det((p, q), (u, v)) = p·v − q·u = 1.

    Every Farey neighbor of s is (u + k·p, v + k·q) for a unique k ∈ Z, and
    increasing k sweeps the neighbors clockwise once around the circle.
    Here v = p⁻¹ mod q, in [0, q), and (0, 1) for ∞.
    """
    p, q = s.num, s.den
    if q == 0:
        return (0, 1)
    v = pow(p, -1, q)
    return ((p * v - 1) // q, v)


class SliceBlock(NamedTuple):
    """`size` Farey moves through the slopes start + k·step, k = 0, …, size.

    If det(start, step) = ±1, so is det(start + k·step, step) for every k:
    each vector is reduced and each move is a Farey edge.
    """

    start: Slope
    step: tuple[int, int]
    size: int

    def slopes(self, first: int = 1) -> list[Slope]:
        """start + k·step for k = first, …, size; a Slope refuses q < 0 and (−1, 0)."""
        (p, q), (dp, dq) = (self.start.num, self.start.den), self.step
        return [Slope(p + k * dp, q + k * dq) for k in range(first, self.size + 1)]

    @property
    def end(self) -> Slope:
        return self.slopes(self.size)[0]


def walk_end(start: Slope, runs: tuple[SliceBlock, ...]) -> Slope:
    """Where the runs lead from start, each checked to meet the last, move and step along a Farey edge."""
    at = start
    for run in runs:
        (dp, dq), size = run.step, run.size
        if size < 1:
            raise ValueError("run sizes must be positive")
        if run.start != at:
            raise ValueError(f"run starts at {run.start}, but the walk stands at {at}")
        if abs(at.num * dq - at.den * dp) != 1:
            raise ValueError(f"step {run.step} from {at} is not a Farey edge")
        at = run.end
    return at
