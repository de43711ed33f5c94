"""Exact arithmetic on extended rational slopes and the Farey circle.

A slope is a point of Q ∪ {∞} written as a reduced pair p/q with q ≥ 0 and
∞ = 1/0.  Two slopes are joined by an edge of the Farey graph when the
corresponding integer vectors form a basis of Z², i.e. when the 2×2
determinant of the pair is ±1.  All circular-order questions (which of two
slopes comes first along an arc, whether a slope lies inside an arc) are
answered by a three-point orientation predicate built from exact integer
determinants; no floating point is used anywhere.

Convention: the circle is oriented so that 0, 1, ∞ appear in clockwise
order and 0, −1, 1 in counterclockwise order.  Equivalently, moving
clockwise from a finite slope means increasing it, wrapping once through ∞
from the positive to the negative side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


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

    def as_fraction(self) -> Fraction:
        if self.is_infinity:
            raise ValueError("infinity has no finite value")
        return Fraction(self.num, self.den)

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
    """Parse ``p/q``, a bare integer ``n``, or ``inf``.

    Inverse of str() on canonical slopes, but accepts unreduced input.
    """
    text = text.strip()
    if text in ("inf", "-inf"):
        return INFINITY
    if "/" in text:
        num_part, den_part = text.split("/", 1)
        return reduce(int(num_part), int(den_part))
    return reduce(int(text), 1)


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
    """
    # Extended Euclid on (p, q); the canonical q ≥ 0 makes the sweep direction
    # independent of s.
    p, q = s.num, s.den
    old_r, r = p, q
    old_s, sc = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, sc = sc, old_s - quotient * sc
        old_t, t = t, old_t - quotient * t
    # old_r = gcd = ±1 and p·old_s + q·old_t = old_r.
    if old_r == -1:
        old_s, old_t = -old_s, -old_t
    # p·old_s + q·old_t = 1; we want p·v − q·u = 1, so v = old_s, u = −old_t.
    return (-old_t, old_s)


def orientation(a: Slope, b: Slope, c: Slope) -> int:
    """+1 if a, b, c appear in clockwise circular order, −1 if counterclockwise.

    The three slopes must be pairwise distinct.  Sanity anchors: (0, 1, ∞)
    is clockwise, (0, −1, 1) is counterclockwise.
    """
    if a == b or b == c or a == c:
        raise ValueError(f"orientation needs three distinct slopes, got {a}, {b}, {c}")
    product = det(a, b) * det(b, c) * det(c, a)
    return 1 if product > 0 else -1


class Direction(Enum):
    CLOCKWISE = "clockwise"
    COUNTERCLOCKWISE = "counterclockwise"

    @property
    def sign(self) -> int:
        return 1 if self is Direction.CLOCKWISE else -1


class Openness(Enum):
    OPEN = "open"                          # neither endpoint belongs to the arc
    HALF_OPEN_AT_TO = "half-open-at-to"    # `to` belongs, `from` does not
    CLOSED = "closed"                      # both endpoints belong


@dataclass(frozen=True)
class SlopeArc:
    """An arc of the circle traversed from `start` to `stop` in `direction`."""

    start: Slope
    stop: Slope
    direction: Direction
    openness: Openness = Openness.OPEN

    def __post_init__(self) -> None:
        if self.start == self.stop:
            raise ValueError("arc endpoints must differ")


def in_arc(x: Slope, arc: SlopeArc) -> bool:
    """Whether x lies on the arc, endpoints included as the openness allows."""
    if x == arc.start:
        return arc.openness is Openness.CLOSED
    if x == arc.stop:
        return arc.openness is not Openness.OPEN
    return orientation(arc.start, x, arc.stop) == arc.direction.sign


def neighbors_in_arc(s: Slope, arc: SlopeArc, max_denominator: int) -> list[Slope]:
    """All Farey neighbors of s on the arc with denominator ≤ max_denominator.

    Ordered by position along the arc.  The neighbors are (u + k·p, v + k·q)
    with k increasing clockwise from s (`basis_completion`), so the arc is
    one range of k, or two when it runs through s itself, cut where the
    sweep passes its endpoints; the list comes out in k order, and no two
    slopes are ever compared.  The neighbors of ∞ are exactly the integers,
    so an arc touching ∞ holds infinitely many of them regardless of any
    denominator bound; that request is refused loudly.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    # A counterclockwise arc holds the clockwise arc from its stop to its
    # start, read backwards.
    clockwise = arc.direction is Direction.CLOCKWISE
    keep_start, keep_stop = arc.openness is Openness.CLOSED, arc.openness is not Openness.OPEN
    first, last = (arc.start, arc.stop) if clockwise else (arc.stop, arc.start)
    keep_first, keep_last = (keep_start, keep_stop) if clockwise else (keep_stop, keep_start)
    u, v = basis_completion(s)
    p, q = s.num, s.den
    # The sweep passes a slope t ≠ s at the real parameter below (an integer
    # exactly when t is a neighbor); an end at s is the sweep's own start or
    # finish, and leaves that side of the range open.
    lo = None if first == s else Fraction(v * first.num - u * first.den, det(s, first))
    hi = None if last == s else Fraction(v * last.num - u * last.den, det(s, last))
    wraps = lo is not None and hi is not None and lo > hi
    k_first = None if lo is None else (math.ceil(lo) if keep_first else math.floor(lo) + 1)
    k_last = None if hi is None else (math.floor(hi) if keep_last else math.ceil(hi) - 1)
    if q == 0:
        # s = ∞: the neighbors are the integers k, and no bound applies.
        if k_first is None or k_last is None or wraps:
            raise ValueError("infinitely many integer neighbors of inf in this arc")
        k_lo, k_hi = k_first, k_last
    else:
        # |v + k·q| ≤ bound pins k to a finite window.
        k_lo, k_hi = -((max_denominator + v) // q), (max_denominator - v) // q
    k_from = k_lo if k_first is None else max(k_first, k_lo)
    k_to = k_hi if k_last is None else min(k_last, k_hi)
    # An arc through s runs from k_from to the end of the window, then on
    # from the start of the window to k_to.
    ranges = [range(k_from, k_hi + 1), range(k_lo, k_to + 1)] if wraps else [range(k_from, k_to + 1)]
    # Up to k = turn − 1 the vector has v + k·q ≤ 0 and is negated to give
    # its slope; q = 1 puts ∞ there, as the vector (−1, 0).
    turn = -v // q + 1 if q else k_lo
    found = []
    for ks in ranges:
        split = min(max(turn, ks.start), ks.stop)
        found += [Slope(-u - k * p, -v - k * q) for k in range(ks.start, split)]
        found += [Slope(u + k * p, v + k * q) for k in range(split, ks.stop)]
    return found if clockwise else found[::-1]


@dataclass(frozen=True)
class UnimodularMatrix:
    """Integer 2×2 matrix with determinant ±1, acting on slope vectors."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if abs(self.det) != 1:
            raise ValueError(f"matrix {self.entries} has determinant {self.det}")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls) -> UnimodularMatrix:
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, k: int) -> UnimodularMatrix:
        """[[1, k], [0, 1]]: adds k to finite slopes and fixes ∞."""
        return cls(1, k, 0, 1)

    def __matmul__(self, other: UnimodularMatrix) -> UnimodularMatrix:
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


def apply_unimodular(m: UnimodularMatrix, s: Slope) -> Slope:
    """Image of s under the projective action of m."""
    return reduce(m.a * s.num + m.b * s.den, m.c * s.num + m.d * s.den)
