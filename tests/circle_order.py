"""Circle order of slopes, read off the circle cut open at infinity.

The library keeps a slope as its integer pair; `value` reads a finite one
as a Fraction, and `act` moves a slope by an integer matrix, for the
oracles here and in the tests.

The oracle linearizes the circle of slopes by cutting it at infinity:
finite slopes in ascending order, infinity last.  Clockwise traversal is
ascending order in that cut, wrapping around.  The bypass and window tests
check the library against this picture, never against the determinant
sweep under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from f8tight.slope import INFINITY, Slope, det, reduce


def value(s: Slope) -> Fraction:
    """The finite slope s as a Fraction; ∞ has no finite value."""
    if s.is_infinity:
        raise ValueError("infinity has no finite value")
    return Fraction(s.num, s.den)


def act(m: tuple[int, int, int, int], s: Slope) -> Slope:
    """Image of s under the projective action of the integer matrix m = (a, b, c, d)."""
    a, b, c, d = m
    return reduce(a * s.num + b * s.den, c * s.num + d * s.den)


class Arc(NamedTuple):
    """The arc from `start` to `stop`, clockwise or not; it holds `stop`
    and not `start`."""

    start: Slope
    stop: Slope
    clockwise: bool


def _key(s: Slope) -> tuple[int, Fraction]:
    # cut the circle at infinity: finite ascending, infinity on top
    if s.is_infinity:
        return (1, Fraction(0))
    return (0, value(s))


def oracle_orientation(a: Slope, b: Slope, c: Slope) -> int:
    """Clockwise (+1) iff the three keys are a cyclic rotation of sorted order."""
    keys = [_key(a), _key(b), _key(c)]
    target = sorted(keys)
    for shift in range(3):
        if keys[shift:] + keys[:shift] == target:
            return 1
    return -1


def oracle_in_arc(x: Slope, arc: Arc) -> bool:
    if x == arc.start or x == arc.stop:
        return x == arc.stop
    return oracle_orientation(arc.start, x, arc.stop) == (1 if arc.clockwise else -1)


def oracle_neighbors(s: Slope, arc: Arc, bound: int) -> list[Slope]:
    """Every Farey neighbor of the finite slope s on the arc with
    denominator ≤ bound, in order along the arc."""
    # a neighbor p/q of s has |p/q − s| = 1/(q·den(s)) ≤ 1, so for each
    # denominator q only the numerators within q of q·s are candidates
    x = value(s)
    grid = [INFINITY] + [
        Slope(p, q)
        for q in range(1, bound + 1)
        for p in range(math.floor(q * (x - 1)), math.ceil(q * (x + 1)) + 1)
        if math.gcd(abs(p), q) == 1
    ]
    cands = [t for t in grid if abs(det(s, t)) == 1 and oracle_in_arc(t, arc)]
    ranked = sorted({_key(c) for c in cands} | {_key(arc.start)})
    anchor = ranked.index(_key(arc.start))

    def rank(c: Slope) -> int:
        d = ranked.index(_key(c)) - anchor
        if not arc.clockwise:
            d = -d
        return d % len(ranked)

    return sorted(cands, key=rank)
