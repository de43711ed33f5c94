"""Integer oracles for checking f8tight's outputs.

Nothing here imports f8tight.  Rationals are plain (numerator, denominator)
pairs of ints with a positive denominator, and infinity is (1, 0).  Every
count is re-derived from an integer floor-greedy expansion (``p // q``, no
``Fraction``), so the checks do not share a code path with the program.
"""

from __future__ import annotations

import math
from fractions import Fraction

INFINITY = (1, 0)
MINUS_ONE = (-1, 1)
MINUS_THREE = (-3, 1)


def reduced(p: int, q: int) -> tuple[int, int]:
    """p/q in lowest terms with q ≥ 0; any p/0 is infinity."""
    if q == 0:
        if p == 0:
            raise ValueError("0/0 is not a slope")
        return INFINITY
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    return p // g, q // g


def slope_text(s: tuple[int, int]) -> str:
    """The command line's spelling of a slope: ``p/q``, ``n`` or ``inf``."""
    p, q = s
    if q == 0:
        return "inf"
    return str(p) if q == 1 else f"{p}/{q}"


def expand(p: int, q: int) -> list[int]:
    """Floor-greedy negative continued fraction digits of p/q < 0."""
    if q <= 0 or p >= 0:
        raise ValueError(f"expansion needs a negative rational, got {p}/{q}")
    digits = []
    while True:
        d = p // q
        digits.append(d)
        rest = p - d * q  # (p/q − d)·q, in [0, q)
        if rest == 0:
            return digits
        p, q = -q, rest  # −1/(rest/q)


def evaluate(digits: list[int]) -> tuple[int, int]:
    """The reduced value d0 − 1/(d1 − 1/(… − 1/dn)) of a digit list."""
    num, den = digits[-1], 1
    for d in reversed(digits[:-1]):
        num, den = d * num - den, num
    return reduced(num, den)


def standard_product(digits: list[int]) -> int:
    """|d0 · (d1+1) ⋯ (dn+1)|."""
    return abs(digits[0]) * math.prod(abs(d + 1) for d in digits[1:])


def solid_torus_product(digits: list[int]) -> int:
    """|(d0+1) ⋯ (d_{n−1}+1) · dn|."""
    return abs(digits[-1]) * math.prod(abs(d + 1) for d in digits[:-1])


def phi(p: int, q: int) -> int:
    """Φ(p/q): slide into (0, 1] as t, then the standard product of −1/t."""
    ceil = -((-p) // q)
    t_num = p - ceil * q + q  # t = t_num/q ∈ (0, 1]
    if t_num == q:
        return 1
    return standard_product(expand(-q, t_num))


def psi(p: int, q: int) -> int:
    """Ψ(p/q) = Φ(−1/(r+3)) for r < −3, else 0."""
    if p >= -3 * q:
        return 0
    return phi(q, -(p + 3 * q))


def is_toroidal(p: int, q: int) -> bool:
    return q == 1 and p in (0, 4, -4)


def in_classified_range(p: int, q: int) -> bool:
    """r ∈ [1, 4) ∪ [5, ∞) ∪ (−∞, −4) ∪ [−3, 0)."""
    return q <= p < 4 * q or p >= 5 * q or p < -4 * q or -3 * q <= p < 0


def geometry(p: int, q: int) -> str:
    if is_toroidal(p, q):
        return "Toroidal"
    if q == 1 and abs(p) <= 3:
        return "SmallSeifert"
    return "Hyperbolic"


def tight_count(p: int, q: int) -> tuple[str, int | None]:
    """(kind, value): 2Φ for r > 0, Φ + Ψ for r < 0, exact on the range."""
    if is_toroidal(p, q):
        return "infinite", None
    value = 2 * phi(p, q) if p > 0 else phi(p, q) + psi(p, q)
    return ("finite" if in_classified_range(p, q) else "lower_bound"), value


def budgets(p: int, q: int) -> tuple[int, ...]:
    """Stabilization budgets |d0+1|, |d1+2|, … of contact p/q-surgery, p/q < 0."""
    digits = expand(p, q)
    return (abs(digits[0] + 1), *(abs(d + 2) for d in digits[1:]))


def choice_count(p: int, q: int) -> int:
    return math.prod(b + 1 for b in budgets(p, q))


def tag_tallies(p: int, q: int) -> tuple[int, int, int]:
    """Closed-form (universally tight, candidate pair, Stein) tallies of a finite row.

    UT/candidate is (1, 0) on negative integers, (2, 0) on positive integers,
    (2, 0) on negative non-integers and (0, 4) on positive non-integers; the
    Stein tally is the whole count for r ≥ −9 and Ψ(r) below.
    """
    if q == 1:
        ut = (1, 0) if p < 0 else (2, 0)
    else:
        ut = (2, 0) if p < 0 else (0, 4)
    _, count = tight_count(p, q)
    stein = count if p >= -9 * q else psi(p, q)
    return ut[0], ut[1], stein


def family_layout(p: int, q: int) -> dict[str, tuple[int, tuple[int, ...], int]]:
    """Per family: (number of structures, stabilization budgets, scale).

    PositiveR evaluations carry one extra leading ±1 (the sign on L′) in
    front of the budgeted components.
    """
    if p > 0:
        chain = () if (p, q) == (1, 1) else budgets(-q, p - q)  # 1/(1 − r)
        return {"PositiveR": (2 * phi(p, q), chain, 1)}
    layout = {}
    if p < -4 * q:
        layout["PsiStd"] = (psi(p, q), budgets(p + 3 * q, q), 1)  # r + 3
    n = p // q
    if q == 1:
        layout["PhiOvertwisted"] = (1, (0,), abs(p))
    else:
        layout["PhiOvertwisted"] = (phi(p, q), budgets(-q, p - n * q), abs(n))  # −1/(r − n)
    return layout


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a·x + b·y = g = ±gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return a, x0, y0


def unimodular_to_infinity(meridian: tuple[int, int]) -> tuple[int, int, int, int]:
    """A determinant-one matrix (a, b, c, d) sending the meridian vector to (1, 0)."""
    m1, m2 = meridian
    g, x, y = _egcd(m1, m2)
    if g == -1:
        x, y = -x, -y
    if g not in (1, -1):
        raise ValueError(f"meridian {meridian} is not reduced")
    # m1·x + m2·y = 1, so [[x, y], [−m2, m1]] has determinant 1.
    return x, y, -m2, m1


def normalized_dividing(meridian: tuple[int, int], dividing: tuple[int, int]) -> tuple[int, int]:
    """The dividing slope once the meridian is sent to ∞, translated into [−1, 0)."""
    a, b, c, d = unimodular_to_infinity(meridian)
    x, y = reduced(a * dividing[0] + b * dividing[1], c * dividing[0] + d * dividing[1])
    if y == 0:
        raise ValueError("meridian and dividing slope must differ")
    x -= (x // y + 1) * y
    return x, y


def solid_torus_count(meridian: tuple[int, int], dividing: tuple[int, int]) -> int:
    """|(r0+1)⋯(r_{n−1}+1)·rn| for the expansion of 1/c, c the normalized slope."""
    x, y = normalized_dividing(meridian, dividing)
    return solid_torus_product(expand(-y, -x))


def dividing_from_normalized(meridian: tuple[int, int], c: tuple[int, int]) -> tuple[int, int]:
    """Pull a normalized slope back to the meridian's coordinates."""
    a, b, cc, d = unimodular_to_infinity(meridian)
    # inverse of a determinant-one matrix [[a, b], [cc, d]]
    return reduced(d * c[0] - b * c[1], -cc * c[0] + a * c[1])


def window(r: tuple[int, int], bound: int) -> list[tuple[int, int]]:
    """Farey neighbors of r above r with denominator ≤ bound, then ∞ if adjacent.

    For each denominator q it solves p·q_r − q·p_r = ±1 for p and keeps the
    solutions on the arc running clockwise from r to ∞, i.e. above r.
    """
    p_r, q_r = r
    found = []
    for q in range(1, bound + 1):
        for sign in (1, -1):
            num = sign + q * p_r
            if num % q_r == 0 and num > p_r * q:  # p = num/q_r, so p/q > p_r/q_r
                found.append((num // q_r, q))
    found.sort(key=lambda s: Fraction(*s))
    if q_r == 1:
        found.append(INFINITY)
    return found


def is_farey_adjacent(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return abs(a[0] * b[1] - a[1] * b[0]) == 1


def in_stuck_family(s: tuple[int, int]) -> bool:
    """−(4n−1)/n, 1/n, (4n+1)/n: the slopes with no boundary-parallel bypass."""
    p, q = s
    return q > 0 and (p == 1 or p + 4 * q == 1 or p - 4 * q == 1)
