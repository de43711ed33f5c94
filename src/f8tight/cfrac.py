"""Negative continued fractions and the two tight-count functions built on them.

A negative continued fraction expands a rational as

    x = r0 - 1/(r1 - 1/(... - 1/rn))

with all ri integers.  Two normal forms appear here, differing only in
which end carries the relaxed digit:

* STANDARD:     r0 ≤ −1 and ri ≤ −2 for i ≥ 1; defined for every rational
  x < 0 and unique there (floor-greedy expansion).
* SOLID_TORUS:  ri ≤ −2 for i < n and rn ≤ −1; defined for x ≤ −1.  This
  shape is not unique on its own ([-3, -1] and [-2] both evaluate to −2),
  so the canonical expansion is again floor-greedy, which on x ≤ −1
  produces the same digit string as STANDARD.

Reversing a digit list swaps the two shapes, and the associated digit
products |r0(r1+1)···(rn+1)| and |(r0+1)···(r_{n-1}+1)rn| swap with them.

Digit strings are stored as (digit, run) blocks.  A run of −2s is one
partial quotient of the regular continued fraction (the Hirzebruch–Jung
duality), it contributes a factor 1 to either product, and the expansion
emits it with one integer division; so expanding and counting cost
O(number of regular continued fraction terms), however many digits the
string has.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, groupby, repeat
from operator import itemgetter


class Form(Enum):
    STANDARD = "std"
    SOLID_TORUS = "st"


Block = tuple[int, int]  # (digit, run): the digit repeated run times


def _blocks_valid(blocks: tuple[Block, ...], form: Form) -> bool:
    """Digit-wise validity of a run-length string, one check per block."""
    if not blocks:
        return False
    # The relaxed end digit may be −1, but only once: a run of −1 would put
    # a −1 where the form demands ≤ −2.
    (end, end_run), inner = (blocks[0], blocks[1:]) if form is Form.STANDARD else (blocks[-1], blocks[:-1])
    end_ok = end <= -2 or (end == -1 and end_run == 1)
    return end_ok and all(d <= -2 for d, _ in inner)


def _merged(blocks: Iterable[Block]) -> tuple[Block, ...]:
    """Blocks with adjacent equal digits joined, so equal strings store equally."""
    return tuple((d, sum(run for _, run in group)) for d, group in groupby(blocks, key=itemgetter(0)))


@dataclass(frozen=True, init=False)
class NegContinuedFraction:
    """A digit string together with the normal form it satisfies.

    The string is stored as maximal (digit, run) blocks, so a run of a
    million −2s is one block; `digits` spells it out on demand.
    """

    blocks: tuple[Block, ...]
    form: Form

    def __init__(self, digits: Iterable[int], form: Form) -> None:
        self._set(_merged((d, 1) for d in digits), form)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Block], form: Form) -> NegContinuedFraction:
        blocks = tuple(blocks)
        if any(run < 1 for _, run in blocks):
            raise ValueError(f"blocks {list(blocks)} need positive runs")
        cf = cls.__new__(cls)
        cf._set(_merged(blocks), form)
        return cf

    def _set(self, blocks: tuple[Block, ...], form: Form) -> None:
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "form", form)
        if not _blocks_valid(blocks, form):
            raise ValueError(f"digits {list(self.digits)} violate form {form.value}")

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(repeat(d, run) for d, run in self.blocks))

    def __str__(self) -> str:
        body = ",".join(map(str, self.digits))
        return f"[{body}]:{self.form.value}"


def neg_cfrac(x: Fraction | int, form: Form = Form.STANDARD) -> NegContinuedFraction:
    """Floor-greedy expansion of x in the requested normal form.

    STANDARD accepts any rational x < 0; SOLID_TORUS needs x ≤ −1.  On the
    shared domain the digit strings coincide, so the form only widens or
    narrows what inputs are legal.

    Runs on the integers x = p/q.  A digit d = p // q leaves x − d =
    (p % q)/q, and the expansion goes on at −q/(p % q).  While x lies in
    [−2, −1) every digit is −2, and the whole run is one division: with
    a = q and b = −(p + q), the run has length a // b, and if a % b ≠ 0
    the expansion goes on at −(b + a % b)/(a % b).  So the work grows
    with the number of regular continued fraction terms of x, not with the
    number of digits.
    """
    x = Fraction(x)
    if form is Form.STANDARD:
        if x >= 0:
            raise ValueError(f"standard expansion needs x < 0, got {x}")
    else:
        if x > -1:
            raise ValueError(f"solid-torus expansion needs x <= -1, got {x}")
    p, q = x.numerator, x.denominator
    blocks: list[Block] = []
    while True:
        if -2 * q <= p < -q:
            b = -(p + q)
            run, rest = divmod(q, b)
            blocks.append((-2, run))
            if rest == 0:
                break
            p, q = -(b + rest), rest
        else:
            d, rest = divmod(p, q)
            blocks.append((d, 1))  # rest ∈ (0, q) keeps later digits ≤ −2
            if rest == 0:
                break
            p, q = -q, rest
    return NegContinuedFraction.from_blocks(blocks, form)


def _run_matrix(d: int, run: int) -> tuple[int, int, int, int]:
    """[[−d, 1], [−1, 0]] to the power run, in closed form for d = −2."""
    if d == -2:
        return (run + 1, run, -run, 1 - run)
    a, b, c, e = 1, 0, 0, 1
    for _ in range(run):
        a, b, c, e = -d * a - b, a, -d * c - e, c
    return (a, b, c, e)


def cfrac_matrix(cf: NegContinuedFraction) -> tuple[int, int, int, int]:
    """Entries (a, b, c, d) of the left-to-right product of [[−ri, 1], [−1, 0]].

    The first column (a, c) is a vector of the value a/c; the determinant
    is +1.  One factor per block.
    """
    a, b, c, e = 1, 0, 0, 1
    for d, run in cf.blocks:
        w, x, y, z = _run_matrix(d, run)
        a, b, c, e = a * w + b * y, a * x + b * z, c * w + e * y, c * x + e * z
    return (a, b, c, e)


def eval_cfrac(cf: NegContinuedFraction) -> Fraction:
    """Exact rational value r0 − 1/(r1 − 1/(… − 1/rn))."""
    a, _, c, _ = cfrac_matrix(cf)
    return Fraction(a, c)


def reverse_cfrac(cf: NegContinuedFraction) -> NegContinuedFraction:
    """Literal digit reversal, landing in the opposite normal form."""
    other = Form.SOLID_TORUS if cf.form is Form.STANDARD else Form.STANDARD
    return NegContinuedFraction.from_blocks(reversed(cf.blocks), other)


def _shifted_product(blocks: Iterable[Block]) -> int:
    """Π |ri + 1| over the digits of the blocks; a −2 run contributes 1."""
    return math.prod(abs(d + 1) ** run for d, run in blocks if d != -2)


def standard_product(cf: NegContinuedFraction) -> int:
    """|r0 · (r1+1) · … · (rn+1)| for a STANDARD-form fraction."""
    if cf.form is not Form.STANDARD:
        raise ValueError("standard_product expects the standard form")
    (head, run), *rest = cf.blocks
    return abs(head) * abs(head + 1) ** (run - 1) * _shifted_product(rest)


def solid_torus_product(cf: NegContinuedFraction) -> int:
    """|(r0+1) · … · (r_{n-1}+1) · rn| for a SOLID_TORUS-form fraction."""
    if cf.form is not Form.SOLID_TORUS:
        raise ValueError("solid_torus_product expects the solid-torus form")
    *rest, (last, run) = cf.blocks
    return abs(last) * abs(last + 1) ** (run - 1) * _shifted_product(rest)


def phi(r: Fraction | int) -> int:
    """Per-unit-interval structure count: 1 on integers, ≥ 2 elsewhere.

    Invariant under r ↦ r + 1: it is the standard product of the
    expansion of −1/t, t the representative of r mod 1 in (0, 1].  On
    integers t = 1, whose expansion [−1] has product 1, so nothing is
    expanded there.
    """
    r = Fraction(r)
    if r.denominator == 1:
        return 1
    t = r - math.ceil(r) + 1
    return standard_product(neg_cfrac(-1 / t, Form.STANDARD))


def psi(r: Fraction | int) -> int:
    """Companion count supported on r < −3: ψ(r) = φ(−1/(r+3)), else 0.

    The standard product of the expansion of r + 3 equals φ(−1/(r+3))
    (expansions of −1/s and −1/(s+1) share their product for s > 0), so
    ψ reads it directly.  On integers n ≤ −4 this is |n| − 3.
    """
    r = Fraction(r)
    if r >= -3:
        return 0
    return standard_product(neg_cfrac(r + 3, Form.STANDARD))
