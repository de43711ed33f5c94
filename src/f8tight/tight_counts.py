"""Counting tight structures on thickened tori and solid tori.

The combinatorial engine: a basic slice (a T²×I layer whose two boundary
slopes are Farey-adjacent) carries exactly two tight structures, a sign.
A solid torus factors into a chain of basic slices along the monotone
Farey staircase from its (normalized) boundary slope down to −1, and its tight
structures correspond to sign sequences along the chain modulo shuffling
signs within each continued-fraction block.  The resulting count is the
block product |(r0+1)···(r_{n-1}+1)·rn| of the solid-torus-form expansion,
and everything here is cross-checkable against that closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cfrac import Form, NegContinuedFraction, cfrac_matrix, neg_cfrac, solid_torus_product
from .slope import (
    INFINITY,
    Slope,
    UnimodularMatrix,
    apply_unimodular,
    basis_completion,
    det,
    is_farey_adjacent,
)
from .torus_dynamics import AttachSide, BypassMove, bypass_step

MINUS_ONE = Slope(-1, 1)

NEGATIVE = "-"
POSITIVE = "+"


@dataclass(frozen=True)
class BasicSliceChain:
    """A Farey path of basic slices with its block partition.

    `blocks` lists the sizes of consecutive runs of edges; edges in one run
    share a level of the continued-fraction staircase, which is what makes
    their signs interchangeable.
    """

    slope_path: tuple[Slope, ...]
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.slope_path:
            raise ValueError("chain needs at least one slope")
        for a, b in zip(self.slope_path, self.slope_path[1:]):
            if not is_farey_adjacent(a, b):
                raise ValueError(f"chain slopes {a}, {b} are not Farey-adjacent")
        if any(size < 1 for size in self.blocks):
            raise ValueError("block sizes must be positive")
        if sum(self.blocks) != self.edge_count:
            raise ValueError("blocks must partition the chain edges")

    @property
    def edge_count(self) -> int:
        return len(self.slope_path) - 1


@dataclass(frozen=True)
class SignSequence:
    """One sign per chain edge, canonically sorted within each block."""

    signs: tuple[str, ...]

    def __post_init__(self) -> None:
        if any(sign not in (NEGATIVE, POSITIVE) for sign in self.signs):
            raise ValueError(f"signs must be drawn from {NEGATIVE}/{POSITIVE}")


def format_sign_sequence(seq: SignSequence, chain: BasicSliceChain) -> str:
    """Serialize with `|` between blocks, e.g. ``-+|--``."""
    parts = []
    cursor = 0
    for size in chain.blocks:
        parts.append("".join(seq.signs[cursor:cursor + size]))
        cursor += size
    return "|".join(parts)


@dataclass(frozen=True)
class SolidTorusSpec:
    """A solid torus given by meridian and dividing slope, plus the recorded
    coordinate change taking the meridian to ∞ and the dividing slope into
    [−1, 0)."""

    meridian: Slope
    dividing: Slope
    normalization: UnimodularMatrix
    k: int

    def __post_init__(self) -> None:
        if self.meridian == self.dividing:
            raise ValueError("meridian and dividing slope must differ")
        if apply_unimodular(self.normalization, self.meridian) != INFINITY:
            raise ValueError("normalization must send the meridian to inf")
        image = apply_unimodular(self.normalization, self.dividing)
        if not Fraction(-1) <= image.as_fraction() < 0:
            raise ValueError(f"normalized dividing slope {image} outside [-1, 0)")

    @property
    def normalized_dividing(self) -> Slope:
        return apply_unimodular(self.normalization, self.dividing)


def solid_torus_spec(meridian: Slope, dividing: Slope) -> SolidTorusSpec:
    """Build a SolidTorusSpec, computing the canonical normalization.

    First a determinant-one matrix sends the meridian to ∞, then the unique
    integer translation k drops the dividing image into [−1, 0).
    """
    if meridian == dividing:
        raise ValueError("meridian and dividing slope must differ")
    u, v = basis_completion(meridian)
    base = UnimodularMatrix(v, -u, -meridian.den, meridian.num)
    image = apply_unimodular(base, dividing).as_fraction()
    k = -(math.floor(image) + 1)
    return SolidTorusSpec(meridian, dividing, UnimodularMatrix.translation(k) @ base, k)


def _greedy_staircase(s1: Slope, s0: Slope, side: AttachSide, cap: int) -> list[Slope]:
    """Maximal-jump Farey path from s1 to s0, sweeping one fixed way."""
    path = [s1]
    while path[-1] != s0:
        if len(path) > cap:
            raise RuntimeError(f"no Farey staircase from {s1} to {s0} within {cap} moves")
        path.append(bypass_step(path[-1], BypassMove(side, s0)))
    return path


def _block_sizes(path: list[Slope]) -> tuple[int, ...]:
    """Partition the edges of a geodesic into continued-fraction blocks.

    Consecutive edges share a block exactly when the outer two slopes of
    the triple have determinant ±2, i.e. the middle slope is a pivot both
    edges fan around.
    """
    edges = len(path) - 1
    if edges == 0:
        return ()
    sizes = [1]
    for i in range(1, edges):
        if abs(det(path[i - 1], path[i + 1])) == 2:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return tuple(sizes)


def descent_path(s0: Slope, s1: Slope) -> BasicSliceChain:
    """Shortest Farey path from s1 to s0 through the interval they bound.

    The path sweeps monotonically from s1 toward s0 with maximal jumps;
    that staircase is the geodesic among paths whose slopes stay between
    the endpoints, and its blocks mirror the continued-fraction digits.
    (The unconstrained Farey graph can offer shortcuts through slopes
    outside the interval, e.g. −1/5, 0, −1, but such a path does not
    factor the layered torus and would spoil the block counts.)
    """
    if s0 == s1:
        raise ValueError("descent endpoints must differ")
    if s0.is_infinity or s1.is_infinity:
        raise ValueError("descent endpoints must be finite")
    side = AttachSide.BACK if s0.as_fraction() < s1.as_fraction() else AttachSide.FRONT
    path = _greedy_staircase(s1, s0, side, 100_000)
    return BasicSliceChain(tuple(path), _block_sizes(path))


def enumerate_sign_sequences(chain: BasicSliceChain) -> list[SignSequence]:
    """Canonical sign sequences, one per shuffle class.

    Within a block only the multiset of signs matters, so the canonical
    form puts every − before every +; a block of m edges contributes m+1
    choices and the list has the block-product length.
    """
    per_block = [
        [(NEGATIVE,) * minus + (POSITIVE,) * (size - minus) for minus in range(size, -1, -1)]
        for size in chain.blocks
    ]
    return [
        SignSequence(tuple(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*per_block)
    ]


def induced_chain(spec: SolidTorusSpec) -> BasicSliceChain:
    """Basic-slice chain of the normalized solid torus.

    The geodesic runs from the normalized dividing slope down to −1; when
    the two coincide the torus is a single standard neighborhood and the
    chain has no edges.
    """
    c = spec.normalized_dividing
    if c == MINUS_ONE:
        return BasicSliceChain((c,), ())
    return descent_path(MINUS_ONE, c)


def solid_torus_count(spec: SolidTorusSpec) -> int:
    """Number of tight structures on the solid torus.

    Expands the reciprocal of the normalized dividing slope in solid-torus
    form and takes |(r0+1)···(r_{n-1}+1)·rn|.  Equals the number of
    canonical sign sequences of `induced_chain(spec)`.
    """
    c = spec.normalized_dividing.as_fraction()
    cf = neg_cfrac(1 / c, Form.SOLID_TORUS)
    return solid_torus_product(cf)


def factorization_matrix(c: NegContinuedFraction) -> UnimodularMatrix:
    """Left-to-right product of [[−ri, 1], [−1, 0]] over the digits.

    The first column, read as a slope vector, is the value of the
    expansion; the determinant is always +1.  A run of k digits −2 is the
    single factor [[k+1, k], [−k, 1−k]].
    """
    if c.form is not Form.STANDARD:
        raise ValueError("factorization_matrix expects the standard form")
    return UnimodularMatrix(*cfrac_matrix(c))
