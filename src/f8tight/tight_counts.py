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
from typing import NamedTuple

from .cfrac import Form, neg_cfrac, solid_torus_product
from .slope import (
    INFINITY,
    Slope,
    UnimodularMatrix,
    apply_unimodular,
    basis_completion,
    det,
)
from .torus_dynamics import AttachSide, BypassMove, bypass_step

MINUS_ONE = Slope(-1, 1)

# Longest chain `descent_path` and `induced_chain` build: the edges of a
# chain are cheap to count, but a caller that spells `slope_path` out pays
# one slope per edge.
CHAIN_EDGE_LIMIT = 100_000
# Most signs `enumerate_sign_sequences` writes out: classes × edges.
SIGN_LIMIT = 10_000_000

NEGATIVE = "-"
POSITIVE = "+"


class SliceBlock(NamedTuple):
    """`size` basic slices whose slopes are start + k·step, k = 0, …, size.

    Consecutive slopes of one continued-fraction block differ by the same
    integer vector, so a block is that arithmetic progression of vectors.
    """

    start: Slope
    step: tuple[int, int]
    size: int

    @property
    def end(self) -> Slope:
        (dp, dq), k = self.step, self.size
        return Slope(self.start.num + k * dp, self.start.den + k * dq)


@dataclass(frozen=True)
class BasicSliceChain:
    """A Farey path of basic slices, stored as its continued-fraction blocks.

    Edges in one block share a level of the continued-fraction staircase,
    which is what makes their signs interchangeable.  `runs` holds one
    `SliceBlock` per block, so a chain costs O(blocks) however many edges
    it has; `slope_path` spells the slopes out on demand and `blocks` lists
    the block sizes.
    """

    start: Slope
    runs: tuple[SliceBlock, ...] = ()

    def __post_init__(self) -> None:
        at = self.start
        for run in self.runs:
            if run.size < 1:
                raise ValueError("block sizes must be positive")
            if run.start != at:
                raise ValueError(f"block starts at {run.start}, but the chain stands at {at}")
            dp, dq = run.step
            if abs(at.num * dq - at.den * dp) != 1:
                raise ValueError(f"step {run.step} from {at} is not a Farey edge")
            # `end` is a Slope, so it refuses a negative denominator or a
            # non-canonical ∞; the denominators in between are then positive.
            at = run.end

    @property
    def blocks(self) -> tuple[int, ...]:
        return tuple(run.size for run in self.runs)

    @property
    def edge_count(self) -> int:
        return sum(run.size for run in self.runs)

    @property
    def slope_path(self) -> tuple[Slope, ...]:
        path = [self.start]
        for run in self.runs:
            p, q = run.start.num, run.start.den
            dp, dq = run.step
            path += [Slope(p + k * dp, q + k * dq) for k in range(1, run.size + 1)]
        return tuple(path)


@dataclass(frozen=True)
class SignSequence:
    """One sign per chain edge, canonically sorted within each block."""

    signs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not {NEGATIVE, POSITIVE}.issuperset(self.signs):
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


def _staircase(s1: Slope, s0: Slope) -> tuple[SliceBlock, ...]:
    """Blocks of the maximal-jump Farey path from s1 to s0, one move per block.

    From a slope s, a bypass move toward s0 gives the block's first edge
    and its step w.  The greedy move keeps repeating w for as long as the
    path stays short of s0, and the vectors s + k·w reach s0 at the real
    k = |det(s, s0)| / |det(w, s0)|, so the block has the integer part of
    that many edges.
    """
    side = AttachSide.BACK if s0.as_fraction() < s1.as_fraction() else AttachSide.FRONT
    runs = []
    at = s1
    while at != s0:
        nxt = bypass_step(at, BypassMove(side, s0))
        dp, dq = nxt.num - at.num, nxt.den - at.den
        run = SliceBlock(at, (dp, dq), abs(det(at, s0)) // abs(dp * s0.den - dq * s0.num))
        runs.append(run)
        at = run.end
    return tuple(runs)


def _within_limit(chain: BasicSliceChain, name: str) -> BasicSliceChain:
    if chain.edge_count > CHAIN_EDGE_LIMIT:
        raise RuntimeError(f"{name} has {chain.edge_count} edges; chains are limited to {CHAIN_EDGE_LIMIT}")
    return chain


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
        raise ValueError(f"descent endpoints must differ, got {s0} twice")
    if s0.is_infinity or s1.is_infinity:
        raise ValueError(f"descent endpoints must be finite, got {s0} and {s1}")
    return _within_limit(BasicSliceChain(s1, _staircase(s1, s0)), f"the Farey staircase from {s1} to {s0}")


def enumerate_sign_sequences(chain: BasicSliceChain) -> list[SignSequence]:
    """Canonical sign sequences, one per shuffle class.

    Within a block only the multiset of signs matters, so the canonical
    form puts every − before every +; a block of m edges contributes m+1
    choices and the list has the block-product length.  A list of more
    than `SIGN_LIMIT` signs in all is refused before any is built.
    """
    count = math.prod(size + 1 for size in chain.blocks)
    edges = chain.edge_count
    if count * edges > SIGN_LIMIT:
        raise ValueError(
            f"a chain of {edges} edges has {count} sign-sequence classes; "
            f"listing them takes {count * edges} signs, more than {SIGN_LIMIT}"
        )
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
    chain has no edges.  Its block sizes are the solid-torus digits of the
    reciprocal read backwards: |rn| − 1, then |ri| − 2, zeros dropped.
    """
    c = spec.normalized_dividing
    runs = () if c == MINUS_ONE else _staircase(c, MINUS_ONE)
    return _within_limit(
        BasicSliceChain(c, runs), f"the chain of dividing slope {spec.dividing} (meridian {spec.meridian})"
    )


def solid_torus_count(spec: SolidTorusSpec) -> int:
    """Number of tight structures on the solid torus.

    Expands the reciprocal of the normalized dividing slope in solid-torus
    form and takes |(r0+1)···(r_{n-1}+1)·rn|.  Equals the number of
    canonical sign sequences of `induced_chain(spec)`.
    """
    c = spec.normalized_dividing.as_fraction()
    cf = neg_cfrac(1 / c, Form.SOLID_TORUS)
    return solid_torus_product(cf)
