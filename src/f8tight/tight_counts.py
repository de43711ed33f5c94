"""Counting tight structures on thickened tori and solid tori.

The combinatorial engine: a basic slice (a T²×I layer whose two boundary
slopes are Farey-adjacent) carries exactly two tight structures, a sign.
A solid torus factors into a chain of basic slices along the monotone
Farey staircase from its (normalized) boundary slope down to −1, one
`farey_run` per continued-fraction block, and its tight structures
correspond to sign sequences along the chain modulo shuffling signs within
each block.  A class is fixed by its count of − signs in each block, so
the classes are the points of the mixed-radix lattice Π(block + 1), the
stabilization lattice `classification.Structures` lists read through
m = (b − rot)/2.  The resulting count is the block product
|(r0+1)···(r_{n-1}+1)·rn| of the solid-torus-form expansion, and
everything here is cross-checkable against that closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .cfrac import Form, neg_cfrac, solid_torus_product
from .slope import SliceBlock, Slope, basis_completion, det, walk_end
from .torus_dynamics import AttachSide, farey_run

MINUS_ONE = Slope(-1, 1)

# Longest chain `descent_path` and `induced_chain` build: the edges of a
# chain are cheap to count, but a caller that spells `slope_path` out pays
# one slope per edge.
CHAIN_EDGE_LIMIT = 100_000
# Most signs `enumerate_sign_sequences` writes out: classes × edges.
SIGN_LIMIT = 10_000_000


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
        walk_end(self.start, self.runs)

    @property
    def blocks(self) -> tuple[int, ...]:
        return tuple(run.size for run in self.runs)

    @property
    def edge_count(self) -> int:
        return sum(run.size for run in self.runs)

    @property
    def slope_path(self) -> tuple[Slope, ...]:
        return (self.start, *(s for run in self.runs for s in run.slopes()))


class SignSequence(NamedTuple):
    """One shuffle class of signs on a chain: the number of − signs in each block.

    `minus[j]` lies in 0, …, `blocks[j]`; `signs` spells out the canonical
    form, every − before every + in each block, one sign per edge.
    """

    blocks: tuple[int, ...]
    minus: tuple[int, ...]

    @property
    def signs(self) -> tuple[str, ...]:
        return tuple("".join("-" * m + "+" * (b - m) for b, m in zip(self.blocks, self.minus)))


@dataclass(frozen=True)
class SolidTorusSpec:
    """A solid torus given by its meridian and dividing slope."""

    meridian: Slope
    dividing: Slope

    def __post_init__(self) -> None:
        if self.meridian == self.dividing:
            raise ValueError("meridian and dividing slope must differ")

    @property
    def normalized_dividing(self) -> Slope:
        """The dividing slope in the coordinates where the meridian is ∞ and it lies in [−1, 0).

        For the meridian p/q with p·v − q·u = 1 (`basis_completion`), the
        determinant-one matrix [[v, −u], [−q, p]] sends the meridian to ∞
        and the dividing slope to x/y below; a unique integer translation
        then drops x/y into [−1, 0), where it is (x mod y − y)/y.
        """
        u, v = basis_completion(self.meridian)
        d = self.dividing
        x, y = v * d.num - u * d.den, det(self.meridian, d)
        if y < 0:
            x, y = -x, -y
        return Slope(x % y - y, y)


def solid_torus_spec(meridian: Slope, dividing: Slope) -> SolidTorusSpec:
    """The solid torus of the given meridian and dividing slope, which must differ."""
    return SolidTorusSpec(meridian, dividing)


def _staircase(s1: Slope, s0: Slope) -> tuple[SliceBlock, ...]:
    """Blocks of the maximal-jump Farey path from s1 to s0, one `farey_run` per block."""
    # s0 < s1, compared across their positive denominators
    side = AttachSide.BACK if s0.num * s1.den < s1.num * s0.den else AttachSide.FRONT
    runs, at = [], s1
    while at != s0:
        runs.append(farey_run(at, s0, side))
        at = runs[-1].end
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
    """The shuffle classes of signs on the chain, as per-block − counts.

    A block of m edges offers m+1 counts, listed from m down to 0, so the
    list has the block-product length and class k is point k of the
    stabilization lattice on the same blocks.  Spelling every class out
    takes classes × edges signs; a list of more than `SIGN_LIMIT` is
    refused before any class is built.
    """
    blocks = chain.blocks
    count = math.prod(size + 1 for size in blocks)
    edges = chain.edge_count
    if count * edges > SIGN_LIMIT:
        raise ValueError(
            f"a chain of {edges} edges has {count} sign-sequence classes; "
            f"listing them takes {count * edges} signs, more than {SIGN_LIMIT}"
        )
    return [SignSequence(blocks, minus) for minus in itertools.product(*(range(b, -1, -1) for b in blocks))]


def induced_chain(spec: SolidTorusSpec) -> BasicSliceChain:
    """Basic-slice chain of the normalized solid torus.

    The geodesic runs from the normalized dividing slope down to −1; when
    the two coincide the torus is a single standard neighborhood and the
    chain has no edges.  Its block sizes are the solid-torus digits of the
    reciprocal read backwards: |rn| − 1, then |ri| − 2, zeros dropped.
    """
    c = spec.normalized_dividing
    chain = BasicSliceChain(c, _staircase(c, MINUS_ONE))
    return _within_limit(chain, f"the chain of dividing slope {spec.dividing} (meridian {spec.meridian})")


def solid_torus_count(spec: SolidTorusSpec) -> int:
    """Number of tight structures on the solid torus.

    Expands the reciprocal of the normalized dividing slope in solid-torus
    form and takes |(r0+1)···(r_{n-1}+1)·rn|.  Equals the number of
    sign-sequence classes of `induced_chain(spec)`.
    """
    c = spec.normalized_dividing
    cf = neg_cfrac(Fraction(-c.den, -c.num), Form.SOLID_TORUS)
    return solid_torus_product(cf)
