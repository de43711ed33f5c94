"""Classification verdicts for rational surgeries on the figure-eight knot.

M(r) denotes r-surgery.  The coefficients 0 and ±4 give toroidal
manifolds with infinitely many tight structures; ±1, ±2, ±3 are small
Seifert fibered; everything else is hyperbolic.  On the classified range

    R = ([1, 4) ∪ [5, ∞) ∪ (−∞, −4) ∪ [−3, 0)) ∩ Q

the tight structures are counted exactly: 2Φ(r) for positive r and
Φ(r) + Ψ(r) for negative r, and each one is distinguished by a Chern
evaluation certificate produced here.  On the three gap intervals the
same formulas are only a lower bound and no certificates are emitted.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .cfrac import NegContinuedFraction, neg_cfrac, phi, psi, standard_product
from .slope import ZERO, Slope
from .surgery_enum import chain_budgets, phi_family_chain

TOROIDAL_COEFFICIENTS = (ZERO, Slope(4, 1), Slope(-4, 1))


class Family(Enum):
    PSI_STD = "PsiStd"
    PHI_OVERTWISTED = "PhiOvertwisted"
    POSITIVE_R = "PositiveR"


class Geometry(Enum):
    TOROIDAL = "Toroidal"
    SMALL_SEIFERT = "SmallSeifert"
    HYPERBOLIC = "Hyperbolic"


class CountKind(Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    LOWER_BOUND = "lower_bound"


class SteinTag(Enum):
    YES = "Yes"
    UNKNOWN = "Unknown"


class UTTag(Enum):
    YES = "Yes"
    NO = "No"
    CANDIDATE_PAIR = "CandidatePair"


@dataclass(frozen=True)
class TightCount:
    kind: CountKind
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind is CountKind.INFINITE:
            if self.value is not None:
                raise ValueError("an infinite count carries no value")
        elif self.value is None or self.value < 0:
            raise ValueError(f"{self.kind.value} count needs a non-negative value")


@dataclass(frozen=True)
class ContactStructureCert:
    """One tight structure: its Chern certificate and fillability tags.

    Within a fixed family and surgery coefficient, structures coincide
    exactly when their evaluation lists do.  The evaluations are the
    rotation numbers of one stabilization choice times `scale`, the
    homology order |n| for the overtwisted-background family and 1 for
    the other two.  Every classified structure is strongly fillable, so
    that tag is not stored; the serializers print it as "Yes".
    """

    family: Family
    evaluations: tuple[int, ...]
    scale: int
    stein: SteinTag
    universally_tight: UTTag

    def __post_init__(self) -> None:
        if self.family is Family.PSI_STD and self.universally_tight is not UTTag.NO:
            raise ValueError("structures in the PsiStd family are never universally tight")


@dataclass(frozen=True)
class ClassificationResult:
    coefficient: Slope
    verdict: Geometry
    count: TightCount
    structures: tuple[ContactStructureCert, ...]

    def __post_init__(self) -> None:
        r = self.coefficient
        f = finite_coefficient(r)
        if self.count.kind is CountKind.INFINITE and r not in TOROIDAL_COEFFICIENTS:
            raise ValueError("only 0 and ±4 have infinitely many tight structures")
        if self.count.kind is CountKind.LOWER_BOUND and (in_classified_range(f) or r in TOROIDAL_COEFFICIENTS):
            raise ValueError("lower bounds only occur off the classified range")
        if self.count.kind is CountKind.FINITE and self.count.value != len(self.structures):
            raise ValueError("finite count must equal the number of certificates")
        if self.count.kind is not CountKind.FINITE and self.structures:
            raise ValueError("certificates are only attached to finite counts")


def in_classified_range(r: Fraction) -> bool:
    """Membership in R = [1, 4) ∪ [5, ∞) ∪ (−∞, −4) ∪ [−3, 0)."""
    return (1 <= r < 4) or r >= 5 or r < -4 or (-3 <= r < 0)


def finite_coefficient(r: Slope) -> Fraction:
    """The value of r, or a domain error naming r if it is ∞."""
    if r.is_infinity:
        raise ValueError(f"coefficient {r} is not finite: r-surgery needs a finite r")
    return r.as_fraction()


def _least_term_from(x: int, y: int, n: int) -> tuple[int, int]:
    """The least p/q ≥ x/y with 1 ≤ q ≤ n, for x/y in lowest terms.

    When y > n, x/y lies strictly between Farey neighbours a/b < c/d,
    which close in on it a run of mediants at a time (its regular
    continued fraction) until their mediant's denominator b + d passes
    n.  No fraction strictly between them then has a denominator ≤ n.
    """
    if y <= n:
        return x, y
    a, b, c, d = x // y, 1, x // y + 1, 1
    while b + d <= n:
        # c/d down to the last mediant (c + k·a)/(d + k·b) above x/y, ...
        k = min((y * c - x * d - 1) // (x * b - y * a), (n - d) // b)
        c, d = c + k * a, d + k * b
        # ... then a/b up to the last mediant below it.
        k = min((x * b - y * a - 1) // (y * c - x * d), (n - b) // d)
        a, b = a + k * c, b + k * d
    return c, d


def coefficients_between(start: Fraction, stop: Fraction, max_denominator: int) -> list[Slope]:
    """Every slope p/q in [start, stop] with 1 ≤ q ≤ max_denominator, ascending.

    These are the terms of the Farey sequence F_n, n = max_denominator,
    continued over all of Q by integer translation.  Given any a/b with
    c·b − a·d = 1, the Farey neighbours of c/d above it are
    (k·c − a)/(k·d − b), and the next term of F_n is the one with the
    largest denominator ≤ n, k = ⌊(n + b)/d⌋; the previous term c/d then
    serves as the next a/b.  So the sweep starts from the least term
    ≥ start and steps in integers, one term per step.
    """
    n = max_denominator
    if n < 1:
        raise ValueError("denominator bound must be positive")
    c, d = _least_term_from(start.numerator, start.denominator, n)
    b = pow(c, -1, d)  # c·b ≡ 1 (mod d)
    a = (c * b - 1) // d
    x, y = stop.numerator, stop.denominator
    slopes = []
    while c * y <= x * d:
        slopes.append(Slope(c, d))
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return slopes


def geometry_of(r: Slope) -> Geometry:
    """Geometric type of M(r): toroidal, small Seifert fibered, or hyperbolic."""
    finite_coefficient(r)  # refuses ∞ with the domain error
    if r in TOROIDAL_COEFFICIENTS:
        return Geometry.TOROIDAL
    if r.den == 1 and abs(r.num) <= 3:
        return Geometry.SMALL_SEIFERT
    return Geometry.HYPERBOLIC


def tight_count(r: Slope) -> TightCount:
    """How many tight structures M(r) supports.

    Exact on the classified range (2Φ for positive r, Φ + Ψ for negative),
    infinite at the toroidal coefficients, and otherwise a lower bound
    from the same formulas.
    """
    return row_tallies(r).count


@dataclass(frozen=True)
class RowTallies:
    """The count of M(r) and, where it is exact, how its structures are tagged.

    On the classified range `universally_tight`, `candidate_pair` and
    `stein` are the numbers of structures `enumerate_structures` tags
    UTTag.YES, UTTag.CANDIDATE_PAIR and SteinTag.YES; elsewhere they are
    None.
    """

    count: TightCount
    universally_tight: int | None = None
    candidate_pair: int | None = None
    stein: int | None = None


def row_tallies(r: Slope) -> RowTallies:
    """The count and tag tallies of M(r) in closed form, without certificates.

    Φ(r) and Ψ(r) are computed once each.  Only the extremal uniform-sign
    tuples of a chain are universally tight or candidates: two of them
    (all at +b or all at −b) when some budget is nonzero, one otherwise.
    So a negative integer has its one overtwisted-background structure,
    a negative non-integer the two extremal tuples of its overtwisted
    family (whose first budget is at least 1), a positive integer the two
    L′ signs over a chain of zero budgets (1/(1 − r) expands to −1 and
    then −2s), and a positive non-integer 2 × 2 candidates.  The
    standard-background family, Ψ(r) structures, is never universally
    tight and always Stein; the overtwisted-background one is Stein only
    for r ≥ −9.
    """
    f = finite_coefficient(r)
    if r in TOROIDAL_COEFFICIENTS:
        return RowTallies(TightCount(CountKind.INFINITE))
    phi_r, psi_r = phi(f), psi(f)
    total = 2 * phi_r if f > 0 else phi_r + psi_r
    if not in_classified_range(f):
        return RowTallies(TightCount(CountKind.LOWER_BOUND, total))
    if f.denominator == 1:
        ut, candidates = (1, 0) if f < 0 else (2, 0)
    else:
        ut, candidates = (2, 0) if f < 0 else (0, 4)
    return RowTallies(TightCount(CountKind.FINITE, total), ut, candidates, total if f >= -9 else psi_r)


def structure_families(r: Slope) -> list[tuple[Family, NegContinuedFraction | None, int]]:
    """The families of tight structures on M(r) in enumeration order, as (family, chain, scale).

    `chain` is the one expansion the family's budgets are read from, by
    `family_size` and `family_budgets`: r + 3 for the standard-background
    family (r < −3, listed first), −1/t (t the fractional part of r) for
    the overtwisted-background one, 1/(1 − r) for positive r.  It is
    None where nothing is expanded: the integral overtwisted family and
    r = 1, where L is erased.
    """
    f = finite_coefficient(r)
    if not in_classified_range(f):
        raise ValueError(f"coefficient {r} is outside the classified range")
    if f > 0:
        return [(Family.POSITIVE_R, None if f == 1 else neg_cfrac(1 / (1 - f)), 1)]
    families = [(Family.PSI_STD, neg_cfrac(f + 3), 1)] if f < -3 else []
    n = math.floor(f)
    # The two integral candidate surgeries give isotopic structures, so
    # there the family is the single fixed point of the sign involution.
    families.append((Family.PHI_OVERTWISTED, None if f.denominator == 1 else phi_family_chain(f, n), abs(n)))
    return families


def family_size(family: Family, chain: NegContinuedFraction | None) -> int:
    """Π(b + 1) over the chain's budgets, the standard product; ×2 for the two L′ signs."""
    size = 1 if chain is None else standard_product(chain)
    return 2 * size if family is Family.POSITIVE_R else size


def family_budgets(family: Family, chain: NegContinuedFraction | None) -> tuple[int, ...]:
    """The stabilization budgets of the family's chain.

    Without a chain, the integral overtwisted family is one unstabilized
    knot, and r = 1 is L′ alone, which `Structures.blocks` adds.
    """
    if chain is None:
        return () if family is Family.POSITIVE_R else (0,)
    return chain_budgets(chain)


def corner_tag(family: Family, r: Slope) -> UTTag:
    """The tag of a family's uniform-sign tuples, all at −b or all at +b.

    These are the candidates: universally tight for negative r and for
    integral positive r, an unresolved 2-or-4 pair for non-integral
    positive r, and never in the standard-background family, which is
    always virtually overtwisted.  They are the first and last points of
    each block of its lattice (`Structures.blocks`); every other point is
    tagged UTTag.NO.
    """
    if family is Family.PSI_STD:
        return UTTag.NO
    if r.num < 0 or r.den == 1:
        return UTTag.YES
    return UTTag.CANDIDATE_PAIR


def stein_tag(family: Family, f: Fraction) -> SteinTag:
    if family is Family.PSI_STD or f >= -9:
        return SteinTag.YES
    return SteinTag.UNKNOWN


class Structures(Sequence):
    """The tight structures on M(r), listed lazily off their stabilization lattices.

    `len` reads the family sizes off the chain expansions alone; budgets
    are spelled out only when structures are asked for, and no
    certificate is built until then.  The listing goes family by family
    (as `structure_families`), block by block (`blocks`), and within a
    block in `itertools.product` order, the last slot fastest: mixed radix
    (Knuth, TAOCP 4A §7.2.1.1, Algorithm M), so `[i]` reads i's digits.
    """

    def __init__(self, r: Slope) -> None:
        self.coefficient = r
        self.families = structure_families(r)
        self._size = sum(family_size(family, chain) for family, chain, _ in self.families)

    def __len__(self) -> int:
        return self._size

    def blocks(self) -> Iterator[tuple[Family, int, SteinTag, list[range], UTTag]]:
        """The listing in blocks of (family, scale, stein, slots, corner).

        A block's structures are the points of `itertools.product(*slots)`,
        each slot the evaluations scale·rot of one component, rot = −b,
        −b + 2, ..., b.  Its first and last points are its uniform-sign
        tuples (all at −b, all at +b), tagged `corner`; every other point
        is UTTag.NO.  For positive r, L′ (contact −2 on tb = 1, budget 1)
        comes first: each of its signs −1, 1 heads a block of its own over
        the chain's slots, and does not affect universal tightness.
        """
        r = self.coefficient
        for family, chain, scale in self.families:
            slots = [range(-scale * b, scale * b + 1, 2 * scale) for b in family_budgets(family, chain)]
            stein, corner = stein_tag(family, r.as_fraction()), corner_tag(family, r)
            if family is Family.POSITIVE_R:
                for sign in (-1, 1):
                    yield family, scale, stein, [range(sign, sign + 1), *slots], corner
            else:
                yield family, scale, stein, slots, corner

    def __iter__(self) -> Iterator[ContactStructureCert]:
        for family, scale, stein, slots, corner in self.blocks():
            last = math.prod(map(len, slots)) - 1
            for k, evaluations in enumerate(itertools.product(*slots)):
                tag = corner if k in (0, last) else UTTag.NO
                yield ContactStructureCert(family, evaluations, scale, stein, tag)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(self._size))]
        if not -self._size <= i < self._size:
            raise IndexError("structure index out of range")
        k = i % self._size
        for family, scale, stein, slots, corner in self.blocks():
            size = math.prod(map(len, slots))
            if k < size:
                break
            k -= size
        tag = corner if k in (0, size - 1) else UTTag.NO
        digits = []
        for slot in reversed(slots):
            k, d = divmod(k, len(slot))
            digits.append(slot[d])
        return ContactStructureCert(family, tuple(reversed(digits)), scale, stein, tag)


def enumerate_structures(r: Slope) -> Structures:
    """All tight structures on M(r) for r in the classified range.

    Negative coefficients list the standard-background family first, then
    the overtwisted-background one; positive coefficients list the L′ sign
    choices outermost.  The length always equals the finite count.
    """
    return Structures(r)


def involution(cert: ContactStructureCert) -> ContactStructureCert:
    """The contactomorphism flipping every stabilization choice.

    Negates all evaluations and keeps the family and tags; on each full
    enumeration it acts as a permutation.
    """
    return replace(cert, evaluations=tuple(-e for e in cert.evaluations))


def classify(r: Slope) -> ClassificationResult:
    """Full verdict for M(r): geometry, count, and certificates if exact.

    On the classified range the exact count is the number of certificates,
    so only their chains are expanded; elsewhere the count is `tight_count`.
    """
    f = finite_coefficient(r)
    if in_classified_range(f):
        structures = tuple(enumerate_structures(r))
        count = TightCount(CountKind.FINITE, len(structures))
    else:
        structures, count = (), tight_count(r)
    return ClassificationResult(r, geometry_of(r), count, structures)


def count_as_json(count: TightCount) -> dict[str, object]:
    payload: dict[str, object] = {"kind": count.kind.value}
    if count.value is not None:
        payload["value"] = count.value
    return payload


def structure_as_json(cert: ContactStructureCert) -> dict[str, object]:
    return {
        "family": cert.family.value,
        "evaluations": [str(e) for e in cert.evaluations],
        "scale": cert.scale,
        "stein": cert.stein.value,
        "strong": "Yes",
        "universally_tight": cert.universally_tight.value,
    }


def result_as_json(result: ClassificationResult) -> dict[str, object]:
    """The fixed-field-order JSON form used by the command line."""
    return {
        "coefficient": str(result.coefficient),
        "geometry": result.verdict.value,
        "count": count_as_json(result.count),
        "structures": [structure_as_json(s) for s in result.structures],
    }
