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
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction

from .cfrac import neg_cfrac, phi
from .slope import Slope, basis_completion
from .surgery_enum import chain_budgets


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
    """How many tight structures M(r) supports and, where that is exact, how they are tagged.

    On the classified range `universally_tight`, `candidate_pair` and
    `stein` are the numbers of structures `enumerate_structures` tags
    UTTag.YES, UTTag.CANDIDATE_PAIR and SteinTag.YES; elsewhere they are
    None.
    """

    kind: CountKind
    value: int | None = None
    universally_tight: int | None = None
    candidate_pair: int | None = None
    stein: int | None = None

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
    # The lazy `Structures` where the count is exact, else (); fixed by the coefficient, so not compared.
    structures: Structures | tuple[()] = field(compare=False)

    def __post_init__(self) -> None:
        r, kind = self.coefficient, self.count.kind
        finite_coefficient(r)
        if kind is CountKind.FINITE:
            if self.count.value != getattr(self.structures, "size", None):
                raise ValueError("finite count must equal the number of certificates")
        elif self.structures:
            raise ValueError("certificates are only attached to finite counts")
        elif kind is CountKind.INFINITE and not is_toroidal(r):
            raise ValueError("only 0 and ±4 have infinitely many tight structures")
        elif kind is CountKind.LOWER_BOUND and (in_classified_range(r) or is_toroidal(r)):
            raise ValueError("lower bounds only occur off the classified range")


def in_classified_range(r: Fraction | int | Slope) -> bool:
    """Membership in R = [1, 4) ∪ [5, ∞) ∪ (−∞, −4) ∪ [−3, 0), for finite r."""
    p, q = r.numerator, r.denominator
    return q <= p < 4 * q or p >= 5 * q or p < -4 * q or -3 * q <= p < 0


def is_toroidal(r: Slope) -> bool:
    """Whether M(r) is toroidal: r is 0 or ±4."""
    return r.den == 1 and r.num in (0, 4, -4)


def finite_coefficient(r: Slope) -> tuple[int, int]:
    """The pair (p, q) of r = p/q, or a domain error naming r if it is ∞."""
    if r.is_infinity:
        raise ValueError(f"coefficient {r} is not finite: r-surgery needs a finite r")
    return r.num, r.den


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
    """Every slope p/q in [start, stop] with 1 ≤ q ≤ max_denominator, ascending."""
    return list(_farey_terms(start, stop, max_denominator))


def _farey_terms(start: Fraction, stop: Fraction, max_denominator: int) -> Iterator[Slope]:
    """The slopes of `coefficients_between`, one at a time.

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
    a, b = basis_completion(Slope(c, d))  # c·b − d·a = 1
    x, y = stop.numerator, stop.denominator
    while c * y <= x * d:
        yield Slope(c, d)
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def geometry_of(r: Slope) -> Geometry:
    """Geometric type of M(r): toroidal, small Seifert fibered, or hyperbolic."""
    finite_coefficient(r)  # refuses ∞ with the domain error
    if is_toroidal(r):
        return Geometry.TOROIDAL
    if r.den == 1 and abs(r.num) <= 3:
        return Geometry.SMALL_SEIFERT
    return Geometry.HYPERBOLIC


def tight_count(r: Slope) -> TightCount:
    """How many tight structures M(r) supports, and how they are tagged, in closed form.

    Exact on the classified range (2Φ for positive r, Φ + Ψ for negative),
    infinite at the toroidal coefficients, and otherwise a lower bound
    from the same formulas.  Φ(r) and Ψ(r) are read off one expansion
    (`_factors`); no certificate is built.
    """
    finite_coefficient(r)  # refuses ∞ with the domain error
    return TightCount(*_tally(r, *_factors(r, {})))


def table_rows(start: Fraction, stop: Fraction, max_denominator: int) -> Iterator[tuple[Slope, tuple]]:
    """Each coefficient of `coefficients_between` with the fields of its `tight_count`, as a plain tuple.

    Each fractional part (p mod q)/q is expanded once per sweep (`_factors`).
    """
    units: dict[tuple[int, int], tuple[int, int]] = {}
    for r in _farey_terms(start, stop, max_denominator):
        yield r, _tally(r, *_factors(r, units))


def _factors(r: Slope, units: dict[tuple[int, int], tuple[int, int]]) -> tuple[int, int]:
    """Φ(r) and Ψ(r), off the one expansion Φ makes.

    For non-integral r = p/q let −1/t = [d0, d1, …], t = (p mod q)/q, and
    R = Π_{i≥1} |di + 1|.  Then Φ(r) = |d0|·R, and below −3 r + 3 expands
    to [⌊r⌋ + 3, d0, d1, …], so Ψ(r) = |⌊r⌋ + 3|·|d0 + 1|·R.  The first
    digit d0 = ⌊−q/(p mod q)⌋ needs no expansion.  On integers Φ = 1 and
    Ψ = |r + 3|.  `units` keeps Φ and Ψ/|⌊r⌋ + 3| by fractional part
    (p mod q, q), and an expansion is made only where it has none.
    """
    p, q = r.num, r.den
    unit = units.get((p % q, q))
    if unit is None:
        if q == 1:
            unit = 1, 1
        else:
            phi_r, d0 = phi(r), -q // (p % q)
            unit = phi_r, phi_r // -d0 * abs(d0 + 1)
        units[p % q, q] = unit
    phi_r, psi_unit = unit
    return phi_r, abs(p // q + 3) * psi_unit if p < -3 * q else 0


def _tally(r: Slope, phi_r: int, psi_r: int) -> tuple:
    """The fields of `tight_count(r)` from r's integers p, q and Φ(r), Ψ(r) (0 for r ≥ −3).

    Only the extremal uniform-sign tuples of a chain are universally
    tight or candidates: two of them (all at +b or all at −b) when some
    budget is nonzero, one otherwise.  So a negative integer has its one
    overtwisted-background structure, a negative non-integer the two
    extremal tuples of its overtwisted family (whose first budget is at
    least 1), a positive integer the two L′ signs over a chain of zero
    budgets (1/(1 − r) expands to −1 and then −2s), and a positive
    non-integer 2 × 2 candidates.  The standard-background family, Ψ(r)
    structures, is never universally tight and always Stein; the
    overtwisted-background one is Stein only for r ≥ −9.
    """
    p, q = r.num, r.den
    total = 2 * phi_r if p > 0 else phi_r + psi_r
    if not in_classified_range(r):
        if is_toroidal(r):
            return CountKind.INFINITE, None, None, None, None
        return CountKind.LOWER_BOUND, total, None, None, None
    if q == 1:
        ut, candidates = (1, 0) if p < 0 else (2, 0)
    else:
        ut, candidates = (2, 0) if p < 0 else (0, 4)
    return CountKind.FINITE, total, ut, candidates, total if p >= -9 * q else psi_r


def structure_families(r: Slope) -> list[tuple[Family, tuple[tuple[int, int], ...], int]]:
    """The families of tight structures on M(r) in enumeration order, as (family, budgets, scale).

    `budgets` are the (budget, run) blocks of the family's chain, read off
    one expansion by `chain_budgets`: r + 3 for the standard-background
    family (r < −3, listed first), −1/t (t the representative of r mod 1
    in (0, 1]) for the overtwisted-background one, 1/(1 − r) for positive
    r.  On integers t = 1 expands to [−1], one unstabilized knot; at r = 1
    L is erased and no budget is left.

    For non-integral r = p/q in the window (n, n + 1), n ≤ −1, the two
    candidate knots arise as the stabilizations of the virtual knot, so
    the overtwisted family is the stabilization lattice of the chain for
    contact −1/(1 − s)-surgery on it, s = n + 1 − r.  As 1 − s = t =
    (p mod q)/q, that is the expansion of −q/(p mod q), which Φ(r) reads
    too: the first budget is at least 1 and the lattice has Φ(r) entries.
    """
    p, q = finite_coefficient(r)
    if is_toroidal(r):
        raise ValueError(f"coefficient {r} is toroidal: M({r}) has infinitely many tight structures")
    if not in_classified_range(r):
        raise ValueError(f"coefficient {r} is outside the classified range")
    if p > 0:
        return [(Family.POSITIVE_R, () if p == q else chain_budgets(neg_cfrac(Fraction(-q, p - q))), 1)]
    families = [(Family.PSI_STD, chain_budgets(neg_cfrac(Fraction(p + 3 * q, q))), 1)] if p < -3 * q else []
    # The two integral candidate surgeries give isotopic structures, so
    # there the family is the single fixed point of the sign involution.
    families.append((Family.PHI_OVERTWISTED, chain_budgets(neg_cfrac(Fraction(-q, p % q or q))), abs(p // q)))
    return families


def family_size(family: Family, budgets: tuple[tuple[int, int], ...]) -> int:
    """Π(b + 1)^run over the budget blocks, the standard product; ×2 for the two L′ signs."""
    size = math.prod((b + 1) ** run for b, run in budgets)
    return 2 * size if family is Family.POSITIVE_R else size


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


def stein_tag(family: Family, r: Fraction | int | Slope) -> SteinTag:
    if family is Family.PSI_STD or r.numerator >= -9 * r.denominator:
        return SteinTag.YES
    return SteinTag.UNKNOWN


class Structures(Sequence):
    """The tight structures on M(r), listed lazily off their stabilization lattices.

    `sizes`, one per family, and their sum `size` (also `len`, which
    refuses one past sys.maxsize) are read off the budget blocks alone,
    and `classify` reads its count off them; slots are spelled out only
    when structures are asked for, and no certificate is built until
    then.  The listing goes family by family (as `structure_families`),
    block by block (`blocks`), and within a block in `itertools.product`
    order, the last slot fastest: mixed radix (Knuth, TAOCP 4A
    §7.2.1.1, Algorithm M), so `[i]` reads i's digits.
    """

    def __init__(self, r: Slope) -> None:
        self.coefficient = r
        self.families = structure_families(r)
        self.sizes = [family_size(family, budgets) for family, budgets, _ in self.families]
        self.size = sum(self.sizes)

    def __len__(self) -> int:
        return self.size

    def evaluation_count(self) -> int:
        """How many evaluations the listing holds in all, read off the budget blocks: size × slots per family."""
        return sum(
            size * (sum(run for _, run in budgets) + (family is Family.POSITIVE_R))
            for (family, budgets, _), size in zip(self.families, self.sizes)
        )

    def blocks(self) -> Iterator[tuple[Family, int, SteinTag, list[range], UTTag]]:
        """The listing in blocks of (family, scale, stein, slots, corner).

        A block's structures are the points of `itertools.product(*slots)`,
        each slot the evaluations scale·rot of one component, rot = −b,
        −b + 2, ..., b.  Its first and last points are its uniform-sign
        tuples (all at −b, all at +b), tagged `corner`; every other point
        is UTTag.NO.  For positive r, L′ (contact −2 on tb = 1, budget 1)
        comes first: each of its signs −1, 1 heads a block of its own over
        the chain's slots, and does not affect universal tightness.  A
        budget run shares one `range`.
        """
        r = self.coefficient
        for family, budgets, scale in self.families:
            runs = (itertools.repeat(range(-scale * b, scale * b + 1, 2 * scale), run) for b, run in budgets)
            slots = list(itertools.chain.from_iterable(runs))
            stein, corner = stein_tag(family, r), corner_tag(family, r)
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
            return [self[k] for k in range(*i.indices(self.size))]
        if not -self.size <= i < self.size:
            raise IndexError("structure index out of range")
        k = i % self.size
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

    On the classified range the lazy `enumerate_structures(r)` is handed
    out as is, and the count is read off its family sizes: the last has
    Φ(r) structures (2Φ(r) for positive r), the rest Ψ(r).  Elsewhere the
    count is `tight_count`.
    """
    finite_coefficient(r)
    if in_classified_range(r):
        structures = Structures(r)
        last = structures.sizes[-1]
        count = TightCount(*_tally(r, last // 2 if r.num > 0 else last, structures.size - last))
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
