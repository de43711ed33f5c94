"""Legendrian surgery chains and stabilization certificates.

Negative contact surgery on a Legendrian knot unrolls into a chain of
Legendrian surgeries: expand the coefficient as [r0, ..., rn] in standard
negative continued fraction form, stabilize the knot |r0+1| times, then
each successive push-off |ri+2| times.  Which way each stabilization goes
is a free choice, and the resulting rotation numbers, scaled into Chern
class evaluations, certify that the contact structures built from
different choices are pairwise distinct.  The budgets are read off one
expansion (`chain_budgets`) and the chain carries them from then on.

Only the three base knots the classification needs are modeled (all genus
one or unknotted): the standard tb = −3 figure-eight, the virtual rot = 0
knot whose stabilizations are its approximations in an overtwisted
background, and the linked pair behind the positive-coefficient
construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .cfrac import Form, NegContinuedFraction, neg_cfrac, standard_product


class Family(Enum):
    PSI_STD = "PsiStd"
    PHI_OVERTWISTED = "PhiOvertwisted"
    POSITIVE_R = "PositiveR"


@dataclass(frozen=True)
class LegendrianComponent:
    """One chain component: classical invariants plus its stabilization budget.

    `tb` and `base_rot` may be rational for rationally null-homologous
    knots; stabilizing shifts the rotation number by ±1 either way.
    """

    tb: Fraction
    base_rot: Fraction
    stab_budget: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "tb", Fraction(self.tb))
        object.__setattr__(self, "base_rot", Fraction(self.base_rot))
        if self.stab_budget < 0:
            raise ValueError("stabilization budget cannot be negative")

    def rot_choices(self) -> list[Fraction]:
        """Reachable rotation numbers: base − b, base − b + 2, ..., base + b."""
        b = self.stab_budget
        return [self.base_rot - b + 2 * j for j in range(b + 1)]


@dataclass(frozen=True)
class LegendrianChain:
    """The components of one unrolled surgery; built by `ding_geiges`."""

    components: tuple[LegendrianComponent, ...]

    @property
    def budgets(self) -> tuple[int, ...]:
        return tuple(c.stab_budget for c in self.components)


@dataclass(frozen=True)
class StabilizationTuple:
    """One rotation number per chain component."""

    rots: tuple[Fraction, ...]


@dataclass(frozen=True)
class ChernCertificate:
    """Distinguishing invariant of one contact structure.

    Within a fixed family and surgery coefficient, structures coincide
    exactly when their evaluation lists do.
    """

    family: Family
    evaluations: tuple[Fraction, ...]
    scale: int


def figure_eight_standard() -> LegendrianComponent:
    """The maximal-tb Legendrian figure-eight in the standard tight structure."""
    return LegendrianComponent(tb=Fraction(-3), base_rot=Fraction(0), stab_budget=0)


def positive_surgery_pair() -> tuple[LegendrianComponent, LegendrianComponent]:
    """The linked pair (L, L′) behind the positive-coefficient construction.

    L is an unknotted component with (tb, rot) = (−1, 0) carrying the
    r-dependent contact coefficient; L′ has (tb, rot) = (1, 0) and always
    carries contact coefficient −2.
    """
    l_component = LegendrianComponent(tb=Fraction(-1), base_rot=Fraction(0), stab_budget=0)
    l_prime = LegendrianComponent(tb=Fraction(1), base_rot=Fraction(0), stab_budget=0)
    return l_component, l_prime


def ding_geiges(r: Fraction | int, base: LegendrianComponent) -> LegendrianChain:
    """Unroll contact r-surgery (r < 0) on `base` into a Legendrian chain.

    Component 0 keeps the base knot's invariants; each later component is
    a push-off of its predecessor.  The budgets are `chain_budgets(r)`.
    """
    return LegendrianChain(tuple(replace(base, stab_budget=b) for b in chain_budgets(r)))


def stabilization_tuples(chain: LegendrianChain) -> list[StabilizationTuple]:
    """Every way to spend the budgets, as per-component rotation numbers.

    Components choose independently, so the list has Π(budget + 1)
    entries, ordered lattice-fashion with each slot ascending.
    """
    choices = [component.rot_choices() for component in chain.components]
    return [StabilizationTuple(tuple(combo)) for combo in itertools.product(*choices)]


def _contact_expansion(r_contact: Fraction | int) -> NegContinuedFraction:
    r = Fraction(r_contact)
    if r >= 0:
        raise ValueError(f"contact coefficient must be negative, got {r}")
    return neg_cfrac(r, Form.STANDARD)


def chain_budgets(r_contact: Fraction | int) -> tuple[int, ...]:
    """The stabilization budgets of the chain for contact r-surgery, r < 0."""
    digits = _contact_expansion(r_contact).digits
    return (abs(digits[0] + 1), *(abs(d + 2) for d in digits[1:]))


def choice_count(r_contact: Fraction | int) -> int:
    """Number of stabilization choices for contact r-surgery, r < 0.

    Π(|r0+1| + 1)·Π(|ri+2| + 1) is the standard digit product of the
    expansion, so it is read off the blocks without spelling out digits.
    """
    return standard_product(_contact_expansion(r_contact))


def phi_family_chain(r: Fraction, n: int) -> LegendrianChain:
    """The chain whose stabilizations distinguish the overtwisted-background structures.

    For non-integral r in the window (n, n+1) with n ≤ −1, the two
    candidate knots arise as the stabilizations of a virtual rot = 0 knot,
    so the whole family is the stabilization lattice of the chain for
    contact −1/(1−s)-surgery on that virtual base, where s = n + 1 − r.
    The first budget is then at least 1 and the lattice has Φ(r) entries.
    """
    r = Fraction(r)
    if r.denominator == 1:
        raise ValueError(f"integral coefficient {r} has no fractional window")
    if n > -1:
        raise ValueError(f"window integer must be at most -1, got {n}")
    if not n < r < n + 1:
        raise ValueError(f"{r} is not in the window ({n}, {n + 1})")
    s = n + 1 - r
    virtual_base = LegendrianComponent(tb=Fraction(1), base_rot=Fraction(0), stab_budget=0)
    return ding_geiges(-1 / (1 - s), virtual_base)


def chern_certificate(family: Family, tup: StabilizationTuple, scale: int) -> ChernCertificate:
    """Scale a rotation tuple into Chern evaluations.

    The scale is the homology order |n| for the overtwisted-background
    family and must be 1 for the other two.
    """
    if scale < 1:
        raise ValueError("scale must be positive")
    if family is not Family.PHI_OVERTWISTED and scale != 1:
        raise ValueError(f"family {family.value} does not scale evaluations")
    return ChernCertificate(family, tuple(scale * rot for rot in tup.rots), scale)


def smooth_framing_check(r: Fraction | int) -> bool:
    """Replay the Kirby moves identifying the positive-r diagram with M(r).

    Checks, with exact fractions: the smooth framing of L (contact
    1/(1−r) on tb = −1 gives smooth r/(1−r)), the right-handed Rolfsen
    twist returning r/(1−r) to r, and the first-homology order
    |det| = |numerator of r|.  L′ (contact −2 on tb = 1, smooth −1) is
    algebraically unlinked from L, so the twist keeps its framing and its
    blowdown shifts nothing.  For r = 1 the twisting component is erased
    and only that blowdown remains.
    """
    r = Fraction(r)
    if r < 1:
        raise ValueError(f"the positive-coefficient diagram needs r >= 1, got {r}")
    if r == 1:
        return True
    smooth = 1 / (1 - r) + (-1)  # contact coefficient plus tb
    twisted = Fraction(smooth.numerator, smooth.denominator + smooth.numerator)
    determinant = smooth.numerator * -1
    return smooth == r / (1 - r) and twisted == r and abs(determinant) == abs(r.numerator)
