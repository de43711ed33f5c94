"""Legendrian surgery chains and their stabilization budgets.

Negative contact surgery on a Legendrian knot unrolls into a chain of
Legendrian surgeries: expand the coefficient as [r0, ..., rn] in standard
negative continued fraction form, stabilize the knot |r0+1| times, then
each successive push-off |ri+2| times.  A push-off keeps the invariants
of its predecessor, so the chain is fixed by its budgets, read off one
expansion as (budget, run) blocks (`chain_budgets`).  Which way each
stabilization goes is a free choice, and the resulting rotation numbers,
scaled into Chern class evaluations (⟨c₁, h⟩ = rot for Legendrian
surgery), tell the structures of different choices apart.

Only the base knots the classification needs are modeled, each given by
its (tb, rot):

- the standard figure-eight, (−3, 0);
- the virtual knot whose stabilizations are the approximations in an
  overtwisted background, (1, 0);
- the linked pair behind the positive-coefficient construction: L,
  (−1, 0), carrying the r-dependent contact coefficient, and L′, (1, 0),
  always carrying contact −2.

Every base rotation number is 0 and a stabilization shifts it by ±1, so
rotation numbers and evaluations are integers throughout.
"""

from __future__ import annotations

from fractions import Fraction

from .cfrac import Form, NegContinuedFraction, neg_cfrac, standard_product


def chain_budgets(cf: NegContinuedFraction) -> tuple[tuple[int, int], ...]:
    """The stabilization budgets of the chain for contact r-surgery, r < 0, as (budget, run) blocks.

    `cf` is r's standard expansion [r0, ..., rn]: budget |r0 + 1|, then
    |ri + 2| for each push-off, read off `cf.blocks` without spelling out
    digits; a run of −2s after r0 is one block of budget 0.
    """
    (head, run), *rest = cf.blocks
    pushoffs = [(head, run - 1), *rest] if run > 1 else rest
    return ((abs(head + 1), 1), *((abs(d + 2), n) for d, n in pushoffs))


def choice_count(r_contact: Fraction | int) -> int:
    """Number of stabilization choices for contact r-surgery, r < 0.

    Π(|r0+1| + 1)·Π(|ri+2| + 1) is the standard digit product of the
    expansion, so it is read off the blocks without spelling out digits.
    """
    if r_contact >= 0:
        raise ValueError(f"contact coefficient must be negative, got {r_contact}")
    return standard_product(neg_cfrac(r_contact, Form.STANDARD))


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
