"""Verdicts, exact counts, certificates, and their tags.

The counting formulas were certified against the continued-fraction module
already; this file pins the composition rules: which families appear for
which coefficients, how many certificates carry each tag, and how the sign
involution and the JSON serialization act on a full enumeration.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from circle_order import value
from hypothesis import given
from hypothesis import strategies as st

from f8tight import cfrac, classification, surgery_enum
from f8tight.cfrac import phi, psi
from f8tight.classification import (
    ClassificationResult,
    ContactStructureCert,
    CountKind,
    Family,
    Geometry,
    RowTallies,
    SteinTag,
    TightCount,
    UTTag,
    classify,
    coefficients_between,
    enumerate_structures,
    family_size,
    geometry_of,
    in_classified_range,
    involution,
    is_toroidal,
    result_as_json,
    row_tallies,
    stein_tag,
    structure_as_json,
    structure_families,
    table_rows,
    tight_count,
)
from f8tight.slope import INFINITY, Slope, from_rational, reduce

classified = st.fractions(min_value=-30, max_value=30, max_denominator=12).filter(
    in_classified_range
)


def test_geometry_frozen():
    for n in (0, 4, -4):
        assert geometry_of(from_rational(n)) is Geometry.TOROIDAL
    for n in (1, 2, 3, -1, -2, -3):
        assert geometry_of(from_rational(n)) is Geometry.SMALL_SEIFERT
    for r in (5, -5, Fraction(7, 2), Fraction(-9, 2), Fraction(1, 2)):
        assert geometry_of(from_rational(r)) is Geometry.HYPERBOLIC


@given(st.fractions(min_value=-30, max_value=30, max_denominator=9))
def test_geometry_cases_are_exhaustive(r):
    g = geometry_of(from_rational(r))
    if r in (0, 4, -4):
        assert g is Geometry.TOROIDAL
    elif r.denominator == 1 and abs(r) <= 3:
        assert g is Geometry.SMALL_SEIFERT
    else:
        assert g is Geometry.HYPERBOLIC


def test_classified_range_boundaries():
    inside = [1, 2, Fraction(39, 10), 5, 100, -5, Fraction(-9, 2), -3, Fraction(-1, 10)]
    outside = [0, 4, -4, Fraction(1, 2), Fraction(9, 2), Fraction(-7, 2), Fraction(-31, 10)]
    for r in inside:
        assert in_classified_range(Fraction(r))
    for r in outside:
        assert not in_classified_range(Fraction(r))


@pytest.mark.parametrize(
    "r, kind, value",
    [
        (Fraction(-5), CountKind.FINITE, 3),
        (Fraction(-9, 2), CountKind.FINITE, 4),
        (Fraction(-1, 2), CountKind.FINITE, 2),
        (Fraction(-6), CountKind.FINITE, 4),
        (Fraction(3), CountKind.FINITE, 2),
        (Fraction(3, 2), CountKind.FINITE, 4),
        (Fraction(7, 3), CountKind.FINITE, 6),
        (Fraction(0), CountKind.INFINITE, None),
        (Fraction(4), CountKind.INFINITE, None),
        (Fraction(-4), CountKind.INFINITE, None),
        (Fraction(1, 2), CountKind.LOWER_BOUND, 4),
        (Fraction(9, 2), CountKind.LOWER_BOUND, 4),
        (Fraction(-7, 2), CountKind.LOWER_BOUND, 3),
    ],
)
def test_tight_count_frozen(r, kind, value):
    count = tight_count(from_rational(r))
    assert count.kind is kind
    assert count.value == value


@given(st.integers(-50, 50))
def test_integral_counts(n):
    if n in (0, 4, -4):
        return
    count = tight_count(from_rational(n))
    assert count.kind is CountKind.FINITE
    if n > 0:
        assert count.value == 2
    elif n >= -3:
        assert count.value == 1
    else:
        assert count.value == abs(n) - 2


@given(classified)
def test_count_formula_on_the_range(r):
    count = tight_count(from_rational(r))
    assert count.kind is CountKind.FINITE
    expected = 2 * phi(r) if r > 0 else phi(r) + psi(r)
    assert count.value == expected


def test_tight_count_validation():
    with pytest.raises(ValueError):
        TightCount(CountKind.INFINITE, 3)
    with pytest.raises(ValueError):
        TightCount(CountKind.FINITE)
    with pytest.raises(ValueError):
        TightCount(CountKind.LOWER_BOUND, -1)


def test_enumerate_rejects_gap_and_toroidal_coefficients():
    for r in (Fraction(1, 2), Fraction(9, 2), Fraction(-7, 2)):
        with pytest.raises(ValueError, match="is outside the classified range"):
            enumerate_structures(from_rational(r))
    for r in (0, 4, -4):
        with pytest.raises(ValueError, match=rf"coefficient {r} is toroidal: M\({r}\) has infinitely many tight structures"):
            enumerate_structures(from_rational(r))


def test_enumeration_frozen_minus_nine_halves():
    certs = enumerate_structures(Slope(-9, 2))
    rows = [
        (c.family, c.evaluations, c.scale, c.universally_tight)
        for c in certs
    ]
    assert rows == [
        (Family.PSI_STD, (-1, 0), 1, UTTag.NO),
        (Family.PSI_STD, (1, 0), 1, UTTag.NO),
        (Family.PHI_OVERTWISTED, (-5,), 5, UTTag.YES),
        (Family.PHI_OVERTWISTED, (5,), 5, UTTag.YES),
    ]
    assert all(c.stein is SteinTag.YES for c in certs)


def test_enumeration_frozen_minus_five():
    certs = enumerate_structures(Slope(-5, 1))
    assert [c.family.value for c in certs] == ["PsiStd", "PsiStd", "PhiOvertwisted"]
    assert certs[2].evaluations == (0,)
    assert certs[2].scale == 5
    assert certs[2].universally_tight is UTTag.YES


def test_enumeration_frozen_seven_thirds():
    certs = enumerate_structures(Slope(7, 3))
    assert len(certs) == 6
    assert all(c.family is Family.POSITIVE_R for c in certs)
    tags = [c.universally_tight for c in certs]
    assert tags.count(UTTag.CANDIDATE_PAIR) == 4
    assert tags.count(UTTag.NO) == 2
    flat = [c.evaluations for c in certs]
    assert flat == [
        (-1, 0, -2), (-1, 0, 0), (-1, 0, 2),
        (1, 0, -2), (1, 0, 0), (1, 0, 2),
    ]


def test_enumeration_frozen_positive_integer():
    certs = enumerate_structures(Slope(3, 1))
    assert [c.evaluations for c in certs] == [(-1, 0, 0), (1, 0, 0)]
    assert all(c.universally_tight is UTTag.YES for c in certs)

    unit = enumerate_structures(Slope(1, 1))
    assert [c.evaluations for c in unit] == [(-1,), (1,)]
    assert all(c.universally_tight is UTTag.YES for c in unit)


def test_stein_tag_threshold():
    at_boundary = enumerate_structures(Slope(-9, 1))
    assert all(c.stein is SteinTag.YES for c in at_boundary)
    below = enumerate_structures(Slope(-10, 1))
    by_family = {c.family: c.stein for c in below}
    assert by_family[Family.PSI_STD] is SteinTag.YES
    assert by_family[Family.PHI_OVERTWISTED] is SteinTag.UNKNOWN


@given(classified)
def test_enumeration_matches_count_and_is_distinct(r):
    slope = from_rational(r)
    certs = enumerate_structures(slope)
    assert len(certs) == tight_count(slope).value
    assert len(set(certs)) == len(certs)


# L′ carries contact −2 on tb = 1: a one-component chain with budget 1,
# whose two rotation numbers ±1 are the sign listed outermost.
L_PRIME_BUDGETS = (1,)


def eager_budgets(family: Family, budgets: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """The budgets of a family's whole lattice, one per slot, L′ first for positive r."""
    spelled = tuple(b for b, run in budgets for _ in range(run))
    return L_PRIME_BUDGETS + spelled if family is Family.POSITIVE_R else spelled


@given(classified)
def test_family_sizes_sum_to_the_count(r):
    # The sizes come off the budget blocks; they must be the spelled-out lattices'.
    slope = from_rational(r)
    families = structure_families(slope)
    sizes = [family_size(family, budgets) for family, budgets, _ in families]
    assert sum(sizes) == tight_count(slope).value
    assert sizes == [math.prod(b + 1 for b in eager_budgets(family, budgets)) for family, budgets, _ in families]


def stabilization_tuples(budgets: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every way to spend the budgets, as per-component rotation numbers.

    A component with budget b reaches −b, −b + 2, ..., b.  Components
    choose independently, so the list has Π(b + 1) entries, ordered
    lattice-fashion with each slot ascending.
    """
    return list(itertools.product(*(range(-b, b + 1, 2) for b in budgets)))


def universal_tightness_tag(family: Family, rots: tuple[int, ...], r: Slope, budgets: tuple[int, ...]) -> UTTag:
    """Tag one stabilization choice as universally tight, not, or an unresolved pair.

    Uniform-sign tuples (every component at an extremal rotation number,
    all nonzero rotation numbers sharing one sign) are the candidates;
    they are definitely universally tight for negative r and for integral
    positive r, and an unresolved 2-or-4 pair for non-integral positive r.
    The standard-background family is always virtually overtwisted, and
    the sign on L′ does not affect universal tightness.
    """
    if family is Family.PSI_STD:
        return UTTag.NO
    if family is Family.POSITIVE_R:
        rots, budgets = rots[1:], budgets[1:]
    extremal = all(abs(rot) == b for rot, b in zip(rots, budgets))
    signs = {1 if rot > 0 else -1 for rot in rots if rot != 0}
    if not extremal or len(signs) > 1:
        return UTTag.NO
    if r.num < 0 or r.den == 1:
        return UTTag.YES
    return UTTag.CANDIDATE_PAIR


def eager_structures(r: Slope) -> list[ContactStructureCert]:
    """The listing as `enumerate_structures` once built it: a certificate per lattice point, each tagged alone."""
    structures = []
    for family, blocks, scale in structure_families(r):
        budgets = eager_budgets(family, blocks)
        stein = stein_tag(family, value(r))
        for rots in stabilization_tuples(budgets):
            evaluations = tuple(scale * rot for rot in rots)
            tag = universal_tightness_tag(family, rots, r, budgets)
            structures.append(ContactStructureCert(family, evaluations, scale, stein, tag))
    return structures


def test_structures_match_the_eager_oracle():
    finite = 0
    for r in coefficients_between(Fraction(-30), Fraction(30), 8):
        if tight_count(r).kind is not CountKind.FINITE:
            continue
        finite += 1
        expected = eager_structures(r)
        structures = enumerate_structures(r)
        n = len(expected)
        assert len(structures) == n, r
        assert list(structures) == expected, r
        assert [structures[i] for i in range(n)] == expected, r
        assert [structures[i] for i in range(-n, 0)] == expected, r
        assert structures[1::3] == expected[1::3], r
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                structures[i]
    assert finite == 1255


def test_structures_length_spells_out_no_budget(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("len must read the budget blocks alone")

    monkeypatch.setattr(classification.Structures, "blocks", refuse)
    assert len(enumerate_structures(Slope(-1440450, 758539))) == 459270
    # −1/t = −10⁹/(10⁹ − 1) is −2 repeated 10⁹ − 1 times: budgets (1, 1), (0, 10⁹ − 2).
    assert len(enumerate_structures(Slope(-(10**9 + 1), 10**9))) == 2


def test_classify_builds_no_certificates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("classify must hand out the lazy listing")

    monkeypatch.setattr(classification, "ContactStructureCert", refuse)
    result = classify(Slope(-1440450, 758539))
    assert result.count == TightCount(CountKind.FINITE, 459270)
    assert len(result.structures) == 459270
    result = classify(reduce(-123456789012345, 987654321))
    assert result.count == TightCount(CountKind.FINITE, 319314893760)


@pytest.mark.parametrize(
    "r",
    [Fraction(-68111, 6930), Fraction(-9, 2), Fraction(-5), Fraction(1), Fraction(7, 3), Fraction(1, 2), Fraction(0)],
)
def test_classify_results_are_values(r):
    # The listing is a function of the coefficient, so results compare and
    # hash by coefficient, verdict and count, and two listings of one
    # coefficient list the same structures.
    first, second = classify(from_rational(r)), classify(from_rational(r))
    assert first == second and hash(first) == hash(second)
    assert first != classify(Slope(-11, 2))
    if first.count.kind is CountKind.FINITE:
        assert first.structures is not second.structures
        assert list(first.structures) == list(second.structures) == list(enumerate_structures(from_rational(r)))
    else:
        assert first.structures == ()


@given(classified)
def test_family_composition(r):
    slope = from_rational(r)
    families = [c.family for c in enumerate_structures(slope)]
    if r > 0:
        assert set(families) == {Family.POSITIVE_R}
    elif r < -3:
        expected = [Family.PSI_STD] * psi(r) + [Family.PHI_OVERTWISTED] * phi(r)
        assert families == expected
    else:
        assert set(families) == {Family.PHI_OVERTWISTED}


@given(classified)
def test_involution_permutes_the_enumeration(r):
    slope = from_rational(r)
    certs = enumerate_structures(slope)
    images = [involution(c) for c in certs]
    assert set(images) == set(certs)
    for cert, image in zip(certs, images):
        assert involution(image) == cert
        assert image.family is cert.family
        assert image.universally_tight is cert.universally_tight
        assert image.stein is cert.stein


def ut_profile(r) -> tuple[int, int, int]:
    certs = enumerate_structures(from_rational(r))
    tags = [c.universally_tight for c in certs]
    return (
        tags.count(UTTag.YES),
        tags.count(UTTag.CANDIDATE_PAIR),
        tags.count(UTTag.NO),
    )


@given(st.integers(-50, -5))
def test_ut_profile_negative_integers(n):
    yes, cand, no = ut_profile(n)
    assert (yes, cand) == (1, 0)


@given(classified.filter(lambda r: r < 0 and r.denominator > 1))
def test_ut_profile_negative_fractions(r):
    yes, cand, no = ut_profile(r)
    assert (yes, cand) == (2, 0)


@given(st.integers(1, 50).filter(lambda n: n != 4))
def test_ut_profile_positive_integers(n):
    yes, cand, no = ut_profile(n)
    assert (yes, cand, no) == (2, 0, 0)


@given(classified.filter(lambda r: r > 0 and r.denominator > 1))
def test_ut_profile_positive_fractions(r):
    yes, cand, no = ut_profile(r)
    assert (yes, cand) == (0, 4)


def test_certificate_validation():
    with pytest.raises(ValueError):
        ContactStructureCert(Family.PSI_STD, (1,), 1, SteinTag.YES, UTTag.YES)
    cert = ContactStructureCert(Family.PSI_STD, (1,), 1, SteinTag.YES, UTTag.NO)
    assert (cert.family, cert.evaluations, cert.scale) == (Family.PSI_STD, (1,), 1)


def test_result_validation():
    with pytest.raises(ValueError):
        ClassificationResult(
            Slope(-5, 1), Geometry.HYPERBOLIC, TightCount(CountKind.INFINITE), ()
        )
    with pytest.raises(ValueError):
        ClassificationResult(
            Slope(-5, 1), Geometry.HYPERBOLIC, TightCount(CountKind.LOWER_BOUND, 3), ()
        )
    with pytest.raises(ValueError):
        ClassificationResult(
            Slope(-5, 1), Geometry.HYPERBOLIC, TightCount(CountKind.FINITE, 2), ()
        )


@given(st.fractions(min_value=-30, max_value=30, max_denominator=12))
def test_classify_is_internally_consistent(r):
    result = classify(from_rational(r))
    assert result.verdict is geometry_of(from_rational(r))
    assert result.count == tight_count(from_rational(r))
    if result.count.kind is CountKind.FINITE:
        assert len(result.structures) == result.count.value
    else:
        assert result.structures == ()


def test_json_shape_frozen():
    payload = result_as_json(classify(Slope(-9, 2)))
    assert list(payload.keys()) == ["coefficient", "geometry", "count", "structures"]
    assert payload["coefficient"] == "-9/2"
    assert payload["geometry"] == "Hyperbolic"
    assert payload["count"] == {"kind": "finite", "value": 4}
    assert payload["structures"][0] == {
        "family": "PsiStd",
        "evaluations": ["-1", "0"],
        "scale": 1,
        "stein": "Yes",
        "strong": "Yes",
        "universally_tight": "No",
    }
    keys = list(payload["structures"][0].keys())
    assert keys == ["family", "evaluations", "scale", "stein", "strong", "universally_tight"]

    infinite = result_as_json(classify(Slope(0, 1)))
    assert infinite["count"] == {"kind": "infinite"}
    assert infinite["structures"] == []

    bound = result_as_json(classify(Slope(1, 2)))
    assert bound["count"] == {"kind": "lower_bound", "value": 4}


def test_structure_json_uses_fraction_strings():
    certs = enumerate_structures(Slope(-9, 2))
    assert structure_as_json(certs[2])["evaluations"] == ["-5"]


@pytest.mark.parametrize(
    "r",
    [Fraction(-68111, 6930), Fraction(-9, 2), Fraction(-5), Fraction(-13, 5), Fraction(7, 3), Fraction(3)],
)
def test_classify_expands_each_chain_once(monkeypatch, r):
    # On the classified range the count is the number of certificates, so
    # only the chains are expanded: r + 3 for the standard-background
    # family, −1/t (t the fractional part of r) for the overtwisted one,
    # 1/(1 − r) for the positive one.  No input is expanded twice, however
    # many certificates the chains produce.
    original = cfrac.neg_cfrac
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (cfrac, surgery_enum, classification):
        monkeypatch.setattr(module, "neg_cfrac", counting)
    result = classify(from_rational(r))
    assert result.count.kind is CountKind.FINITE
    assert len(calls) <= 2 and len(set(calls)) == len(calls), calls


@pytest.mark.parametrize(
    "r",
    [
        Fraction(-9, 2), Fraction(-5), Fraction(-3), Fraction(1), Fraction(3),
        Fraction(7, 3), Fraction(18, 5), Fraction(-13, 5), Fraction(-68111, 6930),
    ],
)
def test_evaluations_are_ints(r):
    # Fraction(5) == 5, so the frozen enumerations above cannot see the type.
    result = classify(from_rational(r))
    assert result.structures
    for c in result.structures:
        assert all(type(e) is int for e in c.evaluations), c


def test_infinity_is_a_domain_error_naming_the_coefficient():
    for call in (tight_count, enumerate_structures, classify):
        with pytest.raises(ValueError, match="coefficient inf is not finite: r-surgery needs a finite r"):
            call(INFINITY)


def test_coefficients_between():
    window = coefficients_between(Fraction(-1), Fraction(1, 2), 3)
    assert [str(s) for s in window] == ["-1", "-2/3", "-1/2", "-1/3", "0", "1/3", "1/2"]
    assert coefficients_between(Fraction(1, 3), Fraction(2, 5), 2) == []
    with pytest.raises(ValueError, match="denominator bound must be positive"):
        coefficients_between(Fraction(0), Fraction(1), 0)


def sweep_by_denominators(start: Fraction, stop: Fraction, max_denominator: int) -> list[Slope]:
    """Oracle for `coefficients_between`: every p/q per denominator, deduplicated and sorted."""
    seen = set()
    for q in range(1, max_denominator + 1):
        for p in range(math.ceil(start * q), math.floor(stop * q) + 1):
            if math.gcd(abs(p), q) == 1:
                seen.add(Fraction(p, q))
    return [Slope(f.numerator, f.denominator) for f in sorted(seen)]


@given(
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
    st.fractions(min_value=-3, max_value=12, max_denominator=60),
    st.integers(1, 25),
)
def test_coefficients_between_matches_the_denominator_sweep(start, width, n):
    # A negative width gives an empty window, and start may carry a
    # denominator above the bound, where the sweep starts past it.
    stop = start + width
    assert coefficients_between(start, stop, n) == sweep_by_denominators(start, stop, n)


def enumerated_tallies(r: Slope) -> tuple[int, int, int, int]:
    certs = enumerate_structures(r)
    tags = [c.universally_tight for c in certs]
    stein = sum(1 for c in certs if c.stein is SteinTag.YES)
    return len(certs), tags.count(UTTag.YES), tags.count(UTTag.CANDIDATE_PAIR), stein


def test_row_tallies_match_the_enumeration():
    finite = 0
    for r in coefficients_between(Fraction(-30), Fraction(30), 8):
        tallies = row_tallies(r)
        assert tallies.count == tight_count(r)
        if tallies.count.kind is not CountKind.FINITE:
            assert (tallies.universally_tight, tallies.candidate_pair, tallies.stein) == (None, None, None), r
            continue
        finite += 1
        closed_form = (tallies.count.value, tallies.universally_tight, tallies.candidate_pair, tallies.stein)
        assert closed_form == enumerated_tallies(r), r
    assert finite == 1255


@pytest.mark.parametrize(
    "r",
    [
        Fraction(-68111, 6930), Fraction(-9, 2), Fraction(-10), Fraction(-5), Fraction(-7, 2), Fraction(-13, 5),
        Fraction(-1), Fraction(1), Fraction(1, 2), Fraction(7, 3), Fraction(3), Fraction(0),
    ],
)
def test_row_tallies_expand_each_input_once(monkeypatch, r):
    # Φ and Ψ are read off one expansion of −1/t, t = r − ⌊r⌋, and integers
    # expand nothing.  `tight_count` reads the same row.
    calls = spy_on_expansions(monkeypatch)
    expected = [] if r.denominator == 1 else [-1 / (r - math.floor(r))]
    row_tallies(from_rational(r))
    assert calls == expected
    calls.clear()
    tight_count(from_rational(r))
    assert calls == expected


def spy_on_expansions(monkeypatch) -> list[Fraction]:
    """Record the argument of every `neg_cfrac` call, under each name it is called by."""
    original = cfrac.neg_cfrac
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (cfrac, surgery_enum, classification):
        monkeypatch.setattr(module, "neg_cfrac", counting)
    return calls


def test_a_sweep_expands_each_fractional_part_once(monkeypatch):
    calls = spy_on_expansions(monkeypatch)
    rows = list(table_rows(Fraction(-3), Fraction(3), 12))
    parts = {(r.num % r.den, r.den) for r, _ in rows if r.den != 1}
    assert sorted(calls) == sorted(Fraction(-q, t) for t, q in parts)
    assert len(rows) == 6 * 46 + 1 and len(parts) == 45  # six units of F_12 share their parts
    monkeypatch.undo()
    for r, (kind, total, *tags) in rows:
        assert row_tallies(r) == RowTallies(TightCount(kind, total), *tags), r


def tallies_from_phi_and_psi(r: Slope) -> RowTallies:
    """The closed-form tallies computed from `phi` and `psi`, one expansion each."""
    p, q = r.num, r.den
    if is_toroidal(r):
        return RowTallies(TightCount(CountKind.INFINITE))
    phi_r, psi_r = phi(r), psi(r)
    total = 2 * phi_r if p > 0 else phi_r + psi_r
    if not in_classified_range(r):
        return RowTallies(TightCount(CountKind.LOWER_BOUND, total))
    if q == 1:
        ut, candidates = (1, 0) if p < 0 else (2, 0)
    else:
        ut, candidates = (2, 0) if p < 0 else (0, 4)
    return RowTallies(TightCount(CountKind.FINITE, total), ut, candidates, total if p >= -9 * q else psi_r)


@given(st.fractions(min_value=-200, max_value=200, max_denominator=25))
def test_row_tallies_match_phi_and_psi(f):
    r = from_rational(f)
    assert row_tallies(r) == tallies_from_phi_and_psi(r)
