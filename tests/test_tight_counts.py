"""Basic-slice chains, solid-torus normalization, and the block-product count.

Three oracles drive this module: a breadth-first search in a denominator-
bounded patch of the Farey graph certifies that descent paths are true
geodesics, exhaustive sign-sequence enumeration certifies the closed-
form digit product, and the walk that takes one bypass move per edge and
splits blocks by the pivot rule certifies the chains built one block at
a time.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f8tight.cfrac import Form, cfrac_matrix, neg_cfrac, phi, psi
from f8tight.slope import (
    INFINITY,
    Slope,
    UnimodularMatrix,
    apply_unimodular,
    det,
    from_rational,
    is_farey_adjacent,
    reduce,
)
from f8tight.tight_counts import (
    CHAIN_EDGE_LIMIT,
    MINUS_ONE,
    NEGATIVE,
    POSITIVE,
    SIGN_LIMIT,
    BasicSliceChain,
    SignSequence,
    SliceBlock,
    SolidTorusSpec,
    descent_path,
    enumerate_sign_sequences,
    format_sign_sequence,
    induced_chain,
    solid_torus_count,
    solid_torus_spec,
)
from f8tight.torus_dynamics import AttachSide, BypassMove, bypass_step


def interval_bfs_distance(a: Slope, b: Slope) -> int:
    """Shortest Farey-path length among slopes between a and b inclusive.

    The chain of a layered torus may not leave the interval its boundary
    slopes bound, so this restricted distance is the relevant oracle (the
    unconstrained graph can be strictly shorter, e.g. −1/5, 0, −1).
    """
    lo = min(a.as_fraction(), b.as_fraction())
    hi = max(a.as_fraction(), b.as_fraction())
    depth = a.den + b.den + 2
    verts = set()
    for q in range(1, depth + 1):
        for p in range(math.floor(lo * q), math.ceil(hi * q) + 1):
            if math.gcd(abs(p), q) == 1 and lo <= Fraction(p, q) <= hi:
                verts.add(Slope(p, q))
    dist = {a: 0}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            return dist[x]
        for y in verts:
            if y not in dist and is_farey_adjacent(x, y):
                dist[y] = dist[x] + 1
                queue.append(y)
    raise AssertionError("oracle patch too small")


def stepwise_staircase(s0: Slope, s1: Slope) -> tuple[tuple[Slope, ...], tuple[int, ...]]:
    """The descent from s1 to s0 one bypass move per edge, cut into blocks by
    the pivot rule: two edges share a block when the outer slopes of their
    triple have determinant ±2.  Returns the slopes and the block sizes."""
    side = AttachSide.BACK if s0.as_fraction() < s1.as_fraction() else AttachSide.FRONT
    path = [s1]
    while path[-1] != s0:
        path.append(bypass_step(path[-1], BypassMove(side, s0)))
    sizes: list[int] = []
    for i in range(1, len(path)):
        if sizes and abs(det(path[i - 2], path[i])) == 2:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return tuple(path), tuple(sizes)


@st.composite
def close_slope_pairs(draw):
    center = draw(st.integers(-6, 6))
    vals = st.fractions(min_value=center - 2, max_value=center + 2, max_denominator=6)
    a = from_rational(draw(vals))
    b = from_rational(draw(vals))
    return a, b


dividing_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=10)
slopes = st.one_of(
    st.just(INFINITY),
    st.fractions(min_value=-12, max_value=12, max_denominator=8).map(from_rational),
)
wide_slopes = st.fractions(min_value=-60, max_value=60, max_denominator=80).map(from_rational)
normalized_dividing = st.fractions(min_value=-1, max_value=Fraction(-1, 2000), max_denominator=2000)


def test_chain_validation():
    with pytest.raises(ValueError):  # det((0, 1), (5, 2)) = -5
        BasicSliceChain(Slope(0, 1), (SliceBlock(Slope(0, 1), (5, 2), 1),))
    with pytest.raises(ValueError):  # the block does not start where the chain stands
        BasicSliceChain(Slope(0, 1), (SliceBlock(Slope(1, 1), (1, 0), 1),))
    with pytest.raises(ValueError):
        BasicSliceChain(Slope(0, 1), (SliceBlock(Slope(0, 1), (1, 0), 0),))
    with pytest.raises(ValueError):  # -1 + (0, -1) is the vector (-1, 0), not the slope 1/0
        BasicSliceChain(Slope(-1, 1), (SliceBlock(Slope(-1, 1), (0, -1), 1),))
    single = BasicSliceChain(Slope(-1, 1))
    assert single.edge_count == 0
    assert single.slope_path == (Slope(-1, 1),)
    assert single.blocks == ()


# 0, 1, 2 by the step (1, 0), then 2, 3/2, 4/3 by (1, 1): blocks of 2 and 2
TWO_BLOCKS = BasicSliceChain(
    Slope(0, 1), (SliceBlock(Slope(0, 1), (1, 0), 2), SliceBlock(Slope(2, 1), (1, 1), 2))
)


def test_chain_spells_its_blocks():
    assert TWO_BLOCKS.slope_path == (Slope(0, 1), Slope(1, 1), Slope(2, 1), Slope(3, 2), Slope(4, 3))
    assert TWO_BLOCKS.blocks == (2, 2)
    assert TWO_BLOCKS.edge_count == 4


def test_sign_sequence_validation_and_format():
    with pytest.raises(ValueError):
        SignSequence(("-", "x"))
    seq = SignSequence((NEGATIVE, POSITIVE, NEGATIVE, NEGATIVE))
    assert format_sign_sequence(seq, TWO_BLOCKS) == "-+|--"


def test_enumeration_is_canonical_and_complete():
    seqs = enumerate_sign_sequences(TWO_BLOCKS)
    assert len(seqs) == 9
    assert len(set(seqs)) == 9
    for seq in seqs:
        assert "+-" not in format_sign_sequence(seq, TWO_BLOCKS).replace("|", " ")


def test_descent_path_frozen_example():
    chain = descent_path(Slope(-3, 1), Slope(-3, 2))
    assert chain.slope_path == (Slope(-3, 2), Slope(-2, 1), Slope(-3, 1))
    assert chain.blocks == (1, 1)


def test_descent_path_rejects_equal_or_infinite_endpoints():
    with pytest.raises(ValueError, match="must differ, got 1/2 twice"):
        descent_path(Slope(1, 2), Slope(1, 2))
    with pytest.raises(ValueError, match="must be finite, got inf and 1/2"):
        descent_path(INFINITY, Slope(1, 2))
    with pytest.raises(ValueError, match="must be finite, got 1/2 and inf"):
        descent_path(Slope(1, 2), INFINITY)


def test_descent_path_stays_inside_the_interval():
    # the full Farey graph would shortcut −1/5 → 0 → −1; the chain must not
    chain = descent_path(Slope(-1, 1), Slope(-1, 5))
    assert chain.slope_path == (
        Slope(-1, 5), Slope(-1, 4), Slope(-1, 3), Slope(-1, 2), Slope(-1, 1)
    )
    assert chain.blocks == (4,)


@settings(max_examples=40)
@given(close_slope_pairs())
def test_descent_path_is_an_interval_geodesic(pair):
    a, b = pair
    if a == b:
        return
    chain = descent_path(a, b)
    assert chain.slope_path[0] == b
    assert chain.slope_path[-1] == a
    lo = min(a.as_fraction(), b.as_fraction())
    hi = max(a.as_fraction(), b.as_fraction())
    assert all(lo <= s.as_fraction() <= hi for s in chain.slope_path)
    assert len(chain.slope_path) == interval_bfs_distance(a, b) + 1


@settings(max_examples=40)
@given(close_slope_pairs())
def test_descent_length_is_symmetric(pair):
    a, b = pair
    if a == b:
        return
    assert len(descent_path(a, b).slope_path) == len(descent_path(b, a).slope_path)


@settings(max_examples=40)
@given(close_slope_pairs())
def test_blocks_follow_the_pivot_rule(pair):
    a, b = pair
    if a == b:
        return
    chain = descent_path(a, b)
    path = chain.slope_path
    rebuilt = []
    for i in range(1, len(path)):
        if rebuilt and abs(det(path[i - 2], path[i])) == 2:
            rebuilt[-1] += 1
        else:
            rebuilt.append(1)
    assert chain.blocks == tuple(rebuilt)


@settings(max_examples=200)
@given(wide_slopes, wide_slopes)
def test_descent_blocks_match_the_stepwise_walk(a, b):
    if a == b:
        return
    chain = descent_path(a, b)
    assert (chain.slope_path, chain.blocks) == stepwise_staircase(a, b)


@settings(max_examples=200)
@given(slopes, slopes)
def test_induced_chain_matches_the_stepwise_walk(meridian, dividing):
    if meridian == dividing:
        return
    spec = solid_torus_spec(meridian, dividing)
    c = spec.normalized_dividing
    expected = ((c,), ()) if c == MINUS_ONE else stepwise_staircase(MINUS_ONE, c)
    chain = induced_chain(spec)
    assert (chain.slope_path, chain.blocks) == expected


@settings(max_examples=100)
@given(normalized_dividing)
def test_block_sizes_read_the_solid_torus_digits_backwards(c):
    chain = induced_chain(solid_torus_spec(INFINITY, from_rational(c)))
    *inner, last = neg_cfrac(1 / c, Form.SOLID_TORUS).digits
    sizes = [abs(last) - 1] + [abs(d) - 2 for d in reversed(inner)]
    assert chain.blocks == tuple(size for size in sizes if size)
    assert chain.slope_path == stepwise_staircase(MINUS_ONE, from_rational(c))[0]


@given(slopes, slopes)
def test_sign_sequence_classes_count_the_solid_torus(meridian, dividing):
    if meridian == dividing:
        return
    spec = solid_torus_spec(meridian, dividing)
    assert len(enumerate_sign_sequences(induced_chain(spec))) == solid_torus_count(spec)


def test_chain_limit_keeps_its_boundary():
    assert CHAIN_EDGE_LIMIT == 100_000
    chain = induced_chain(solid_torus_spec(INFINITY, Slope(-1, 100_001)))
    assert chain.blocks == (100_000,)
    assert len(chain.slope_path) == 100_001
    refused = r"dividing slope -1/100002 \(meridian inf\) has 100001 edges; chains are limited to 100000"
    with pytest.raises(RuntimeError, match=refused):
        induced_chain(solid_torus_spec(INFINITY, Slope(-1, 100_002)))
    with pytest.raises(RuntimeError, match="from -1/100002 to -1 has 100001 edges; chains are limited to 100000"):
        descent_path(MINUS_ONE, Slope(-1, 100_002))


def test_induced_chain_builds_a_slope_per_block_not_per_edge(monkeypatch):
    spec = solid_torus_spec(INFINITY, Slope(-1, 100_001))
    built = []
    original = Slope.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Slope, "__post_init__", counted)
    chain = induced_chain(spec)
    monkeypatch.undo()
    assert chain.edge_count == 100_000
    assert len(built) < 10


def test_sign_sequences_refuse_long_lists_before_building_them(monkeypatch):
    # one block of 49,999 edges: 50,000 classes of 49,999 signs each
    chain = induced_chain(solid_torus_spec(INFINITY, Slope(-1, 50_000)))
    assert chain.blocks == (49_999,)
    with pytest.raises(ValueError, match="a chain of 49999 edges has 50000 sign-sequence classes"):
        enumerate_sign_sequences(chain)
    # the limit counts classes × edges: 5 × 4 signs for one block of 4
    small = induced_chain(solid_torus_spec(INFINITY, Slope(-1, 5)))
    monkeypatch.setattr("f8tight.tight_counts.SIGN_LIMIT", 20)
    assert len(enumerate_sign_sequences(small)) == 5
    monkeypatch.setattr("f8tight.tight_counts.SIGN_LIMIT", 19)
    with pytest.raises(ValueError, match="takes 20 signs, more than 19"):
        enumerate_sign_sequences(small)
    assert SIGN_LIMIT == 10_000_000


@pytest.mark.parametrize(
    "dividing, expected",
    [
        (Fraction(-1, 2), 2),
        (Fraction(-5, 3), 2),
        (Fraction(-2, 3), 2),
        (Fraction(-3, 5), 3),
        (Fraction(-2, 5), 4),
        (Fraction(-3, 4), 2),
        (Fraction(-4, 5), 2),
        (Fraction(-5, 12), 6),
        (Fraction(-1), 1),
        (Fraction(-1, 3), 3),
        (Fraction(1, 3), 2),
    ],
)
def test_solid_torus_count_frozen(dividing, expected):
    spec = solid_torus_spec(INFINITY, from_rational(dividing))
    assert solid_torus_count(spec) == expected


def test_normalization_records_canonical_data():
    spec = solid_torus_spec(INFINITY, Slope(-5, 3))
    assert spec.k == 1
    assert spec.normalized_dividing == Slope(-2, 3)
    assert spec.normalization.det == 1

    twisted = solid_torus_spec(Slope(-2, 1), Slope(1, 1))
    assert apply_unimodular(twisted.normalization, Slope(-2, 1)) == INFINITY
    assert Fraction(-1) <= twisted.normalized_dividing.as_fraction() < 0


def test_spec_validation():
    with pytest.raises(ValueError):
        solid_torus_spec(Slope(1, 2), Slope(1, 2))
    with pytest.raises(ValueError):
        SolidTorusSpec(Slope(1, 2), Slope(1, 3), UnimodularMatrix.identity(), 0)


@given(slopes, slopes)
def test_normalized_dividing_lands_in_window(meridian, dividing):
    if meridian == dividing:
        return
    spec = solid_torus_spec(meridian, dividing)
    assert apply_unimodular(spec.normalization, meridian) == INFINITY
    assert Fraction(-1) <= spec.normalized_dividing.as_fraction() < 0
    assert spec.normalization.det == 1


@given(slopes, slopes, st.integers(-3, 3), st.integers(-3, 3))
def test_count_is_invariant_under_orientation_preserving_changes(meridian, dividing, x, k):
    if meridian == dividing:
        return
    g = UnimodularMatrix.translation(k) @ UnimodularMatrix(1, 0, x, 1)
    moved = solid_torus_spec(
        apply_unimodular(g, meridian), apply_unimodular(g, dividing)
    )
    assert solid_torus_count(moved) == solid_torus_count(solid_torus_spec(meridian, dividing))


def test_count_can_change_under_reflection():
    # mirror image of the same torus: 3 structures on one side, 2 on the other
    assert solid_torus_count(solid_torus_spec(INFINITY, Slope(-1, 3))) == 3
    assert solid_torus_count(solid_torus_spec(INFINITY, Slope(1, 3))) == 2


@given(dividing_fractions)
def test_count_equals_sign_sequence_classes(dividing):
    if dividing.denominator == 1 and dividing in (0,):
        return
    spec = solid_torus_spec(INFINITY, from_rational(dividing)) if dividing != 0 else None
    if spec is None:
        return
    chain = induced_chain(spec)
    seqs = enumerate_sign_sequences(chain)
    assert len(seqs) == solid_torus_count(spec)
    assert len(set(seqs)) == len(seqs)
    product = 1
    for size in chain.blocks:
        product *= size + 1
    assert product == solid_torus_count(spec)


def test_induced_chain_runs_from_dividing_to_minus_one():
    spec = solid_torus_spec(INFINITY, Slope(-5, 12))
    chain = induced_chain(spec)
    assert chain.slope_path[0] == spec.normalized_dividing
    assert chain.slope_path[-1] == MINUS_ONE
    assert chain.blocks == (2, 1)

    trivial = solid_torus_spec(INFINITY, Slope(-1, 1))
    assert induced_chain(trivial).slope_path == (MINUS_ONE,)


@pytest.mark.parametrize(
    "r, expected",
    [
        (Fraction(1, 2), 2),
        (Fraction(7, 3), 3),
        (Fraction(-3, 2), 2),
        (Fraction(-7, 5), 4),
    ],
)
def test_meridional_count_recovers_phi(r, expected):
    spec = solid_torus_spec(from_rational(r), INFINITY)
    assert solid_torus_count(spec) == phi(r) == expected


@pytest.mark.parametrize(
    "r, expected",
    [
        (Fraction(-9, 2), 2),
        (Fraction(-5), 2),
        (Fraction(-7, 2), 1),
    ],
)
def test_exceptional_fiber_count_recovers_psi(r, expected):
    spec = solid_torus_spec(from_rational(r), Slope(-3, 1))
    assert solid_torus_count(spec) == psi(r) == expected


def test_factorization_matrix_frozen():
    a, b, c, d = cfrac_matrix(neg_cfrac(Fraction(-3, 2)))
    assert (a, b, c, d) == (3, 2, -2, -1)
    assert reduce(a, c) == Slope(-3, 2)
    a, b, c, d = cfrac_matrix(neg_cfrac(Fraction(-1)))
    assert (a, b, c, d) == (1, 1, -1, 0)
    assert reduce(a, c) == Slope(-1, 1)


@given(st.fractions(min_value=-30, max_value=Fraction(-1, 30), max_denominator=30))
def test_factorization_matrix_recovers_its_value(x):
    a, b, c, d = cfrac_matrix(neg_cfrac(x))
    assert a * d - b * c == 1
    assert reduce(a, c) == from_rational(x)
