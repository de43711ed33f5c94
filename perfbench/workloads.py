"""The benchmark's workloads: seeded inputs, the calls into f8tight, and their checks.

A workload is a sequence of rounds.  Round k of a workload is built from
``random.Random(f"{workload}/{seed}/{k}")`` alone, holds the same number of
operations of the same kinds for every seed, and its checks compare each
output with the integer oracles in ``oracles.py``.  The program only ever
receives the generated inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

import checks
import oracles

# Calls go through the module attributes, so that a traced run sees them.
from f8tight import cfrac, classification, cli, surgery_enum, tight_counts, torus_dynamics
from f8tight.slope import Slope


class LineSink:
    """Output stream for ``cli.run`` that notes when its n-th line was complete."""

    def __init__(self, line: int | None = None) -> None:
        self.parts: list[str] = []
        self.pending = line
        self.line_at: float | None = None

    def write(self, text: str) -> int:
        self.parts.append(text)
        if self.pending is not None:
            self.pending -= text.count("\n")
            if self.pending <= 0:
                self.line_at = perf_counter()
                self.pending = None
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


@dataclass
class Op:
    """One timed call into the program and the check of what it returned.

    `check` returns the number of certificates (or solid-torus sign
    sequences) the call listed.  `first_line` names the output line whose
    arrival is timed for text-form CLI calls.  `expect` is an exception the
    call is known to raise today; it is then counted as failed.
    """

    kind: str
    call: Callable[[LineSink], object]
    check: Callable[[object, LineSink], int]
    first_line: int | None = None
    expect: type[BaseException] | None = None


def _cli_op(kind: str, argv: list[str], check_text: Callable[[str], int], first_line: int | None) -> Op:
    def check(status: object, sink: LineSink) -> int:
        checks.require(status == 0, f"{' '.join(argv)} exited {status}")
        return check_text(sink.text())

    return Op(kind, lambda sink: cli.run(argv, out=sink), check, first_line)


def _text(f: Fraction) -> str:
    return oracles.slope_text((f.numerator, f.denominator))


# --- table_sweep -------------------------------------------------------------

TABLE_DENOMINATOR = 12


def _halves(lo: int, hi: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(a, 2) for a in range(2 * lo, 2 * hi + 1))


# One unit-wide window per stratum and round.  The strata cover both signs,
# the three gap intervals [−4, −3), [0, 1), [4, 5) with their toroidal
# points, and the far rows where counts (and the Ψ-only Stein tally) grow.
# [−10, −5] and [1, 3] appear twice, so that the median operation falls
# inside a group of windows of alike cost.
TABLE_STRATA = (
    _halves(-30, -11),
    _halves(-10, -5),
    _halves(-10, -5),
    (Fraction(-9, 2), Fraction(-4), Fraction(-7, 2)),
    _halves(-3, -1),
    (Fraction(-1, 2), Fraction(0)),
    _halves(1, 3),
    _halves(1, 3),
    (Fraction(7, 2), Fraction(4)),
    _halves(5, 29),
)


def table_round(seed: int, k: int) -> list[Op]:
    """Round k takes the k-th window of each stratum in a seed-shuffled order,
    so a run of the benchmark's length sweeps every stratum about evenly."""
    ops = []
    for i, stratum in enumerate(TABLE_STRATA):
        order = list(stratum)
        random.Random(f"table_sweep/{seed}/{i}").shuffle(order)
        start = order[k % len(order)]
        stop = start + 1
        argv = ["table", "--from", _text(start), "--to", _text(stop), "--denominator", str(TABLE_DENOMINATOR)]
        bounds = ((start.numerator, start.denominator), (stop.numerator, stop.denominator))
        ops.append(
            _cli_op("table", argv, lambda text, b=bounds: checks.table_output(text, *b, TABLE_DENOMINATOR), 1)
        )
    return ops


# --- enumerate_stream --------------------------------------------------------

SMALL_BAND = (1_000, 1_100)
MEDIUM_BAND = (2_000, 2_200)
LARGE_BAND = (45_000, 48_000)


def _digits_in_band(rng: random.Random, lo: int, hi: int) -> list[int]:
    """Four digits [d0, d1, d2, d3] whose standard product lands in [lo, hi].

    d0 is −2…−5 and d1, d2 are −2…−5; d3 is solved for so that the product
    falls inside the band.  A fixed length keeps the cost per certificate
    alike across seeds.
    """
    while True:
        digits = [rng.randint(-5, -2), rng.randint(-5, -2), rng.randint(-5, -2)]
        product = oracles.standard_product(digits)
        if -(-lo // product) <= hi // product:
            factor = rng.randint(-(-lo // product), hi // product)
            return [*digits, -(factor + 1)]


def _fraction_in_zero_one(digits: list[int]) -> Fraction:
    """t ∈ (0, 1) with −1/t equal to the digit list's value."""
    p, q = oracles.evaluate(digits)
    return Fraction(-q, p)


def coefficient_with_count(rng: random.Random, family: str, lo: int, hi: int) -> Fraction:
    """A classified non-integral coefficient of the family whose count lies in [lo, hi].

    Families: "negative" (r < −4, count Φ + Ψ), "middle" (r ∈ [−3, 0),
    count Φ) and "positive" (r ∈ (2, 3), count 2Φ).
    """
    if family == "middle":
        return _fraction_in_zero_one(_digits_in_band(rng, lo, hi)) - rng.randint(1, 3)
    if family == "positive":
        return _fraction_in_zero_one(_digits_in_band(rng, -(-lo // 2), hi // 2)) + 2
    # r = −3 + [d0, d1, …, d4]: Ψ = |d0|·P and Φ = Q with P = Π|di+1| and
    # Q = |d1|·Π_{i≥2}|di+1|, so d0 is solved for from the tail.
    while True:
        tail = _digits_in_band(rng, lo // 8, lo // 6)
        big_p = math.prod(abs(d + 1) for d in tail)
        q_term = oracles.standard_product(tail)
        least, most = max(2, -(-(lo - q_term) // big_p)), (hi - q_term) // big_p
        if least <= most:
            p, q = oracles.evaluate([-rng.randint(least, most), *tail])
            return Fraction(p, q) - 3


def enumerate_round(rng: random.Random) -> list[Op]:
    # The mix is weighted so that each median and the tail fall inside a
    # group of alike lists: small middle-family lists hold the medians, the
    # six medium lists hold op_tail_ms.
    slots = [("middle", SMALL_BAND, False)] * 4 + [("negative", SMALL_BAND, False)] * 2
    slots += [("middle", SMALL_BAND, True)] * 2 + [("positive", SMALL_BAND, True)] * 3 + [("negative", SMALL_BAND, True)]
    slots += [("middle", MEDIUM_BAND, False)] * 3 + [("middle", MEDIUM_BAND, True)] * 3
    # One large list per round keeps the peak size alike across runs; r < −4
    # is the family of the long PsiStd lists.
    slots.append(("negative", LARGE_BAND, False))
    ops = []
    for family, band, as_json in slots:
        f = coefficient_with_count(rng, family, *band)
        r = (f.numerator, f.denominator)
        argv = ["enumerate", _text(f)]
        if as_json:
            argv.append("--json")
            ops.append(_cli_op("enumerate_json", argv, lambda text, r=r: checks.enumerate_json(text, *r), None))
        else:
            # the fourth line is the first certificate, after coefficient, geometry and count
            ops.append(_cli_op("enumerate_text", argv, lambda text, r=r: checks.enumerate_text(text, *r), 4))
    return ops


# --- deep_counts -------------------------------------------------------------


def _twos(n: int) -> Fraction:
    """−(n+1)/n, whose expansion is n digits −2."""
    return Fraction(-(n + 1), n)


def _shifted(k: int, n: int) -> Fraction:
    """−k − 1/n: one digit −(k+1), then n − 1 digits −2."""
    return Fraction(-k * n - 1, n)


def _runs(rng: random.Random, total: int) -> Fraction:
    """A value below −1 whose expansion is a few digits −3…−6, each before a long −2 run."""
    digits: list[int] = []
    while len(digits) < total:
        digits.append(rng.randint(-6, -3))
        digits += [-2] * rng.randint(total // 8, total // 3)
    p, q = oracles.evaluate(digits)
    return Fraction(p, q)


def _mixed(rng: random.Random, length: int) -> Fraction:
    """A value whose expansion has `length` digits drawn from −6…−2: a huge count."""
    p, q = oracles.evaluate([rng.randint(-6, -2) for _ in range(length)])
    return Fraction(p, q)


def _library_op(kind: str, call: Callable[[], object], expected: object) -> Op:
    def check(result: object, sink: LineSink) -> int:
        checks.require(result == expected, f"{kind}: got {result}, expected {expected}")
        return 0

    return Op(kind, lambda sink: call(), check)


def _tight_count_op(f: Fraction) -> Op:
    r = (f.numerator, f.denominator)

    def check(result, sink: LineSink) -> int:
        kind, value = oracles.tight_count(*r)
        checks.require((result.kind.value, result.value) == (kind, value), f"tight_count {_text(f)}")
        return 0

    return Op("tight_count", lambda sink: classification.tight_count(Slope(*r)), check)


def _classify_op(f: Fraction) -> Op:
    r = (f.numerator, f.denominator)
    return Op(
        "classify",
        lambda sink: classification.classify(Slope(*r)),
        lambda result, sink: checks.result_payload(classification.result_as_json(result), *r),
    )


def _count_cli_op(f: Fraction) -> Op:
    r = (f.numerator, f.denominator)
    return _cli_op("count_cli", ["count", _text(f)], lambda text: checks.count_line(text, *r), 1)


def _solid_torus_count_op(rng: random.Random, c_value: Fraction) -> Op:
    meridian = _random_meridian(rng)
    c = (c_value.numerator, c_value.denominator)
    dividing = oracles.dividing_from_normalized(meridian, c)
    expected = oracles.solid_torus_count(meridian, dividing)
    return _library_op(
        "solid_torus_count",
        lambda: tight_counts.solid_torus_count(tight_counts.solid_torus_spec(Slope(*meridian), Slope(*dividing))),
        expected,
    )


def deep_round(rng: random.Random) -> list[Op]:
    deep = lambda: rng.randint(4_000, 6_000)  # noqa: E731
    shallow = lambda: rng.randint(800, 1_200)  # noqa: E731
    mixed_length = lambda: rng.randint(200, 300)  # noqa: E731

    def pair(f: Fraction) -> tuple[int, int]:
        return f.numerator, f.denominator

    ops = [
        _tight_count_op(_twos(deep())),
        _tight_count_op(_shifted(rng.randint(5, 60), deep())),
    ]
    f = _runs(rng, deep())
    ops.append(_library_op("phi", lambda f=f: cfrac.phi(f), oracles.phi(*pair(f))))
    f = _runs(rng, deep()) - 3
    ops.append(_library_op("psi", lambda f=f: cfrac.psi(f), oracles.psi(*pair(f))))
    f = _runs(rng, deep())
    ops.append(_library_op("choice_count", lambda f=f: surgery_enum.choice_count(f), oracles.choice_count(*pair(f))))
    ops.append(_solid_torus_count_op(rng, 1 / _runs(rng, deep())))
    ops.append(_count_cli_op(_runs(rng, deep()) - 3))
    ops.append(_count_cli_op(_twos(deep())))
    ops.append(_classify_op(_twos(shallow())))
    ops.append(_classify_op(_shifted(rng.randint(8, 12), shallow())))
    ops.append(_tight_count_op(_mixed(rng, mixed_length()) - 3))
    f = _mixed(rng, mixed_length())
    ops.append(_library_op("phi", lambda f=f: cfrac.phi(f), oracles.phi(*pair(f))))
    f = _mixed(rng, mixed_length())
    ops.append(_library_op("choice_count", lambda f=f: surgery_enum.choice_count(f), oracles.choice_count(*pair(f))))
    ops.append(_count_cli_op(_mixed(rng, mixed_length())))
    return ops


# --- torus_walks -------------------------------------------------------------

SMALL_WINDOW_SLOPES = 120
SMALL_WINDOW_BOUNDS = ((1_000, 3_000), (3_000, 30_000), (30_000, 100_000))
LARGE_WINDOW_SLOPES = 12_000
LARGE_WINDOW_PATHS = 4
# The cap on Farey moves in tight_counts.descent_path makes induced_chain
# raise for meridian ∞ and dividing slope −1/n once n > 100,001, while
# solid_torus_count answers n.  These calls fail today on every seed.
CAPPED_DIVIDING = (-1, 200_000)


def _random_meridian(rng: random.Random) -> tuple[int, int]:
    if rng.random() < 0.2:
        return oracles.INFINITY
    while True:
        m = (rng.randint(-60, 60), rng.randint(1, 60))
        if math.gcd(*m) == 1:
            return m


def _window_coefficient(rng: random.Random, q_r: int) -> tuple[int, int]:
    """A classified, non-toroidal coefficient with denominator q_r."""
    while True:
        p_r = rng.randint(-20 * q_r, 20 * q_r)
        if math.gcd(p_r, q_r) == 1 and oracles.in_classified_range(p_r, q_r) and not oracles.is_toroidal(p_r, q_r):
            return p_r, q_r


def _window_slopes(r: tuple[int, int], count: int, first: int) -> list[tuple[int, int]]:
    """The neighbors of r above it whose denominators are first, first + q_r, ….

    Neighbors above r are (1 + q·p_r)/q_r over q with q·p_r ≡ −1 (mod q_r).
    """
    p_r, q_r = r
    return [((1 + q * p_r) // q_r, q) for q in range(first, first + count * q_r, q_r)]


def _first_denominator(r: tuple[int, int]) -> int:
    """The least q ≥ 1 with q·p_r ≡ −1 (mod q_r), for q_r ≥ 2."""
    p_r, q_r = r
    return -pow(p_r, -1, q_r) % q_r


def _window_op(r: tuple[int, int], bound: int) -> Op:
    argv = ["window", oracles.slope_text(r), "--bound", str(bound)]
    return _cli_op("window", argv, lambda text: checks.window_line(text, r, bound), 1)


def _thicken_op(r: tuple[int, int], s: tuple[int, int]) -> Op:
    # The meridional slope 0 is routed through its stabilized stand-in.
    start = s if s != (0, 1) else (-1, r[1] + 1)
    return Op(
        "thicken",
        lambda sink: torus_dynamics.thicken_path(Slope(*start)),
        lambda path, sink: checks.thickening(start, path),
    )


def _chain_op(
    kind: str, meridian: tuple[int, int], dividing: tuple[int, int], signs: bool, expect: type[BaseException] | None = None
) -> Op:
    def call(sink: LineSink):
        chain = tight_counts.induced_chain(tight_counts.solid_torus_spec(Slope(*meridian), Slope(*dividing)))
        return chain, (tight_counts.enumerate_sign_sequences(chain) if signs else None)

    def check(result, sink: LineSink) -> int:
        chain, sequences = result
        checks.chain(meridian, dividing, chain)
        return 0 if sequences is None else checks.sign_sequences(chain, sequences, oracles.solid_torus_count(meridian, dividing))

    return Op(kind, call, check, expect=expect)


def _chain_slope(
    rng: random.Random, edges: tuple[int, int], counts: tuple[int, int] | None = None
) -> tuple[int, int]:
    """A normalized dividing slope c ∈ [−1, 0) whose chain length (and count) fall in range.

    Chain length and count are read off the expansion of 1/c: a digit d
    adds |d| − 2 edges (one more at the end) and a factor |d + 1|.
    """
    while True:
        digits = [rng.randint(-edges[1] // 2, -2) for _ in range(rng.randint(2, 4))]
        length = sum(abs(d) - 2 for d in digits) + 1
        count = oracles.solid_torus_product(digits)
        if edges[0] <= length <= edges[1] and (counts is None or counts[0] <= count <= counts[1]):
            p, q = oracles.evaluate(digits)
            return oracles.reduced(q, p)


def torus_round(rng: random.Random) -> list[Op]:
    ops = []
    for lo, hi in SMALL_WINDOW_BOUNDS:
        bound = round(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        q_r = max(2, bound // SMALL_WINDOW_SLOPES)
        r = _window_coefficient(rng, q_r)
        first = _first_denominator(r)
        # exactly SMALL_WINDOW_SLOPES neighbors have a denominator ≤ bound
        bound = first + (SMALL_WINDOW_SLOPES - 1) * q_r + rng.randrange(q_r)
        ops.append(_window_op(r, bound))
        ops += [_thicken_op(r, s) for s in _window_slopes(r, SMALL_WINDOW_SLOPES, first)]
    # The large window has denominator 3…8, so its bound lies in [3.6e4, 9.6e4].
    r = _window_coefficient(rng, rng.randint(3, 8))
    first = _first_denominator(r)
    ops.append(_window_op(r, first + (LARGE_WINDOW_SLOPES - 1) * r[1] + rng.randrange(r[1])))
    slopes = _window_slopes(r, LARGE_WINDOW_SLOPES, first)
    ops += [_thicken_op(r, slopes[(2 * j + 1) * len(slopes) // (2 * LARGE_WINDOW_PATHS)]) for j in range(LARGE_WINDOW_PATHS)]
    for _ in range(4):
        c = _chain_slope(rng, (15_000, 20_000))
        meridian = _random_meridian(rng)
        ops.append(_chain_op("deep_chain", meridian, oracles.dividing_from_normalized(meridian, c), False))
    for _ in range(3):
        c = _chain_slope(rng, (40, 300), (1_500, 2_000))
        meridian = _random_meridian(rng)
        ops.append(_chain_op("sign_sequences", meridian, oracles.dividing_from_normalized(meridian, c), True))
    ops.append(_chain_op("capped_chain", oracles.INFINITY, CAPPED_DIVIDING, False, expect=RuntimeError))
    return ops


# --- registry ----------------------------------------------------------------

WORKLOADS = ("table_sweep", "enumerate_stream", "deep_counts", "torus_walks")

# op_tail_ms is this percentile of the op times; each leaves at least ten
# samples above it in a run of the benchmark's length.
TAIL_PERCENTILE = {"table_sweep": 95, "enumerate_stream": 80, "deep_counts": 95, "torus_walks": 99}


def build_round(workload: str, seed: int, k: int) -> list[Op]:
    rng = random.Random(f"{workload}/{seed}/{k}")
    if workload == "table_sweep":
        return table_round(seed, k)
    if workload == "enumerate_stream":
        return enumerate_round(rng)
    if workload == "deep_counts":
        return deep_round(rng)
    if workload == "torus_walks":
        return torus_round(rng)
    raise ValueError(f"unknown workload {workload!r}")

