"""Command-line front end.

Every number printed here comes straight out of a library call; the CLI
only parses arguments and formats results.  Exit codes: 0 success, 2 usage
error (including malformed slope strings), 3 domain error with a one-line
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from fractions import Fraction

from .cfrac import Form, neg_cfrac, phi, psi
from .classification import (
    CountKind,
    UTTag,
    enumerate_structures,
    geometry_of,
    table_rows,
    tight_count,
)
from .slope import ExponentError, Slope, parse_slope, read_rational
from .surgery_enum import smooth_framing_check
from .tight_counts import solid_torus_count, solid_torus_spec
from .torus_dynamics import (
    AttachSide,
    BypassMove,
    SlopeWindow,
    bypass_step,
    slopes_in_window,
    thicken_path,
)

# `enumerate` streams its lines, so this bounds the number of structures
# (lines) it prints, not its memory.
ENUMERATE_LIMIT = 1_000_000

# A line holds one evaluation per chain component, and a run of zero
# budgets adds components but no structures, so the evaluations in all
# are bounded too.  A family of at most ENUMERATE_LIMIT structures and no
# zero budget has at most 19 slots (each doubles its size at least), so
# this refuses only listings that zero budgets lengthen.
ENUMERATE_EVALUATIONS = 20_000_000

# Most lines (or JSON structure objects) in one write of `enumerate`; a
# line may be of any length, as above.
ENUMERATE_CHUNK = 4096

COUNT_WORDS = {
    CountKind.FINITE: "finite",
    CountKind.INFINITE: "infinite",
    CountKind.LOWER_BOUND: "lower-bound",
}


class ValueParser(argparse.ArgumentParser):
    """Reads -3/2, -4.5, -.5, -1e3 and -inf as values, where argparse takes only plain negative decimals.

    No option name starts with a digit, a dot or "inf".  Subparsers are of
    the parser's own class, so they read values alike.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.|inf)")


# argparse names a value it cannot read by its type's __name__
# ("invalid slope value: 'abc'"), so the two argument types are named for
# the kind of value they read.  A decimal exponent beyond the library's
# bound is refused with that bound named.
def rational(text: str) -> Fraction:
    return _read(read_rational, "rational", text)


def slope(text: str) -> Slope:
    return _read(parse_slope, "slope", text)


def _read(read, kind: str, text: str):
    try:
        return read(text)
    except ExponentError as exc:
        raise argparse.ArgumentTypeError(f"invalid {kind} value: {exc}") from None
    except ZeroDivisionError:  # Fraction("1/0")
        raise ValueError(text) from None


def lift_digit_limit() -> int:
    """Let a process read and print numbers past CPython's default 4,300 digits; returns the old limit, 0 for none."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    return limit


def _show(compute):
    """A command that prints one computed value and succeeds."""

    def command(args: argparse.Namespace, out) -> int:
        print(compute(args), file=out)
        return 0

    return command


# Built on the first run() and kept: building the tree costs about twenty
# times as much as a parse.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = ValueParser(
        prog="f8tight",
        description="Count and enumerate tight contact structures on surgeries on the figure-eight knot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="tight-structure count for M(r)")
    p.add_argument("r", type=slope)
    p.set_defaults(func=_show(lambda a: _format_count(a.r)))

    p = sub.add_parser("enumerate", help="list the certificates for r in the classified range")
    p.add_argument("r", type=slope)
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("phi", help="the per-unit-interval count function")
    p.add_argument("r", type=rational)
    p.set_defaults(func=_show(lambda a: phi(a.r)))

    p = sub.add_parser("psi", help="the companion count supported on r < -3")
    p.add_argument("r", type=rational)
    p.set_defaults(func=_show(lambda a: psi(a.r)))

    p = sub.add_parser("cfrac", help="negative continued fraction expansion")
    p.add_argument("x", type=rational)
    p.add_argument("--form", choices=["std", "st"], default="std")
    p.set_defaults(func=_show(lambda a: neg_cfrac(a.x, Form(a.form))))

    p = sub.add_parser("bypass-step", help="one bypass move on a convex torus")
    p.add_argument("s", type=slope)
    p.add_argument("arc", type=slope)
    p.add_argument("--back", action="store_true")
    p.set_defaults(
        func=_show(lambda a: bypass_step(a.s, BypassMove(AttachSide.BACK if a.back else AttachSide.FRONT, a.arc)))
    )

    p = sub.add_parser("thicken", help="iterate slope-0 bypass moves to -3 or inf")
    p.add_argument("s", type=slope)
    p.set_defaults(func=_cmd_thicken)

    p = sub.add_parser("window", help="admissible neighbor slopes of a coefficient")
    p.add_argument("r", type=slope)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_show(lambda a: " ".join(map(str, slopes_in_window(SlopeWindow(a.r, a.bound))))))

    p = sub.add_parser("solid-torus", help="tight-structure count on a solid torus")
    p.add_argument("--meridian", type=slope, required=True)
    p.add_argument("--dividing", type=slope, required=True)
    p.set_defaults(func=_show(lambda a: solid_torus_count(solid_torus_spec(a.meridian, a.dividing))))

    p = sub.add_parser("check-framing", help="replay the Kirby moves for positive r")
    p.add_argument("r", type=rational)
    p.set_defaults(func=_show(lambda a: "true" if smooth_framing_check(a.r) else "false"))

    p = sub.add_parser("table", help="classification table over a coefficient range")
    p.add_argument("--from", dest="start", type=rational, required=True)
    p.add_argument("--to", dest="stop", type=rational, required=True)
    p.add_argument("--denominator", type=int, default=1)
    p.set_defaults(func=_cmd_table)

    return parser


def _format_count(r: Slope) -> str:
    count = tight_count(r)
    if count.kind is CountKind.INFINITE:
        return "infinite (toroidal)"
    return f"{COUNT_WORDS[count.kind]} {count.value}"


def _cmd_enumerate(args: argparse.Namespace, out) -> int:
    """Print every structure straight off the blocks of its stabilization lattice.

    The count and the size guards read the budget blocks alone; slots
    are spelled out only below the limits.  The output is byte for byte
    what formatting `classify(r)` and `result_as_json` gives.
    """
    r = args.r
    structures = enumerate_structures(r)
    count = structures.size
    if count > ENUMERATE_LIMIT:
        raise ValueError(f"coefficient {r} has {count} tight structures; enumerate lists at most {ENUMERATE_LIMIT}")
    # Their number may have more digits than `str` converts under `run`, so the message leaves it out.
    if structures.evaluation_count() > ENUMERATE_EVALUATIONS:
        raise ValueError(
            f"the {count} tight structures hold more than {ENUMERATE_EVALUATIONS} evaluations in all; "
            f"enumerate writes at most {ENUMERATE_EVALUATIONS}"
        )
    geometry = geometry_of(r).value
    if args.as_json:
        count_json = f'{{"kind": "finite", "value": {count}}}'
        out.write(f'{{"coefficient": "{r}", "geometry": "{geometry}", "count": {count_json}, "structures": [')
    else:
        out.write(f"coefficient {r}\ngeometry {geometry}\ncount finite {count}\n")
    pieces = itertools.chain.from_iterable(_block_text(*block, args.as_json) for block in structures.blocks())
    out.write(next(pieces))
    for piece in pieces:
        out.write(", " + piece if args.as_json else piece)
    if args.as_json:
        out.write("]}\n")
    return 0


def _block_text(family, scale: int, stein, slots: list[range], corner: UTTag, as_json: bool):
    """A block's lines, one per point of `itertools.product(*slots)`.

    The first and last point are tagged `corner`, the rest "No" (see
    `Structures.blocks`).  Each is a piece of its own, and the points
    between them come in pieces of at most ENUMERATE_CHUNK lines, joined
    in C: a line is a fixed head, its evaluations and a fixed tail.  JSON
    objects are listed the same way, and pieces are to be joined by ", ".
    """
    text = {slot: tuple(map(str, slot)) for slot in set(slots)}  # a budget run shares one tuple
    slots = [text[slot] for slot in slots]
    uts = (UTTag.NO.value, corner.value)
    if as_json:
        head, sep, between = f'{{"family": "{family.value}", "evaluations": ["', '", "', ", "
        plain, tagged = (
            f'"], "scale": {scale}, "stein": "{stein.value}", "strong": "Yes", "universally_tight": "{ut}"}}'
            for ut in uts
        )
    else:
        head, sep, between = f"{family.value} evaluations=(", ",", ""
        plain, tagged = (f") scale={scale} stein={stein.value} strong=Yes ut={ut}\n" for ut in uts)
    joint = plain + between + head
    size = math.prod(map(len, slots))
    points = itertools.product(*slots)
    yield head + sep.join(next(points)) + tagged
    for start in range(1, size - 1, ENUMERATE_CHUNK):
        middle = itertools.islice(points, min(ENUMERATE_CHUNK, size - 1 - start))
        yield head + joint.join(map(sep.join, middle)) + plain
    if size > 1:
        yield head + sep.join(next(points)) + tagged


def _cmd_thicken(args: argparse.Namespace, out) -> int:
    path = thicken_path(args.s)
    payload = {
        "path": [str(s) for s in path.slopes],
        "reached_minus_three": path.reached_minus_three,
        "reached_infinity": path.reached_infinity,
    }
    print(json.dumps(payload), file=out)
    return 0


def _cmd_table(args: argparse.Namespace, out) -> int:
    """One row per coefficient off `table_rows`.

    The first row is written on its own, the rest in pieces of at most
    ENUMERATE_CHUNK rows, joined in C.
    """
    rows = itertools.starmap(_table_row, table_rows(args.start, args.stop, args.denominator))
    first = next(rows, None)
    if first is None:
        print("usage error: empty coefficient range", file=sys.stderr)
        return 2
    out.write(first)
    while chunk := "".join(itertools.islice(rows, ENUMERATE_CHUNK)):
        out.write(chunk)
    return 0


def _table_row(r: Slope, count: tuple) -> str:
    kind, total, ut, candidates, stein = count
    geometry = geometry_of(r).value
    if kind is CountKind.FINITE:
        return f"{r}  {geometry}  finite {total}  ut {ut}  cand {candidates}  stein {stein}/{total}\n"
    if kind is CountKind.LOWER_BOUND:
        return f"{r}  {geometry}  lower-bound {total}  ut -  cand -  stein -\n"
    return f"{r}  {geometry}  infinite  ut -  cand -  stein -\n"


def run(argv: list[str], out=None) -> int:
    """Execute one invocation; returns the exit status.

    Arguments are read under the process's digit limit, so that a literal
    too long to read is named as unreadable; the command runs without it.
    """
    out = sys.stdout if out is None else out
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    limit = lift_digit_limit()
    try:
        return args.func(args, out)
    except (ValueError, RuntimeError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    lift_digit_limit()
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (`f8tight enumerate ... | head`).  Point stdout
        # at devnull, so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
