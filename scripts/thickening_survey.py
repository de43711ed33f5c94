#!/usr/bin/env python3
"""Measure thickening dynamics across random slope windows.

Samples surgery coefficients in the classified range, collects every
admissible boundary slope in their windows, runs the bypass iteration on
each, and reports where the paths end up and how long they take.  The
interesting numbers are the endpoint split (-3 vs infinity) and the gap
between actual path lengths and the |p| + |q| worst-case budget.

    python3 scripts/thickening_survey.py --samples 200 --bound 15 --seed 7
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from f8tight import Slope, SlopeWindow, slopes_in_window, thicken_path  # noqa: E402
from f8tight.classification import in_classified_range  # noqa: E402
from f8tight.slope import ZERO, from_rational  # noqa: E402


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--bound", type=int, default=10, help="window denominator bound")
    parser.add_argument("--max-numerator", type=int, default=50)
    parser.add_argument("--max-denominator", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.samples < 1 or args.bound < 1:
        parser.error("samples and bound must be positive")
    return args


def sample_coefficients(args: argparse.Namespace) -> list[Fraction]:
    rng = random.Random(args.seed)
    out: list[Fraction] = []
    while len(out) < args.samples:
        f = Fraction(
            rng.randint(-args.max_numerator, args.max_numerator),
            rng.randint(1, args.max_denominator),
        )
        if in_classified_range(f):
            out.append(f)
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    endpoints: Counter[str] = Counter()
    lengths: Counter[int] = Counter()
    slack = []
    window_sizes = []

    for f in sample_coefficients(args):
        r = from_rational(f)
        window = slopes_in_window(SlopeWindow(r, args.bound))
        window_sizes.append(len(window))
        for s in window:
            # the meridional start is routed through its stabilized stand-in
            start = s if s != ZERO else Slope(-1, r.den + 1)
            path = thicken_path(start)
            endpoints["minus-three" if path.reached_minus_three else "infinity"] += 1
            steps = sum(run.size for run in path.runs)
            lengths[steps] += 1
            if not start.is_infinity:
                slack.append((abs(start.num) + start.den) - steps)

    total = sum(endpoints.values())
    if total == 0:
        print("no window slopes found; widen the bound", file=sys.stderr)
        return 2
    print(f"paths run: {total} from {args.samples} coefficients")
    print(f"window sizes: min {min(window_sizes)} mean {sum(window_sizes) / len(window_sizes):.1f} max {max(window_sizes)}")
    print("endpoints:", dict(sorted(endpoints.items())))
    longest = max(lengths)
    print(f"path steps: max {longest}, distribution {dict(sorted(lengths.items()))}")
    if slack:
        print(f"budget slack (|p|+|q| minus steps): min {min(slack)} mean {sum(slack) / len(slack):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
