#!/usr/bin/env python3
"""Survey tight-structure counts over a sweep of surgery coefficients.

Walks every reduced p/q in a window and prints summary statistics: how
often each geometry shows up, the distribution of counts, and the split
of certificate tags.  Counts and tags are read off the closed-form row
tallies, so no certificate is built.  Useful for eyeballing growth rates,
e.g. how the finite counts scale as the denominator bound increases.

    python3 scripts/survey_counts.py --from -8 --to 8 --denominator 6
    python3 scripts/survey_counts.py --from -30 --to -5 --denominator 4 --csv out.csv
"""

from __future__ import annotations

import csv
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from f8tight import CountKind, geometry_of  # noqa: E402
from f8tight.classification import table_rows  # noqa: E402
from f8tight.cli import ValueParser, lift_digit_limit, rational  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = ValueParser(description=__doc__.splitlines()[0])
    parser.add_argument("--from", dest="start", type=rational, required=True)
    parser.add_argument("--to", dest="stop", type=rational, required=True)
    parser.add_argument("--denominator", type=int, default=1)
    parser.add_argument("--csv", type=Path, default=None, help="also write one row per coefficient")
    args = parser.parse_args(argv)
    if args.denominator < 1:
        parser.error("denominator bound must be positive")
    geometries: Counter[str] = Counter()
    kinds: Counter[str] = Counter()
    finite_counts: Counter[int] = Counter()
    tag_totals = Counter(ut_yes=0, ut_candidate=0, stein_yes=0, certificates=0)
    rows = []

    for r, (kind, total, ut, candidates, stein) in table_rows(args.start, args.stop, args.denominator):
        geometry = geometry_of(r).value
        geometries[geometry] += 1
        kinds[kind.value] += 1
        if kind is CountKind.FINITE:
            finite_counts[total] += 1
            tag_totals["certificates"] += total
            tag_totals["ut_yes"] += ut
            tag_totals["ut_candidate"] += candidates
            tag_totals["stein_yes"] += stein
        rows.append(
            {
                "coefficient": str(r),
                "geometry": geometry,
                "kind": kind.value,
                "count": "" if total is None else total,
            }
        )
    if not rows:
        print("empty coefficient range", file=sys.stderr)
        return 2

    print(f"coefficients surveyed: {len(rows)}")
    print(f"window: [{args.start}, {args.stop}], denominators <= {args.denominator}")
    print()
    print("geometry:", dict(sorted(geometries.items())))
    print("verdict kinds:", dict(sorted(kinds.items())))
    if finite_counts:
        ordered = sorted(finite_counts.items())
        print("finite count distribution:", dict(ordered))
        total = sum(k * v for k, v in ordered)
        print(f"mean finite count: {total / sum(finite_counts.values()):.2f}")
    if tag_totals["certificates"]:
        n = tag_totals["certificates"]
        print(
            f"certificates: {n}  ut-yes {tag_totals['ut_yes']}  "
            f"ut-candidate {tag_totals['ut_candidate']}  stein-yes {tag_totals['stein_yes']}"
        )

    if args.csv is not None:
        with args.csv.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=["coefficient", "geometry", "kind", "count"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":
    lift_digit_limit()
    sys.exit(main())
