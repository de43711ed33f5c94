"""Output checks: each raises CheckError when f8tight's answer disagrees with the oracles.

Every check re-derives what it expects from ``oracles.py`` or from
properties the output must have (Farey adjacency, involution closure,
budgets); none compares against a stored copy of earlier output.  Checks
that see certificates return how many they saw.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

import oracles

STRUCTURE_KEYS = ["family", "evaluations", "scale", "stein", "strong", "universally_tight"]


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _slope_pair(slope) -> tuple[int, int]:
    return slope.num, slope.den


def structures(p: int, q: int, certs: list[tuple]) -> int:
    """Check a full certificate list for p/q: (family, evaluations, scale, stein, strong, ut) each.

    Length equals the oracle count, certificates are pairwise distinct,
    the list is closed under negating every evaluation, each evaluation
    is scale·rot with |rot| ≤ budget and rot ≡ budget (mod 2), and the
    tags tally to the closed-form (UT, candidate, Stein) numbers.
    """
    kind, count = oracles.tight_count(p, q)
    where = oracles.slope_text((p, q))
    require(kind == "finite", f"{where}: certificates listed for a {kind} count")
    require(len(certs) == count, f"{where}: {len(certs)} certificates, oracle count {count}")
    layout = oracles.family_layout(p, q)
    seen = set()
    per_family: Counter[str] = Counter()
    ut_yes = candidates = stein_yes = 0
    for family, evaluations, scale, stein, strong, ut in certs:
        require(family in layout, f"{where}: unexpected family {family}")
        _, budgets, family_scale = layout[family]
        require(scale == family_scale, f"{where}: {family} scale {scale}, expected {family_scale}")
        components = evaluations
        if family == "PositiveR":
            require(evaluations[:1] in ((1,), (-1,)), f"{where}: L' evaluation {evaluations[:1]}")
            components = evaluations[1:]
        require(len(components) == len(budgets), f"{where}: {len(components)} components, {len(budgets)} budgets")
        for e, b in zip(components, budgets):
            rot, rest = divmod(e, scale)
            require(rest == 0 and abs(rot) <= b and (rot - b) % 2 == 0, f"{where}: evaluation {e} vs budget {b}·{scale}")
        require(strong == "Yes", f"{where}: strong={strong}")
        require(stein in ("Yes", "Unknown") and ut in ("Yes", "No", "CandidatePair"), f"{where}: tags {stein}, {ut}")
        if family == "PsiStd":
            require(ut == "No" and stein == "Yes", f"{where}: PsiStd tagged ut={ut} stein={stein}")
        key = (family, evaluations)
        require(key not in seen, f"{where}: repeated certificate {key}")
        seen.add(key)
        per_family[family] += 1
        ut_yes += ut == "Yes"
        candidates += ut == "CandidatePair"
        stein_yes += stein == "Yes"
    expected = {family: entry[0] for family, entry in layout.items()}
    require(dict(per_family) == expected, f"{where}: family sizes {dict(per_family)}, expected {expected}")
    for family, evaluations in seen:
        require((family, tuple(-e for e in evaluations)) in seen, f"{where}: not closed under the sign involution")
    tallies = (ut_yes, candidates, stein_yes)
    require(tallies == oracles.tag_tallies(p, q), f"{where}: tag tallies {tallies}, expected {oracles.tag_tallies(p, q)}")
    return len(certs)


def result_payload(payload: dict, p: int, q: int) -> int:
    """Check the JSON form of a classification, field order included."""
    where = oracles.slope_text((p, q))
    require(list(payload) == ["coefficient", "geometry", "count", "structures"], f"{where}: keys {list(payload)}")
    require(payload["coefficient"] == where, f"{where}: coefficient {payload['coefficient']}")
    require(payload["geometry"] == oracles.geometry(p, q), f"{where}: geometry {payload['geometry']}")
    kind, value = oracles.tight_count(p, q)
    require(payload["count"] == {"kind": kind, "value": value}, f"{where}: count {payload['count']}")
    require(list(payload["count"]) == ["kind", "value"], f"{where}: count keys {list(payload['count'])}")
    certs = []
    for s in payload["structures"]:
        require(list(s) == STRUCTURE_KEYS, f"{where}: structure keys {list(s)}")
        evaluations = tuple(int(e) for e in s["evaluations"])
        certs.append((s["family"], evaluations, s["scale"], s["stein"], s["strong"], s["universally_tight"]))
    return structures(p, q, certs)


def enumerate_json(text: str, p: int, q: int) -> int:
    require(text.endswith("\n") and text.count("\n") == 1, "enumerate --json must print one line")
    return result_payload(json.loads(text), p, q)


def enumerate_text(text: str, p: int, q: int) -> int:
    lines = text.splitlines()
    where = oracles.slope_text((p, q))
    _, count = oracles.tight_count(p, q)
    head = [f"coefficient {where}", f"geometry {oracles.geometry(p, q)}", f"count finite {count}"]
    require(lines[:3] == head, f"{where}: header {lines[:3]}")
    certs = []
    for line in lines[3:]:
        family, evaluations, scale, stein, strong, ut = line.split(" ")
        require(evaluations.startswith("evaluations=(") and evaluations.endswith(")"), f"{where}: {line}")
        values = tuple(int(e) for e in evaluations[len("evaluations=("):-1].split(","))
        fields = [field.partition("=") for field in (scale, stein, strong, ut)]
        require([f[0] for f in fields] == ["scale", "stein", "strong", "ut"], f"{where}: {line}")
        certs.append((family, values, int(fields[0][2]), fields[1][2], fields[2][2], fields[3][2]))
    return structures(p, q, certs)


def count_line(text: str, p: int, q: int) -> int:
    kind, value = oracles.tight_count(p, q)
    if kind == "infinite":
        expected = "infinite (toroidal)\n"
    else:
        expected = f"{'finite' if kind == 'finite' else 'lower-bound'} {value}\n"
    require(text == expected, f"count {oracles.slope_text((p, q))}: {text!r}, expected {expected!r}")
    return 0


def coefficients_between(start: tuple[int, int], stop: tuple[int, int], max_den: int) -> list[tuple[int, int]]:
    """Reduced p/q with q ≤ max_den in [start, stop], ascending."""
    found = set()
    for q in range(1, max_den + 1):
        lo = -((-start[0] * q) // start[1])
        hi = (stop[0] * q) // stop[1]
        found.update((p, q) for p in range(lo, hi + 1) if math.gcd(p, q) == 1)
    return sorted(found, key=lambda s: Fraction(*s))


def table_output(text: str, start: tuple[int, int], stop: tuple[int, int], max_den: int) -> int:
    """Check every row of a table: coefficients, geometry, count and tallies."""
    rows = [line.split("  ") for line in text.splitlines()]
    expected_rows = coefficients_between(start, stop, max_den)
    require([row[0] for row in rows] == [oracles.slope_text(r) for r in expected_rows], "table: coefficient column")
    certificates = 0
    for row, (p, q) in zip(rows, expected_rows):
        where = row[0]
        require(len(row) == 6 and row[1] == oracles.geometry(p, q), f"table {where}: {row}")
        kind, value = oracles.tight_count(p, q)
        if kind == "infinite":
            require(row[2:] == ["infinite", "ut -", "cand -", "stein -"], f"table {where}: {row}")
        elif kind == "lower_bound":
            require(row[2:] == [f"lower-bound {value}", "ut -", "cand -", "stein -"], f"table {where}: {row}")
        else:
            ut, cand, stein = oracles.tag_tallies(p, q)
            expected = [f"finite {value}", f"ut {ut}", f"cand {cand}", f"stein {stein}/{value}"]
            require(row[2:] == expected, f"table {where}: {row}, expected {expected}")
            certificates += value
    return certificates


def window_line(text: str, r: tuple[int, int], bound: int) -> int:
    expected = " ".join(oracles.slope_text(s) for s in oracles.window(r, bound)) + "\n"
    require(text == expected, f"window {oracles.slope_text(r)} --bound {bound}: output differs from the oracle")
    return 0


def thickening(start: tuple[int, int], path) -> int:
    """A thickening path: Farey moves from start to −3 or ∞, within |p| + q moves.

    A final jump −1/n → ∞ is the one sanctioned non-adjacent move, and the
    stuck families −(4n−1)/n, 1/n, (4n+1)/n may only appear at the end.
    """
    slopes = [_slope_pair(s) for s in path.slopes]
    where = f"thicken {oracles.slope_text(start)}"
    require(slopes[0] == start, f"{where}: path starts at {slopes[0]}")
    end = slopes[-1]
    require(
        (path.reached_minus_three, path.reached_infinity) == (end == oracles.MINUS_THREE, end == oracles.INFINITY),
        f"{where}: end {end} with flags {path.reached_minus_three}, {path.reached_infinity}",
    )
    require(end in (oracles.MINUS_THREE, oracles.INFINITY), f"{where}: ends at {end}")
    if start != oracles.INFINITY:
        require(len(slopes) - 1 <= abs(start[0]) + start[1], f"{where}: {len(slopes) - 1} moves")
    for i in range(len(slopes) - 1):
        a, b = slopes[i], slopes[i + 1]
        final_jump = i == len(slopes) - 2 and a[0] == -1 and b == oracles.INFINITY
        require(oracles.is_farey_adjacent(a, b) or final_jump, f"{where}: {a} → {b} is not a Farey edge")
        require(not oracles.in_stuck_family(a), f"{where}: stuck slope {a} before the end")
    return 0


def chain(meridian: tuple[int, int], dividing: tuple[int, int], chain) -> int:
    """A basic-slice chain: Farey path from the normalized slope down to −1,
    strictly decreasing, with Π(block + 1) equal to the oracle count."""
    where = f"chain {oracles.slope_text(meridian)} {oracles.slope_text(dividing)}"
    path = [_slope_pair(s) for s in chain.slope_path]
    require(path[0] == oracles.normalized_dividing(meridian, dividing), f"{where}: starts at {path[0]}")
    require(path[-1] == oracles.MINUS_ONE, f"{where}: ends at {path[-1]}")
    for a, b in zip(path, path[1:]):
        require(oracles.is_farey_adjacent(a, b), f"{where}: {a} → {b} is not a Farey edge")
        require(b[0] * a[1] < a[0] * b[1], f"{where}: {a} → {b} does not descend")
    require(sum(chain.blocks) == len(path) - 1 and all(b >= 1 for b in chain.blocks), f"{where}: blocks {chain.blocks}")
    product = math.prod(b + 1 for b in chain.blocks)
    expected = oracles.solid_torus_count(meridian, dividing)
    require(product == expected, f"{where}: block product {product}, oracle count {expected}")
    return 0


def sign_sequences(chain, sequences, count: int) -> int:
    """One canonical sequence per shuffle class: count many, distinct, − before + in each block."""
    require(len(sequences) == count, f"{len(sequences)} sign sequences, oracle count {count}")
    edges = sum(chain.blocks)
    seen = set()
    for seq in sequences:
        signs = seq.signs
        require(len(signs) == edges, f"sign sequence of length {len(signs)} on {edges} edges")
        cursor = 0
        for size in chain.blocks:
            block = "".join(signs[cursor:cursor + size])
            require(block == "-" * block.count("-") + "+" * (size - block.count("-")), f"block {block} not canonical")
            cursor += size
        seen.add(signs)
    require(len(seen) == len(sequences), "repeated sign sequence")
    return len(sequences)
