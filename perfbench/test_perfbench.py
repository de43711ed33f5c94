"""Tests of the benchmark itself: oracles, checks, input generation and tracing.

    python3 -m pytest perfbench        # or: python3 -m unittest discover perfbench

Each oracle reproduces values documented in the f8tight README, and each
check accepts the program's real output and rejects a corrupted copy.
"""

from __future__ import annotations

import io
import json
import random
import sys
import unittest
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from tracer import Tracer  # noqa: E402

from f8tight import cli  # noqa: E402
from f8tight.classification import classify, result_as_json  # noqa: E402
from f8tight.slope import Slope  # noqa: E402
from f8tight.tight_counts import enumerate_sign_sequences, induced_chain, solid_torus_spec  # noqa: E402
from f8tight.torus_dynamics import thicken_path  # noqa: E402


def cli_text(*argv: str) -> str:
    out = io.StringIO()
    assert cli.run(list(argv), out=out) == 0
    return out.getvalue()


class OracleTest(unittest.TestCase):
    def test_documented_values(self):
        self.assertEqual(oracles.phi(7, 3), 3)
        self.assertEqual(oracles.psi(-9, 2), 2)
        self.assertEqual([oracles.slope_text(s) for s in oracles.window((-5, 1), 3)], ["-14/3", "-9/2", "-4", "inf"])
        self.assertEqual(oracles.solid_torus_count(oracles.INFINITY, (-2, 5)), 4)
        self.assertEqual(oracles.tight_count(-9, 2), ("finite", 4))
        self.assertEqual(oracles.tight_count(1, 2), ("lower_bound", 4))
        self.assertEqual(oracles.tight_count(4, 1), ("infinite", None))

    def test_expansion_round_trip(self):
        rng = random.Random(0)
        for _ in range(300):
            digits = [rng.randint(-9, -1)] + [rng.randint(-9, -2) for _ in range(rng.randint(0, 8))]
            self.assertEqual(oracles.expand(*oracles.evaluate(digits)), digits)

    def test_tallies_and_layout(self):
        self.assertEqual(oracles.tag_tallies(-9, 2), (2, 0, 4))
        self.assertEqual(oracles.tag_tallies(-5, 1), (1, 0, 3))
        self.assertEqual(oracles.tag_tallies(3, 2), (0, 4, 4))
        layout = oracles.family_layout(-9, 2)
        self.assertEqual(sum(entry[0] for entry in layout.values()), 4)

    def test_normalization_round_trip(self):
        rng = random.Random(1)
        for _ in range(200):
            meridian = workloads._random_meridian(rng)
            c = oracles.reduced(-rng.randint(1, 50), 51)
            self.assertEqual(oracles.normalized_dividing(meridian, oracles.dividing_from_normalized(meridian, c)), c)


class CheckTest(unittest.TestCase):
    def assertRejects(self, check, *args):
        with self.assertRaises(CheckError):
            check(*args)

    def test_table(self):
        text = cli_text("table", "--from", "-9/2", "--to", "-7/2", "--denominator", "12")
        bounds = ((-9, 2), (-7, 2), 12)
        self.assertGreater(checks.table_output(text, *bounds), 0)
        self.assertRejects(checks.table_output, text.replace("ut 2", "ut 1", 1), *bounds)
        self.assertRejects(checks.table_output, "\n".join(text.splitlines()[1:]) + "\n", *bounds)

    def test_enumerate_text(self):
        text = cli_text("enumerate", "-9/2")
        self.assertEqual(checks.enumerate_text(text, -9, 2), 4)  # M(−9/2) has four tight structures
        lines = text.splitlines(keepends=True)
        self.assertRejects(checks.enumerate_text, "".join(lines[:-1]), -9, 2)
        self.assertRejects(checks.enumerate_text, "".join(lines[:-1] + [lines[-2]]), -9, 2)
        self.assertRejects(checks.enumerate_text, text.replace("evaluations=(5)", "evaluations=(7)"), -9, 2)

    def test_enumerate_json(self):
        text = cli_text("enumerate", "7/3", "--json")
        self.assertEqual(checks.enumerate_json(text, 7, 3), 6)
        payload = json.loads(text)
        reordered = dict(reversed(list(payload.items())))
        self.assertRejects(checks.enumerate_json, json.dumps(reordered) + "\n", 7, 3)
        payload["structures"][0]["universally_tight"] = "Yes"
        self.assertRejects(checks.enumerate_json, json.dumps(payload) + "\n", 7, 3)

    def test_classify_payload(self):
        payload = result_as_json(classify(Slope(-10001, 10000)))
        self.assertEqual(checks.result_payload(payload, -10001, 10000), 2)
        payload["structures"][1]["evaluations"] = payload["structures"][0]["evaluations"]
        self.assertRejects(checks.result_payload, payload, -10001, 10000)

    def test_count_line(self):
        self.assertEqual(checks.count_line(cli_text("count", "-9/2"), -9, 2), 0)
        self.assertRejects(checks.count_line, "finite 5\n", -9, 2)

    def test_window(self):
        text = cli_text("window", "-5", "--bound", "3")
        self.assertEqual(checks.window_line(text, (-5, 1), 3), 0)
        self.assertRejects(checks.window_line, text.replace("-9/2 ", ""), (-5, 1), 3)

    def test_thickening(self):
        start = (-2, 5)
        path = thicken_path(Slope(*start))
        self.assertEqual(checks.thickening(start, path), 0)

        @dataclass
        class FakePath:
            slopes: tuple
            reached_minus_three: bool
            reached_infinity: bool

        skipped = FakePath((path.slopes[0], *path.slopes[2:]), path.reached_minus_three, path.reached_infinity)
        self.assertRejects(checks.thickening, start, skipped)
        wrong_flag = FakePath(path.slopes, not path.reached_minus_three, path.reached_infinity)
        self.assertRejects(checks.thickening, start, wrong_flag)

    def test_chain_and_sign_sequences(self):
        meridian, dividing = (3, 7), (-11, 40)
        chain = induced_chain(solid_torus_spec(Slope(*meridian), Slope(*dividing)))
        self.assertEqual(checks.chain(meridian, dividing, chain), 0)
        count = oracles.solid_torus_count(meridian, dividing)
        sequences = enumerate_sign_sequences(chain)
        self.assertEqual(checks.sign_sequences(chain, sequences, count), count)

        @dataclass
        class FakeChain:
            slope_path: tuple
            blocks: tuple

        merged = FakeChain(chain.slope_path, (sum(chain.blocks),))
        self.assertRejects(checks.chain, meridian, dividing, merged)
        self.assertRejects(checks.sign_sequences, chain, sequences[:-1] + sequences[:1], count)


class WorkloadTest(unittest.TestCase):
    def test_counts_land_in_band(self):
        rng = random.Random(2)
        for family in ("middle", "positive", "negative"):
            for band in (workloads.SMALL_BAND, workloads.LARGE_BAND):
                f = workloads.coefficient_with_count(rng, family, *band)
                kind, value = oracles.tight_count(f.numerator, f.denominator)
                self.assertEqual(kind, "finite")
                self.assertTrue(band[0] <= value <= band[1], (family, f, value))

    def test_rounds_are_seeded_and_alike(self):
        for name in workloads.WORKLOADS:
            kinds = [op.kind for op in workloads.build_round(name, 1, 0)]
            self.assertEqual(kinds, [op.kind for op in workloads.build_round(name, 2, 3)], name)

    def test_same_seed_same_inputs(self):
        outputs = []
        for _ in range(2):
            op = workloads.build_round("table_sweep", 7, 1)[0]
            sink = workloads.LineSink(1)
            op.call(sink)
            outputs.append(sink.text())
        self.assertEqual(outputs[0], outputs[1])

    def test_capped_chain_fails_today(self):
        op = workloads.build_round("torus_walks", 1, 0)[-1]
        self.assertEqual(op.kind, "capped_chain")
        self.assertIs(op.expect, RuntimeError)


class TracerTest(unittest.TestCase):
    def traced_counts(self):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.active = True
            cli.run(["enumerate", "-9/2"], out=workloads.LineSink())
            tracer.active = False
        finally:
            tracer.uninstall()
        return tracer

    def test_counts_repeat_and_functions_are_restored(self):
        import f8tight.classification as classification

        original = classification.phi
        first, second = self.traced_counts(), self.traced_counts()
        self.assertIs(classification.phi, original)
        self.assertEqual(first.counts, second.counts)
        self.assertEqual(first.counts["classification.certs"], 4)
        self.assertGreater(first.counts["cfrac.calls"], 0)
        self.assertEqual(first.counts["cli.bytes_out"], len(cli_text("enumerate", "-9/2").encode()))
        self.assertGreater(first.self_s["classification"], 0)
        self.assertEqual(first.counts["torus_dynamics.bypass_steps"], 0)


if __name__ == "__main__":
    unittest.main()
