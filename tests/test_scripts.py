"""The survey scripts and the documented surface: the count survey reads
the same coefficient sweep as the `table` command, the thickening survey
accounts for every path, and the package exports what the scripts, the
README and the command line use."""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import f8tight
from f8tight import SlopeWindow, slopes_in_window
from f8tight.cli import run
from f8tight.slope import from_rational

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

PUBLIC_NAMES = """
    AttachSide BypassMove CountKind Form Slope SlopeWindow bypass_step classify coefficients_between
    enumerate_structures geometry_of neg_cfrac parse_slope phi psi slopes_in_window
    smooth_framing_check solid_torus_count solid_torus_spec thicken_path tight_count
""".split()


def load_script(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec.loader.exec_module(module)
    return module


def test_survey_totals_match_the_table(monkeypatch):
    survey = load_script(monkeypatch, "survey_counts")
    # Windows over both signs, read as `table` reads them: fractions, decimals and exponents below zero.
    for window, has_candidates in [
        (["--from", "-11", "--to", "7", "--denominator", "3"], True),
        (["--from", "-7/2", "--to", "5/3", "--denominator", "5"], True),
        (["--from", "-3/2", "--to", "2", "--denominator", "2"], True),
        (["--from", "-4.5", "--to", "-1"], False),
        (["--from", "-1e1", "--to", "-.5", "--denominator", "4"], False),
    ]:
        table = io.StringIO()
        assert run(["table", *window], out=table) == 0
        rows = table.getvalue().splitlines()
        ut = cand = stein = certificates = 0
        for row in rows:
            found = re.search(r"ut (\d+)  cand (\d+)  stein (\d+)/(\d+)$", row)
            if found:
                ut, cand, stein, certificates = (
                    total + int(value) for total, value in zip((ut, cand, stein, certificates), found.groups())
                )

        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            assert survey.main(window) == 0
        report = report.getvalue()
        assert f"coefficients surveyed: {len(rows)}\n" in report, window
        assert f"certificates: {certificates}  ut-yes {ut}  ut-candidate {cand}  stein-yes {stein}\n" in report, window
        assert certificates > 0 and ut > 0 and (cand > 0) == has_candidates, window


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--from", "1e3000000", "--to", "2"],
            "argument --from: invalid rational value: '1e3000000' has a decimal exponent beyond ±100000",
        ),
        (["--from", "0", "--to", "abc"], "argument --to: invalid rational value: 'abc'"),
        (["--from", "1/0", "--to", "2"], "argument --from: invalid rational value: '1/0'"),
        (["--from", "-inf", "--to", "2"], "argument --from: invalid rational value: '-inf'"),
    ],
)
def test_survey_refuses_what_table_refuses(monkeypatch, capsys, argv, message):
    survey = load_script(monkeypatch, "survey_counts")
    started = time.perf_counter()
    with pytest.raises(SystemExit) as exit_:
        survey.main(argv)
    assert exit_.value.code == 2 and time.perf_counter() - started < 1
    assert capsys.readouterr().err.endswith(f": error: {message}\n")  # argparse names the program after sys.argv[0]
    assert run(["table", *argv]) == 2
    assert capsys.readouterr().err.endswith(f"f8tight table: error: {message}\n")


def test_survey_reads_and_prints_numbers_past_the_digit_limit(tmp_path):
    # The script lifts CPython's 4,300-digit limit as `f8tight` does.
    csv_path, big = tmp_path / "rows.csv", "1" + "0" * 5000
    argv = ["--from", "1e5000", "--to", "1e5000", "--csv", str(csv_path)]
    done = subprocess.run([sys.executable, str(SCRIPTS / "survey_counts.py"), *argv], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith(f"coefficients surveyed: 1\nwindow: [{big}, {big}], denominators <= 1\n")
    assert csv_path.read_text().splitlines()[1] == f"{big},Hyperbolic,finite,2"


def test_thickening_survey_accounts_for_every_path(monkeypatch):
    survey = load_script(monkeypatch, "thickening_survey")
    argv = ["--samples", "12", "--bound", "9", "--seed", "5"]
    coefficients = survey.sample_coefficients(survey.parse_args(argv))
    walked = sum(len(slopes_in_window(SlopeWindow(from_rational(f), 9))) for f in coefficients)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert survey.main(argv) == 0
    report = out.getvalue()
    assert f"paths run: {walked} from 12 coefficients\n" in report
    endpoints = ast.literal_eval(re.search(r"^endpoints: (\{.*\})$", report, re.M).group(1))
    assert set(endpoints) == {"infinity", "minus-three"}
    assert sum(endpoints.values()) == walked
    lengths = ast.literal_eval(re.search(r"distribution (\{.*\})$", report, re.M).group(1))
    assert sum(lengths.values()) == walked


def test_bench_pairs_summary(monkeypatch):
    bench = load_script(monkeypatch, "bench_pairs")
    metrics = [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
        {"name": "op_p50_ms", "unit": "ms", "better": "lower"},
    ]

    def runs(*pairs):
        return [{"metrics": {"ops_per_s": {"value": ops}, "op_p50_ms": {"value": ms}}} for ops, ms in pairs]

    base = runs((10.0, 5.0), (12.0, 4.0), (11.0, 6.0), (9.0, 5.0))
    change = runs((30.0, 5.0), (11.0, 3.0), (40.0, 2.0), (35.0, 7.0))
    summary = bench.summarize(base, change, metrics)
    assert summary["ops_per_s"]["pairs_won"] == 3
    assert summary["op_p50_ms"]["pairs_won"] == 2  # the tie in the first pair counts for neither side
    assert summary["ops_per_s"]["base"] == {"median": 10.5, "q1": 9.75, "q3": 11.25, "runs": [10.0, 12.0, 11.0, 9.0]}
    assert summary["op_p50_ms"]["change"]["median"] == 4.0


def test_star_import_binds_exactly_the_public_names():
    assert sorted(f8tight.__all__) == PUBLIC_NAMES
    namespace: dict[str, object] = {}
    exec("from f8tight import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(PUBLIC_NAMES)


def test_readme_python_example_prints_its_commented_values():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = block.splitlines()
    namespace: dict[str, object] = {}
    checked = []
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        # the value is commented on the same line or on the next one
        _, _, comment = lines[statement.lineno - 1].partition("#")
        if not comment:
            comment = lines[statement.lineno].lstrip().removeprefix("#")
        assert eval(code, namespace) == ast.literal_eval(comment.strip()), code
        checked.append(code)
    assert checked == ["result.count.value", "[c.evaluations for c in result.structures]"]
