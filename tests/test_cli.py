"""End-to-end checks on the command-line surface.

Each command is exercised through run() with a captured stream, so the
frozen strings below are exactly what a shell user sees.  One subprocess
test covers the main() entry point and its exit status plumbing.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from f8tight import cfrac, classification, surgery_enum
from f8tight.classification import (
    CountKind,
    classify,
    coefficients_between,
    geometry_of,
    result_as_json,
    row_tallies,
    tight_count,
)
from f8tight.slope import Slope
from f8tight import cli
from f8tight.cli import run


def src_env() -> dict[str, str]:
    """The environment with this checkout's `src` first on PYTHONPATH, for subprocesses."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


def enumerate_oracle(r: Slope, as_json: bool) -> str:
    """What `enumerate` printed when it formatted `classify(r)`'s certificates one by one."""
    result = classify(r)
    if as_json:
        return json.dumps(result_as_json(result)) + "\n"
    lines = [f"coefficient {result.coefficient}", f"geometry {result.verdict.value}"]
    lines.append(f"count finite {result.count.value}")
    for cert in result.structures:
        evaluations = ",".join(str(e) for e in cert.evaluations)
        lines.append(
            f"{cert.family.value} evaluations=({evaluations}) scale={cert.scale} "
            f"stein={cert.stein.value} strong=Yes ut={cert.universally_tight.value}"
        )
    return "\n".join(lines) + "\n"


class WriteLog:
    """Output stream that keeps each write apart."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize(
    "coefficient, expected",
    [
        ("-5", "finite 3"),
        ("-9/2", "finite 4"),
        ("-1/2", "finite 2"),
        ("3/2", "finite 4"),
        ("0", "infinite (toroidal)"),
        ("4", "infinite (toroidal)"),
        ("-4", "infinite (toroidal)"),
        ("1/2", "lower-bound 4"),
        ("-7/2", "lower-bound 3"),
    ],
)
def test_count_output(coefficient, expected):
    code, text = run_cli("count", coefficient)
    assert code == 0
    assert text == expected + "\n"


def test_count_agrees_with_library():
    for f in (Fraction(-19, 7), Fraction(23, 5), Fraction(7), Fraction(-12, 5)):
        code, text = run_cli("count", f"{f.numerator}/{f.denominator}")
        assert code == 0
        count = tight_count(Slope(f.numerator, f.denominator))
        if count.kind is CountKind.INFINITE:
            assert text.strip() == "infinite (toroidal)"
        else:
            word = "finite" if count.kind is CountKind.FINITE else "lower-bound"
            assert text.strip() == f"{word} {count.value}"


def test_phi_and_psi_commands():
    assert run_cli("phi", "1/2") == (0, "2\n")
    assert run_cli("phi", "7/3") == (0, "3\n")
    assert run_cli("psi", "-9/2") == (0, "2\n")
    assert run_cli("psi", "-10") == (0, "7\n")


def test_cfrac_command():
    assert run_cli("cfrac", "-3/2") == (0, "[-2,-2]:std\n")
    assert run_cli("cfrac", "-3/2", "--form", "st") == (0, "[-2,-2]:st\n")
    assert run_cli("cfrac", "-1/4") == (0, "[-1,-2,-2,-2]:std\n")


def test_cfrac_rejects_out_of_domain(capsys):
    code, text = run_cli("cfrac", "1/2")
    assert code == 3
    assert text == ""
    assert capsys.readouterr().err.startswith("domain error:")


def test_bypass_step_command():
    assert run_cli("bypass-step", "-9/2", "0") == (0, "-4\n")
    assert run_cli("bypass-step", "-9/2", "0", "--back") == (0, "-5\n")
    assert run_cli("bypass-step", "inf", "1/2") == (0, "0\n")


def test_bypass_step_degenerate(capsys):
    code, _ = run_cli("bypass-step", "-1", "-1")
    assert code == 3
    assert "domain error:" in capsys.readouterr().err


def test_thicken_command():
    code, text = run_cli("thicken", "-9/2")
    assert code == 0
    assert json.loads(text) == {
        "path": ["-9/2", "-4", "-3"],
        "reached_minus_three": True,
        "reached_infinity": False,
    }
    code, text = run_cli("thicken", "-2")
    assert json.loads(text) == {
        "path": ["-2", "-1", "inf"],
        "reached_minus_three": False,
        "reached_infinity": True,
    }


def test_window_command():
    assert run_cli("window", "-5", "--bound", "3") == (0, "-14/3 -9/2 -4 inf\n")


def test_window_rejects_toroidal(capsys):
    code, _ = run_cli("window", "4", "--bound", "3")
    assert code == 3
    assert "domain error:" in capsys.readouterr().err


def test_window_rejects_a_zero_bound(capsys):
    assert run_cli("window", "-5", "--bound", "0") == (3, "")
    assert capsys.readouterr().err == "domain error: window denominator bound must be positive, got 0\n"


def test_solid_torus_command():
    args = ("solid-torus", "--meridian", "inf", "--dividing")
    assert run_cli(*args, "-5/3") == (0, "2\n")
    assert run_cli(*args, "-2/5") == (0, "4\n")
    assert run_cli(*args, "-1") == (0, "1\n")


def test_check_framing_command(capsys):
    assert run_cli("check-framing", "5/2") == (0, "true\n")
    assert run_cli("check-framing", "18/5") == (0, "true\n")
    code, _ = run_cli("check-framing", "1/2")
    assert code == 3
    assert "domain error:" in capsys.readouterr().err


def test_enumerate_plain_output():
    code, text = run_cli("enumerate", "-9/2")
    assert code == 0
    assert text.splitlines() == [
        "coefficient -9/2",
        "geometry Hyperbolic",
        "count finite 4",
        "PsiStd evaluations=(-1,0) scale=1 stein=Yes strong=Yes ut=No",
        "PsiStd evaluations=(1,0) scale=1 stein=Yes strong=Yes ut=No",
        "PhiOvertwisted evaluations=(-5) scale=5 stein=Yes strong=Yes ut=Yes",
        "PhiOvertwisted evaluations=(5) scale=5 stein=Yes strong=Yes ut=Yes",
    ]


def test_enumerate_json_matches_library():
    code, text = run_cli("enumerate", "-9/2", "--json")
    assert code == 0
    expected = json.dumps(result_as_json(classify(Slope(-9, 2))))
    assert text == expected + "\n"


def test_enumerate_outside_range(capsys):
    for coefficient in ("1/2", "9/2", "0", "4", "-4"):
        code, text = run_cli("enumerate", coefficient)
        assert code == 3
        assert text == ""
        if coefficient in ("1/2", "9/2"):
            reason = "is outside the classified range"
        else:
            reason = f"is toroidal: M({coefficient}) has infinitely many tight structures"
        assert capsys.readouterr().err == f"domain error: coefficient {coefficient} {reason}\n"


def test_enumerate_refuses_counts_above_the_limit(capsys, monkeypatch):
    # 319,314,893,760 structures: refused from the count alone, before any
    # certificate is built.  The message names the reduced coefficient.
    code, text = run_cli("enumerate", "-123456789012345/987654321")
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == (
        "domain error: coefficient -41152263004115/329218107 has 319314893760 tight structures; "
        "enumerate lists at most 1000000\n"
    )

    monkeypatch.setattr(cli, "ENUMERATE_LIMIT", 3)
    code, text = run_cli("enumerate", "-9/2")
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == (
        "domain error: coefficient -9/2 has 4 tight structures; enumerate lists at most 3\n"
    )

    monkeypatch.setattr(cli, "ENUMERATE_LIMIT", 4)
    code, text = run_cli("enumerate", "-9/2")
    assert code == 0
    assert text.splitlines()[2] == "count finite 4"
    assert len(text.splitlines()) == 3 + 4


def test_enumerate_matches_the_certificate_oracle():
    finite = 0
    for r in coefficients_between(Fraction(-30), Fraction(30), 8):
        if tight_count(r).kind is not CountKind.FINITE:
            continue
        finite += 1
        assert run_cli("enumerate", str(r)) == (0, enumerate_oracle(r, False)), r
        assert run_cli("enumerate", str(r), "--json") == (0, enumerate_oracle(r, True)), r
    assert finite == 1255


def test_enumerate_builds_no_certificates(monkeypatch):
    r = Slope(-68111, 6930)
    expected = {as_json: enumerate_oracle(r, as_json) for as_json in (False, True)}

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate must not build certificates")

    # `enumerate` takes the lazy `enumerate_structures(r)` for its count and
    # blocks, but must build none of its certificates: every certificate is
    # a `ContactStructureCert`, and `Structures` builds them only when
    # iterated or indexed.
    for owner, name in [
        (classification, "ContactStructureCert"),
        (classification.Structures, "__iter__"),
        (classification.Structures, "__getitem__"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    assert run_cli("enumerate", str(r)) == (0, expected[False])
    assert run_cli("enumerate", str(r), "--json") == (0, expected[True])


@pytest.mark.parametrize("as_json", [False, True])
def test_enumerate_streams_in_chunks(as_json):
    # 25,625 structures: the header goes out first, then chunks of at
    # most ENUMERATE_CHUNK structures, so the first structure is written
    # well before the last one exists.
    argv = ["enumerate", "-68111/6930"] + (["--json"] if as_json else [])
    sink = WriteLog()
    assert run(argv, out=sink) == 0
    assert "".join(sink.writes) == enumerate_oracle(Slope(-68111, 6930), as_json)
    first, chunks = sink.writes[0], sink.writes[1:]
    assert first.endswith("count finite 25625\n" if not as_json else '"structures": [')
    per_chunk = [chunk.count('{"family"') if as_json else chunk.count("\n") for chunk in chunks]
    assert len(per_chunk) > 2 and max(per_chunk) == cli.ENUMERATE_CHUNK


def test_enumerate_expands_each_chain_once(monkeypatch):
    # The size guard reads the count off the same expansions as the budgets.
    original = cfrac.neg_cfrac
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (cfrac, surgery_enum, classification):
        monkeypatch.setattr(module, "neg_cfrac", counting)
    for r in ("-68111/6930", "-10", "7/3", "1", "-13/5"):
        calls.clear()
        assert run_cli("enumerate", r)[0] == 0
        assert len(calls) <= 2 and len(set(calls)) == len(calls), (r, calls)


def test_table_command():
    code, text = run_cli("table", "--from", "-6", "--to", "-4")
    assert code == 0
    assert text.splitlines() == [
        "-6  Hyperbolic  finite 4  ut 1  cand 0  stein 4/4",
        "-5  Hyperbolic  finite 3  ut 1  cand 0  stein 3/3",
        "-4  Toroidal  infinite  ut -  cand -  stein -",
    ]


def test_table_with_denominator():
    code, text = run_cli("table", "--from", "0", "--to", "3/2", "--denominator", "2")
    assert code == 0
    assert text.splitlines() == [
        "0  Toroidal  infinite  ut -  cand -  stein -",
        "1/2  Hyperbolic  lower-bound 4  ut -  cand -  stein -",
        "1  SmallSeifert  finite 2  ut 2  cand 0  stein 2/2",
        "3/2  Hyperbolic  finite 4  ut 0  cand 4  stein 4/4",
    ]


def test_table_empty_range(capsys):
    code, text = run_cli("table", "--from", "1/3", "--to", "2/5")
    assert code == 2
    assert text == ""
    assert "usage error" in capsys.readouterr().err


def test_table_builds_no_certificates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("table must not build certificates")

    for owner, name in [
        (classification.Structures, "__iter__"),
        (classification.Structures, "__getitem__"),
        (classification, "ContactStructureCert"),
        (classification, "enumerate_structures"),
        (cli, "enumerate_structures"),
        (classification, "Structures"),
        (classification, "classify"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    code, text = run_cli("table", "--from", "-30", "--to", "30", "--denominator", "8")
    assert code == 0
    rows = text.splitlines()
    assert [row.split("  ")[0] for row in rows] == [
        str(r) for r in coefficients_between(Fraction(-30), Fraction(30), 8)
    ]
    assert sum(1 for row in rows if "  finite " in row) == 1255


def test_table_rows_build_few_fractions(fractions_built):
    # A row reads its coefficient as an integer pair; the only Fractions
    # are the inputs of Φ's and Ψ's expansions.
    coefficients = coefficients_between(Fraction(-30), Fraction(30), 8)
    for r in coefficients:
        _, built = fractions_built(lambda: (row_tallies(r), geometry_of(r), str(r)))
        assert built <= 3, r
    (code, text), built = fractions_built(run_cli, "table", "--from", "-30", "--to", "30", "--denominator", "8")
    assert code == 0
    rows = len(text.splitlines())
    assert rows == len(coefficients)
    # --from and --to are read as two Fractions
    assert built - 2 <= 3 * rows


def test_table_row_with_a_huge_count():
    # 10¹² structures: the row is read off Φ and Ψ, not counted off certificates.
    r = "-2000000000001/2"
    code, text = run_cli("table", "--from", r, "--to", r, "--denominator", "2")
    assert code == 0
    assert text == f"{r}  Hyperbolic  finite 1000000000000  ut 2  cand 0  stein 999999999998/1000000000000\n"


def test_consecutive_runs_match_fresh_runs(capsys):
    # One process reuses the parser; each call must print what a call on a
    # freshly built parser prints, whatever ran before it.
    invocations = [
        ("count",),
        ("enumerate", "7/3", "--json"),
        ("count", "-9/2"),
        ("table", "--from", "-6", "--to", "-4"),
        ("window", "-5", "--bound", "3"),
        ("count", "abc"),
        ("enumerate", "1/2"),
        ("count", "-9/2"),
    ]

    def call(argv):
        code, text = run_cli(*argv)
        return code, text, capsys.readouterr().err

    cli._build_parser.cache_clear()
    in_sequence = [call(argv) for argv in invocations]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in invocations:
        cli._build_parser.cache_clear()
        fresh.append(call(argv))
    assert in_sequence == fresh
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 0, 2, 3, 0]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("psi", "-4.5"), "2\n"),
        (("phi", "-.5"), "2\n"),
        (("phi", "-1e3"), "1\n"),
        (("cfrac", "-1.5"), "[-2,-2]:std\n"),
        (("cfrac", "-1.5", "--form", "st"), "[-2,-2]:st\n"),
        (("count", "-7/2"), "lower-bound 3\n"),
        (
            ("table", "--from", "-1.5", "--to", "-1", "--denominator", "2"),
            "-3/2  Hyperbolic  finite 2  ut 2  cand 0  stein 2/2\n"
            "-1  SmallSeifert  finite 1  ut 1  cand 0  stein 1/1\n",
        ),
        (("count", "-4.5"), "finite 4\n"),
    ],
)
def test_negative_decimals_are_values(argv, expected):
    assert run_cli(*argv) == (0, expected)


def test_main_reads_and_prints_numbers_past_the_digit_limit():
    # CPython converts at most 4,300 digits between int and str by default.
    # Φ(10^−9000) = 10^9000, and −10^5000 has Φ + Ψ = 1 + (10^5000 − 3).
    proc = subprocess.run(
        [sys.executable, "-m", "f8tight", "phi", "1e-9000"], capture_output=True, text=True, env=src_env()
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1" + "0" * 9000 + "\n", "")
    proc = subprocess.run(
        [sys.executable, "-m", "f8tight", "count", "-1" + "0" * 5000], capture_output=True, text=True, env=src_env()
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "finite " + "9" * 4999 + "8\n", "")


def test_usage_errors(capsys):
    assert run_cli()[0] == 2
    assert run_cli("count")[0] == 2
    assert run_cli("count", "abc")[0] == 2
    assert run_cli("nonsense", "1")[0] == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, kind", [(("window", "abc", "--bound", "2"), "slope"), (("phi", "abc"), "rational")])
def test_usage_errors_name_the_kind_of_value(capsys, argv, kind):
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err.endswith(f"error: argument r: invalid {kind} value: 'abc'\n")


def test_main_subprocess_roundtrip():
    script = "import sys; from f8tight.cli import main; sys.argv = ['f8tight'] + sys.argv[1:]; main()"
    proc = subprocess.run(
        [sys.executable, "-c", script, "count", "-5"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "finite 3\n"

    proc = subprocess.run(
        [sys.executable, "-c", script, "enumerate", "1/2"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("domain error:")


@pytest.mark.parametrize(
    "argv, read",
    [
        # three lines, as `| head -3` takes them
        (("enumerate", "-68111/6930"), lambda stdout: [stdout.readline() for _ in range(3)]),
        # `window` prints one long line; `| head -c 10` takes ten bytes of it
        (("window", "-5", "--bound", "100000"), lambda stdout: stdout.read(10)),
    ],
)
def test_closed_pipe_ends_quietly(argv, read):
    proc = subprocess.Popen(
        [sys.executable, "-m", "f8tight", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env()
    )
    read(proc.stdout)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_module_entry_point():
    env = src_env()
    for module in ("f8tight.cli", "f8tight"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "count", "-9/2"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "finite 4\n", ""), module


@pytest.mark.parametrize(
    "argv",
    [("count", "inf"), ("count", "-inf"), ("enumerate", "inf"), ("enumerate", "1/0"), ("window", "inf", "--bound", "3")],
)
def test_infinity_is_a_domain_error(capsys, argv):
    code, text = run_cli(*argv)
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == "domain error: coefficient inf is not finite: r-surgery needs a finite r\n"
