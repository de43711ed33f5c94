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
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from f8tight import cfrac, classification, surgery_enum
from f8tight.classification import (
    CountKind,
    classify,
    coefficients_between,
    enumerate_structures,
    geometry_of,
    result_as_json,
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


def test_enumerate_refuses_evaluations_above_the_limit(capsys, monkeypatch):
    # -9/2 lists 2 + 2 structures of 2 and 1 evaluations: 6 in all.
    monkeypatch.setattr(cli, "ENUMERATE_EVALUATIONS", 5)
    assert run_cli("enumerate", "-9/2") == (3, "")
    assert capsys.readouterr().err == (
        "domain error: the 4 tight structures hold more than 5 evaluations in all; enumerate writes at most 5\n"
    )
    monkeypatch.setattr(cli, "ENUMERATE_EVALUATIONS", 6)
    code, text = run_cli("enumerate", "-9/2")
    assert code == 0 and len(text.splitlines()) == 3 + 4


def test_enumerate_writes_a_chain_of_a_million_components():
    # 2 structures of 999,999 evaluations: one budget 1, then 999,998 zero budgets.
    r = Slope(-1000001, 1000000)
    assert enumerate_structures(r).evaluation_count() == 1_999_998 <= cli.ENUMERATE_EVALUATIONS
    assert run_cli("enumerate", str(r)) == (0, enumerate_oracle(r, False))


@pytest.mark.parametrize("coefficient", ["1e100000", "1000000000000", "-1000000000001/1000000000000"])
def test_enumerate_refuses_long_lines_before_spelling_out_a_slot(capsys, coefficient):
    # Two structures each, on a chain of about 10^100000 or 10^12 components
    # (a run of zero budgets): refused off the budget blocks, and without
    # printing a number of more digits than `str` converts by default.
    tracemalloc.start()
    try:
        assert run_cli("enumerate", coefficient) == (3, "")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert capsys.readouterr().err == (
        f"domain error: the 2 tight structures hold more than {cli.ENUMERATE_EVALUATIONS} evaluations in all; "
        f"enumerate writes at most {cli.ENUMERATE_EVALUATIONS}\n"
    )


def test_main_refuses_a_chain_too_long_to_write():
    proc = subprocess.run(
        [sys.executable, "-m", "f8tight", "enumerate", "1e100000"], capture_output=True, text=True, env=src_env()
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("domain error: the 2 tight structures hold more than ")
    assert proc.stderr.count("\n") == 1


def test_enumerate_refuses_a_count_past_the_index_size(capsys):
    # 10^30 − 2 structures: more than `len` answers.
    assert run_cli("enumerate", "-1e30") == (3, "")
    assert capsys.readouterr().err == (
        f"domain error: coefficient -{10**30} has {10**30 - 2} tight structures; enumerate lists at most 1000000\n"
    )


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
    # are the inputs of expansions, one per fractional part of the sweep.
    coefficients = coefficients_between(Fraction(-30), Fraction(30), 8)
    for r in coefficients:
        _, built = fractions_built(lambda: (tight_count(r), geometry_of(r), str(r)))
        assert built <= (r.den != 1), r
    (code, text), built = fractions_built(run_cli, "table", "--from", "-30", "--to", "30", "--denominator", "8")
    assert code == 0
    assert len(text.splitlines()) == len(coefficients)
    parts = {(r.num % r.den, r.den) for r in coefficients if r.den != 1}
    # --from and --to are read as two Fractions
    assert built <= 2 + len(parts)


def table_oracle(start: str, stop: str, n: int) -> str:
    """The table as formatted one row at a time off `tight_count` and `geometry_of`."""
    lines = []
    for r in coefficients_between(Fraction(start), Fraction(stop), n):
        count = tight_count(r)
        row = [str(r), geometry_of(r).value]
        if count.kind is CountKind.INFINITE:
            row += ["infinite", "ut -", "cand -", "stein -"]
        elif count.kind is CountKind.LOWER_BOUND:
            row += [f"lower-bound {count.value}", "ut -", "cand -", "stein -"]
        else:
            row += [
                f"finite {count.value}",
                f"ut {count.universally_tight}",
                f"cand {count.candidate_pair}",
                f"stein {count.stein}/{count.value}",
            ]
        lines.append("  ".join(row) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("start, stop, n", [("-30", "30", 1), ("-30", "30", 8), ("-37/3", "29/5", 13), ("-7", "-2", 25)])
def test_table_matches_rows_formatted_one_by_one(start, stop, n):
    assert run_cli("table", "--from", start, "--to", stop, "--denominator", str(n)) == (0, table_oracle(start, stop, n))


class RecordingSink:
    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def test_table_writes_its_first_row_alone():
    argv = ["table", "--from", "-30", "--to", "30", "--denominator", "20"]
    sink = RecordingSink()
    assert run(argv, out=sink) == 0
    first, *rest = sink.writes
    assert first.endswith("\n") and first.count("\n") == 1
    rows = len(coefficients_between(Fraction(-30), Fraction(30), 20))
    assert [w.count("\n") for w in rest] == [cli.ENUMERATE_CHUNK, rows - 1 - cli.ENUMERATE_CHUNK]
    assert "".join(sink.writes) == run_cli(*argv)[1]


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
        (("count", "1e3"), "finite 2\n"),
    ],
)
def test_negative_decimals_are_values(argv, expected):
    assert run_cli(*argv) == (0, expected)


@pytest.mark.parametrize(
    "argv",
    [("count", "1e3000000"), ("count", "1e999999999"), ("phi", "1e-999999999"), ("table", "--from", "0", "--to", "1e3000000")],
)
def test_a_huge_exponent_is_an_unreadable_argument(capsys, argv):
    # Refused before 10**exponent is built, like any argument that does not parse, and the bound is named.
    started = time.perf_counter()
    assert run_cli(*argv) == (2, "")
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err.endswith(f" value: '{argv[-1]}' has a decimal exponent beyond ±100000\n")


def test_main_reads_and_prints_numbers_past_the_digit_limit(capsys):
    # CPython converts at most 4,300 digits between int and str by default.
    # Φ(10^−9000) = 10^9000, and −10^5000 has Φ + Ψ = 1 + (10^5000 − 3).
    # `run` prints the same where the argument is short enough to read.
    count = "finite " + "9" * 4999 + "8\n"
    cases = [(["phi", "1e-9000"], "1" + "0" * 9000 + "\n"), (["count", "-1e5000"], count)]
    for argv, expected in [*cases, (["count", "-1" + "0" * 5000], count)]:
        proc = subprocess.run([sys.executable, "-m", "f8tight", *argv], capture_output=True, text=True, env=src_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")
    for argv, expected in cases:
        assert run_cli(*argv) == (0, expected)
        assert capsys.readouterr().err == ""


class FirstLine(io.StringIO):
    """A stream that takes one line and then stops the writer, as a reader that has gone would."""

    def write(self, text: str) -> int:
        super().write(text)
        if "\n" in self.getvalue():
            raise BrokenPipeError
        return len(text)


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "-1e5000"), ("count", "1e-9000"), ("enumerate", "-1e5000"), ("enumerate", "1e-9000", "--json"),
        ("phi", "1e-9000"), ("psi", "-1e5000"), ("cfrac", "-1e5000"), ("cfrac", "1e5000", "--form", "st"),
        ("cfrac", "1e-9000"), ("window", "-1e5000", "--bound", "5"), ("window", "1e5000", "--bound", "5"),
        ("check-framing", "-1e5000"), ("check-framing", "1e-9000"), ("check-framing", "-1e-9000"),
        ("bypass-step", "-1e5000", "0"), ("bypass-step", "0", "1e-9000"),
        ("solid-torus", "--dividing", "-2/5", "--meridian", "-1e5000"),
        ("solid-torus", "--dividing", "-2/5", "--meridian", "1e-9000"),
        ("solid-torus", "--dividing", "1e5000", "--meridian", "-2/5"),
        ("table", "--from", "-1e5000", "--to", "3", "--denominator", "2"),
    ],
)
def test_run_prints_numbers_past_the_digit_limit(capsys, argv):
    # CPython converts at most 4,300 digits between int and str by default;
    # `run` lifts that limit while a command runs and restores it after.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit before Python 3.11
    limit = digit_limit()
    out = FirstLine()
    try:
        code = run(list(argv), out=out)
    except BrokenPipeError:
        code = 0
    assert digit_limit() == limit
    text = out.getvalue() + capsys.readouterr().err
    assert code in (0, 3) and "\n" in text
    assert "Exceeds the limit" not in text


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


@pytest.mark.parametrize(
    "command, kind, text",
    [("phi", "rational", "1/0")]
    + [
        (command, kind, text)
        for command, kind in [("count", "slope"), ("phi", "rational")]
        for text in ["abc", "0/0", "3/0x", "1e5x", "1" * 5000, "1/" + "7" * 5000]
    ],
)
def test_an_unreadable_argument_is_named_in_the_command_line_words(capsys, command, kind, text):
    # No text of CPython's ("invalid literal for int()", "Exceeds the limit") reaches the user.
    assert run_cli(command, text) == (2, "")
    assert capsys.readouterr().err.endswith(f"error: argument r: invalid {kind} value: {text!r}\n")


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
