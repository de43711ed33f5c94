"""The survey script reads the same coefficient sweep as the `table` command."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
import sys
from pathlib import Path

from f8tight.cli import run

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "survey_counts.py"


def load_survey(monkeypatch):
    spec = importlib.util.spec_from_file_location("survey_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec.loader.exec_module(module)
    return module


def test_survey_totals_match_the_table(monkeypatch):
    window = ["--from", "-11", "--to", "7", "--denominator", "3"]
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

    survey = io.StringIO()
    with contextlib.redirect_stdout(survey):
        assert load_survey(monkeypatch).main(window) == 0
    report = survey.getvalue()
    assert f"coefficients surveyed: {len(rows)}\n" in report
    assert f"certificates: {certificates}  ut-yes {ut}  ut-candidate {cand}  stein-yes {stein}\n" in report
    assert certificates > 0 and ut > 0 and cand > 0
