"""Report containers of the acceptance battery (the criteria themselves run
in test_acceptance.py; these checks cover only formatting invariants)."""

import csv

from frostlab.cli import _write_csv
from frostlab.suite import CRITERION_COUNT, CriterionResult, SuiteReport

_FAKE = (
    CriterionResult(1, "alpha", True, "x=1 y=2"),
    CriterionResult(2, "beta", False, "gap=0.5 floor=0.1"),
)


def test_result_line_carries_verdict_and_detail():
    assert _FAKE[0].line.startswith("PASS  1 alpha")
    assert _FAKE[1].line.startswith("FAIL  2 beta")
    assert "gap=0.5" in _FAKE[1].line


def test_report_lines_end_with_tally():
    rep = SuiteReport(quick=True, seed=0, results=_FAKE)
    lines = rep.lines()
    assert len(lines) == 3
    assert lines[-1] == "1/2 criteria passed (quick mode)"
    assert not rep.all_passed


def test_csv_rows_are_flat_four_column(tmp_path):
    rep = SuiteReport(quick=False, seed=3, results=_FAKE)
    rows = rep.csv_rows()
    assert rows[0] == ("criterion", "name", "passed", "detail")
    assert rows[1] == (1, "alpha", "true", "x=1 y=2")
    assert rows[2] == (2, "beta", "false", "gap=0.5 floor=0.1")
    # a detail holding a comma or a quote is quoted, and reads back whole
    detail = 'ratios=(1, 2) tag="x"'
    rep = SuiteReport(quick=False, seed=3,
                      results=(CriterionResult(3, "gamma", True, detail),))
    _write_csv(tmp_path / "suite.csv", rep.csv_rows())
    with open(tmp_path / "suite.csv", encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [
            ["criterion", "name", "passed", "detail"],
            ["3", "gamma", "true", detail]]


def test_criterion_count_is_pinned():
    assert CRITERION_COUNT == 9
