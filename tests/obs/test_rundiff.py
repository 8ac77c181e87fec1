"""Tests for run-record diffing (repro.obs.rundiff)."""

import pytest

from repro.obs.ledger import LedgerError, fingerprint_of
from repro.obs.rundiff import (
    diff_runs,
    format_diff,
    html_report,
    write_html_report,
)
from tests.obs.test_ledger import (
    accept,
    decision_entry,
    make_record,
    reject,
)


def record_with(decisions, name="w:f", merges=1, **overrides):
    functions = {
        name: {
            "fingerprint": fingerprint_of(decisions),
            "decisions": decisions,
            "merges": merges,
            "mtup": [merges, 0, 0, 0],
            "status": "ok",
            "blocks": 2,
            "instrs": 10,
            "max_block": 6,
        }
    }
    return make_record(functions=functions, **overrides)


ACCEPT = decision_entry(accept("f", "b0", "b1"))
REJECT_INSTRS = decision_entry(reject("f", "b0", "b1"))
REJECT_REGS = decision_entry(
    reject("f", "b0", "b1", constraints=["register_writes"])
)


def test_self_compare_is_clean():
    record = record_with([ACCEPT])
    diff = diff_runs(record, record)
    assert not diff["has_drift"]
    assert not diff["has_time_regression"]
    assert diff["functions"]["w:f"]["status"] == "same"
    assert "verdict: clean" in format_diff(diff)


def test_verdict_flip_is_drift_with_attribution():
    diff = diff_runs(record_with([ACCEPT]), record_with([REJECT_INSTRS]))
    assert diff["has_drift"] and diff["drifted"] == ["w:f"]
    (flip,) = diff["functions"]["w:f"]["flips"]
    assert flip["change"] == "verdict"
    assert flip["a"] == ["accept[merge]"]
    assert flip["b"] == ["reject[constraint]:instructions"]
    text = format_diff(diff)
    assert "DRIFT" in text and "instructions" in text


def test_attribution_flip_classified_separately():
    diff = diff_runs(
        record_with([REJECT_INSTRS]), record_with([REJECT_REGS])
    )
    assert diff["has_drift"]
    (flip,) = diff["functions"]["w:f"]["flips"]
    assert flip["change"] == "attribution"


def test_function_only_in_one_record_is_drift():
    diff = diff_runs(record_with([ACCEPT]), record_with([ACCEPT], name="w:g"))
    assert set(diff["drifted"]) == {"w:f", "w:g"}
    assert diff["functions"]["w:f"]["status"] == "only_a"
    assert diff["functions"]["w:g"]["status"] == "only_b"
    assert "present only in the" in format_diff(diff)


def test_schema_version_mismatch_refused():
    good = record_with([ACCEPT])
    bad = record_with([ACCEPT], schema_version=99)
    with pytest.raises(LedgerError, match="schema_version"):
        diff_runs(good, bad)


def test_time_regression_gates_only_on_same_machine():
    slow = record_with([ACCEPT], phase_time_s={"optimize": 0.002})
    fast = record_with([ACCEPT], phase_time_s={"optimize": 0.001})
    diff = diff_runs(fast, slow)
    assert diff["same_machine"]
    assert diff["has_time_regression"]
    assert diff["time_regressions"] == ["optimize"]
    assert diff["phase_deltas"]["optimize"]["ratio"] == 2.0

    other_machine = record_with(
        [ACCEPT], phase_time_s={"optimize": 0.002},
        machine={"platform": "elsewhere"},
    )
    cross = diff_runs(fast, other_machine)
    assert not cross["same_machine"]
    assert not cross["has_time_regression"]  # informational only
    assert "machines differ" in format_diff(cross)


def test_time_threshold_is_respected():
    a = record_with([ACCEPT], phase_time_s={"optimize": 0.0010})
    b = record_with([ACCEPT], phase_time_s={"optimize": 0.0011})
    assert not diff_runs(a, b, time_threshold=0.15)["has_time_regression"]
    assert diff_runs(a, b, time_threshold=0.05)["has_time_regression"]


def test_html_report_is_self_contained(tmp_path):
    diff = diff_runs(record_with([ACCEPT]), record_with([REJECT_INSTRS]))
    page = html_report(diff)
    assert page.startswith("<!doctype html>")
    assert "decision drift" in page
    assert "reject[constraint]:instructions" in page
    assert "http" not in page.split("</style>")[1]  # no external fetches
    path = tmp_path / "report.html"
    write_html_report(diff, str(path))
    assert path.read_text().startswith("<!doctype html>")


def test_html_report_clean_run():
    record = record_with([ACCEPT])
    page = html_report(diff_runs(record, record))
    assert "clean: no drift" in page

