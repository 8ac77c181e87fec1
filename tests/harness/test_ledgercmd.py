"""End-to-end tests for the record/compare verbs (repro.harness.ledgercmd).

Includes the acceptance drill: comparing a clean run against a
fault-injected one (FaultPlane operand corruption) must report the
drifted functions with constraint attribution and exit nonzero, while a
self-compare must come back clean.
"""

import json

import pytest

from repro.harness.cli import run as cli_run
from repro.harness.ledgercmd import (
    build_suite_record,
    record_suite_run,
    resolve_record,
    run_compare,
    run_record,
)
from repro.obs.ledger import Ledger, validate_record
from repro.robustness.faultinject import FaultPlane, injected

#: Small, fast workload; picked because operand corruption demonstrably
#: flips formation decisions on it (see test_fault_injected_run_drifts).
WORKLOAD = "bzip2"


@pytest.fixture(scope="module")
def clean_record():
    return build_suite_record(subset=[WORKLOAD], kind="test")


@pytest.fixture(scope="module")
def faulted_record():
    plane = FaultPlane(rate=1.0, kinds=("operand",))
    with injected(plane):
        record = build_suite_record(subset=[WORKLOAD], kind="test")
    assert plane.fired  # corruption actually happened
    return record


def test_record_validates_and_carries_decisions(clean_record):
    validate_record(clean_record)
    key = f"{WORKLOAD}:main"
    assert key in clean_record["functions"]
    entry = clean_record["functions"][key]
    assert entry["decisions"], "formation made no decisions?"
    verdicts = {d["verdict"] for d in entry["decisions"]}
    assert "accept" in verdicts
    assert entry["status"] == "ok"
    assert entry["blocks"] >= 1 and entry["instrs"] > 0
    assert len(entry["stats_fingerprint"]) == 16
    assert clean_record["phase_time_s"], "no phase timings aggregated"
    assert clean_record["telemetry"]["events"] > 0


def test_record_is_decision_deterministic(clean_record):
    again = build_suite_record(subset=[WORKLOAD], kind="test")
    key = f"{WORKLOAD}:main"
    assert (
        again["functions"][key]["fingerprint"]
        == clean_record["functions"][key]["fingerprint"]
    )


def test_record_suite_run_persists(tmp_path, clean_record):
    ledger_dir = str(tmp_path / "ledger")
    record, digest = record_suite_run(
        subset=[WORKLOAD], kind="test", ledger_dir=ledger_dir,
        out=str(tmp_path / "rec.json"),
    )
    assert Ledger(ledger_dir).latest() == digest
    on_disk = json.loads((tmp_path / "rec.json").read_text())
    validate_record(on_disk)
    assert resolve_record(str(tmp_path / "rec.json"), Ledger(ledger_dir)) == on_disk
    assert resolve_record("latest", Ledger(ledger_dir)) == on_disk


def test_self_compare_is_clean_and_exits_zero(tmp_path, clean_record):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(clean_record))
    report = run_compare(
        run_a=str(path), run_b=str(path),
        ledger_dir=str(tmp_path / "ledger"),
    )
    assert "verdict: clean" in report


def test_fault_injected_run_drifts_and_exits_nonzero(
    tmp_path, clean_record, faulted_record, capsys
):
    a = tmp_path / "clean.json"
    b = tmp_path / "faulted.json"
    a.write_text(json.dumps(clean_record))
    b.write_text(json.dumps(faulted_record))
    html = tmp_path / "report.html"
    with pytest.raises(SystemExit) as excinfo:
        run_compare(
            run_a=str(a), run_b=str(b),
            ledger_dir=str(tmp_path / "ledger"), html=str(html),
        )
    assert excinfo.value.code == 2
    printed = capsys.readouterr().out
    assert f"{WORKLOAD}:main" in printed  # names the drifted function
    assert "constraint" in printed  # with constraint attribution
    assert "DRIFT" in printed
    page = html.read_text()
    assert "decision drift" in page and f"{WORKLOAD}:main" in page


def test_compare_against_ledger_latest(tmp_path, clean_record):
    ledger_dir = str(tmp_path / "ledger")
    ledger = Ledger(ledger_dir)
    ledger.record(clean_record)
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(clean_record))
    report = run_compare(
        run_a=str(path), against_ledger="latest", ledger_dir=ledger_dir,
    )
    assert "verdict: clean" in report


def test_compare_argument_errors(tmp_path):
    with pytest.raises(SystemExit):
        run_compare(ledger_dir=str(tmp_path / "ledger"))
    with pytest.raises(SystemExit, match="needs one run"):
        run_compare(
            against_ledger="latest", ledger_dir=str(tmp_path / "ledger")
        )
    with pytest.raises(SystemExit, match="cannot read|invalid"):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        run_compare(
            run_a=str(bad), run_b=str(bad),
            ledger_dir=str(tmp_path / "ledger"),
        )


def test_cli_record_and_compare_verbs(tmp_path):
    ledger_dir = str(tmp_path / "ledger")
    out = tmp_path / "rec.json"
    report = cli_run([
        "record", "--subset", WORKLOAD, "--label", "cli-test",
        "--ledger", ledger_dir, "--out", str(out),
    ])
    assert "recorded run" in report and "cli-test" in report
    assert out.exists()
    compare = cli_run([
        "compare", str(out), "--against-ledger", "latest",
        "--ledger", ledger_dir,
    ])
    assert "verdict: clean" in compare


def test_run_record_quick_uses_quick_subset(tmp_path, monkeypatch):
    calls = {}

    def fake_record_suite_run(subset=None, **kwargs):
        calls["subset"] = subset
        return {"functions": {}, "workloads": [], "merges": 0,
                "mtup": [0, 0, 0, 0], "kind": "suite", "label": None,
                "telemetry": {"event_counts": {}}}, "0" * 64

    monkeypatch.setattr(
        "repro.harness.ledgercmd.record_suite_run", fake_record_suite_run
    )
    run_record(quick=True, ledger_dir=str(tmp_path))
    from repro.workloads.spec import QUICK_SUBSET

    assert calls["subset"] == list(QUICK_SUBSET)
